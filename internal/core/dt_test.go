package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
)

var (
	dtOnce  sync.Once
	dtPipe  *Pipeline
	dtCands []*Calibration
	dtErr   error
)

func dtFixture(t *testing.T) (*Pipeline, []*Calibration) {
	t.Helper()
	dtOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 3000, 17)
		cfg := DefaultTrainConfig()
		// A 16-language subset with varied digit/symbol treatment.
		all := pattern.All()
		for i := 0; i < len(all); i += 5 {
			cfg.Languages = append(cfg.Languages, all[i])
		}
		ds := distsup.DefaultConfig()
		ds.PositivePairs, ds.NegativePairs = 3000, 3000
		cfg.DistSup = ds
		dtPipe, dtErr = refPipeline(c, cfg)
		if dtErr != nil {
			return
		}
		dtCands, dtErr = dtPipe.Calibrate(context.Background(), cfg.TargetPrecision, 0)
	})
	if dtErr != nil {
		t.Fatal(dtErr)
	}
	return dtPipe, dtCands
}

func TestSelectDTValidation(t *testing.T) {
	p, cands := dtFixture(t)
	if _, err := SelectDT(nil, p.Data, 1<<20, 0.95, 0); err == nil {
		t.Error("no candidates should error")
	}
	if _, err := SelectDT(cands, p.Data, 0, 0.95, 0); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := SelectDT(cands, p.Data, 1<<20, 0, 0); err == nil {
		t.Error("zero precision should error")
	}
}

// TestSelectDTAtLeastMatchesST: seeded at the ST thresholds and only
// accepting feasible recall-improving moves, the DT heuristic's training
// coverage must be at least the greedy ST selection's.
func TestSelectDTAtLeastMatchesST(t *testing.T) {
	p, cands := dtFixture(t)
	budget := 64 << 20
	st, err := SelectGreedy(cands, budget)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := SelectDT(cands, p.Data, budget, 0.95, 16)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Coverage < st.Coverage {
		t.Errorf("DT coverage %d < ST coverage %d", dt.Coverage, st.Coverage)
	}
	if dt.Bytes > budget {
		t.Errorf("DT selection exceeds budget: %d", dt.Bytes)
	}
	// Every tuned threshold must stay strictly negative (incompatibility
	// is negative correlation) or never-fire.
	for _, cal := range dt.Chosen {
		if cal.Theta >= 0 && cal.Theta != NoFireTheta {
			t.Errorf("DT produced non-negative threshold %v", cal.Theta)
		}
	}
}

// TestSelectDTMeetsPrecision: the union precision on the training set must
// satisfy the requirement.
func TestSelectDTMeetsPrecision(t *testing.T) {
	p, cands := dtFixture(t)
	dt, err := SelectDT(cands, p.Data, 64<<20, 0.95, 12)
	if err != nil {
		t.Fatal(err)
	}
	covered, falsePos := 0, 0
	for _, e := range p.Data.Examples {
		hit := false
		for _, cal := range dt.Chosen {
			if cal.Covers(cal.Stats.NPMIRunsLOO(e.URuns, e.VRuns, !e.Incompatible)) {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if e.Incompatible {
			covered++
		} else {
			falsePos++
		}
	}
	if covered+falsePos == 0 {
		t.Fatal("DT selection never fires on training data")
	}
	if prec := float64(covered) / float64(covered+falsePos); prec < 0.95 {
		t.Errorf("DT union training precision %.3f < 0.95", prec)
	}
	// A DT detector must be buildable and usable.
	det, err := NewDetector(dt.Chosen)
	if err != nil {
		t.Fatal(err)
	}
	if ps := det.ScorePair("2011-01-01", "2011/01/01"); !ps.Flagged {
		t.Errorf("DT detector misses mixed dates (conf %.2f)", ps.Confidence)
	}
}
