package eval

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/pipeline"
)

var (
	ablationOnce sync.Once
	ablationDet  *core.Detector
	ablationErr  error
)

// ablationDetector trains an ensemble from 21 candidate languages over
// 2,000 WEB columns: cheap, and more than one language, so that the rules
// can disagree.
func ablationDetector(t *testing.T) *core.Detector {
	t.Helper()
	ablationOnce.Do(func() {
		langs := []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2()}
		for i, l := range pattern.All() {
			if i%8 == 5 {
				langs = append(langs, l)
			}
		}
		train := core.DefaultTrainConfig()
		train.Languages = langs
		train.DistSup.PositivePairs = 1500
		train.DistSup.NegativePairs = 1500
		src := pipeline.NewSliceSource(corpus.Generate(corpus.WebProfile(), 2000, 7).Columns)
		res, err := pipeline.Run(context.Background(), src, pipeline.Options{Workers: 1, Train: train})
		if err != nil {
			ablationErr = err
			return
		}
		ablationDet = res.Detector
	})
	if ablationErr != nil {
		t.Fatal(ablationErr)
	}
	return ablationDet
}

// scoreAll is every language's verdict on one pair.
func scoreAll(det *core.Detector, u, v string) []core.LangScore {
	ur, vr := pattern.Encode(u), pattern.Encode(v)
	var by []core.LangScore
	for _, c := range det.Languages() {
		by = append(by, c.Score(ur, vr))
	}
	return by
}

func TestAggregationStrategiesDiffer(t *testing.T) {
	det := ablationDetector(t)
	u, v := "2011-01-01", "2011/01/01"
	by := scoreAll(det, u, v)
	conf, flagged := MaxPrecision.Reduce(by)
	if !flagged {
		t.Fatalf("max precision should flag mixed dates (conf %.2f)", conf)
	}
	if served := det.ScorePair(u, v); served.Confidence != conf || !served.Flagged {
		t.Errorf("MaxPrecision gives (%v, %v), the served detector %+v", conf, flagged, served)
	}
	seen := map[string]float64{}
	for _, rule := range Rules {
		conf, _ := rule.Reduce(by)
		seen[rule.String()] = conf
		if conf < 0 || conf > 1 {
			t.Errorf("%v confidence %v out of range", rule, conf)
		}
	}
	if len(seen) != 5 {
		t.Errorf("aggregations = %v", seen)
	}
}

// TestMajorityVoteSemantics: MV's confidence is the share of firing
// languages, and it flags exactly when a strict majority fires.
func TestMajorityVoteSemantics(t *testing.T) {
	det := ablationDetector(t)
	for _, p := range [][2]string{{"July-01", "1999"}, {"2011-01-01", "2011/01/01"}, {"100", "200"}} {
		by := scoreAll(det, p[0], p[1])
		votes := 0
		for _, l := range by {
			if l.Fires {
				votes++
			}
		}
		conf, flagged := MajorityVote.Reduce(by)
		if conf != float64(votes)/float64(len(by)) {
			t.Errorf("%v: MV confidence %v with %d of %d votes", p, conf, votes, len(by))
		}
		if 2*votes > len(by) != flagged {
			t.Errorf("%v: MV flag inconsistent: votes=%d of %d flagged=%v", p, votes, len(by), flagged)
		}
	}
}

func TestAggregationStringNames(t *testing.T) {
	names := map[Rule]string{
		MaxPrecision:         "Auto-Detect",
		AvgNPMI:              "AvgNPMI",
		MinNPMI:              "MinNPMI",
		MajorityVote:         "MV",
		WeightedMajorityVote: "WMV",
		Rule(99):             "unknown",
	}
	for rule, want := range names {
		if got := rule.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", rule, got, want)
		}
	}
	if got := (&Ablation{Rule: MajorityVote}).Name(); got != "MV" {
		t.Errorf("ablation row = %q, want MV", got)
	}
	if got := (&Ablation{Rule: MaxPrecision, Row: "BestOne"}).Name(); got != "BestOne" {
		t.Errorf("ablation row = %q, want BestOne", got)
	}
}

// TestAblationMaxPrecisionMatchesDetector: the ablation machinery run with
// the paper's rule reproduces the served detector's findings exactly, on
// narrow generated columns and on columns past the distinct-value cap.
func TestAblationMaxPrecisionMatchesDetector(t *testing.T) {
	det := ablationDetector(t)
	ab := &Ablation{Det: det, Rule: MaxPrecision}
	cols := corpus.Generate(corpus.EntXLSProfile(), 300, 11).Columns
	var columns [][]string
	var wide []string
	for _, col := range cols {
		columns = append(columns, col.Values)
		// Concatenate neighbouring columns into ones past the cap.
		wide = append(wide, col.Values...)
		if len(core.Scored(core.Tabulate(wide))) == core.MaxDistinct && len(wide) > 2*core.MaxDistinct {
			columns = append(columns, wide)
			wide = nil
		}
	}
	findings, overCap := 0, 0
	for _, values := range columns {
		want := det.DetectColumn(values)
		if got := ab.DetectColumn(values); !reflect.DeepEqual(got, want) {
			t.Fatalf("column %q:\nablation %+v\ndetector %+v", values, got, want)
		}
		findings += len(want)
		if len(core.NonEmpty(core.Tabulate(values))) > core.MaxDistinct {
			overCap++
		}
	}
	if findings == 0 || overCap == 0 {
		t.Fatalf("vacuous comparison: %d findings, %d columns over the cap", findings, overCap)
	}
}
