package baselines

import (
	"sort"

	"repro/internal/core"
)

// Union pools the predictions of several detectors, keeping each value's
// maximum confidence across methods — the ensemble the paper evaluates as
// "Union" in Figure 4(a).
type Union struct {
	// Members are the pooled detectors.
	Members []Detector
}

// Name implements Detector.
func (*Union) Name() string { return "Union" }

// Detect implements Detector.
func (u *Union) Detect(values []string) []Prediction {
	preds := make([][]Prediction, len(u.Members))
	for i, m := range u.Members {
		preds[i] = m.Detect(values)
	}
	return Pool(preds...)
}

// Pool is Union's pooling rule over the members' predictions for one
// column: each value keeps its maximum confidence (the earliest member's
// prediction on a tie), ranked by confidence, then row.
func Pool(preds ...[]Prediction) []Prediction {
	best := map[int]Prediction{}
	for _, ps := range preds {
		for _, p := range ps {
			if cur, ok := best[p.Index]; !ok || p.Confidence > cur.Confidence {
				best[p.Index] = p
			}
		}
	}
	out := make([]Prediction, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// All returns the full baseline roster in the order of the paper's
// Figure 4(a), excluding Union.
func All() []Detector {
	return []Detector{
		&FRegex{},
		&PWheel{},
		&DBoost{},
		&Linear{},
		&LinearP{},
		&CDM{},
		&LSA{},
		&SVDD{},
		&DBOD{},
		&LOF{},
	}
}

// AutoDetect adapts a trained core.Detector to the baseline Detector
// interface so the evaluation harness can rank it alongside the baselines.
type AutoDetect struct {
	// Det is the trained detector.
	Det *core.Detector
}

// Name implements Detector.
func (*AutoDetect) Name() string { return "Auto-Detect" }

// Detect implements Detector.
func (a *AutoDetect) Detect(values []string) []Prediction {
	return FromFindings(a.Det.DetectColumn(values))
}

// FromFindings converts findings to predictions, keeping their order.
func FromFindings(findings []core.Finding) []Prediction {
	out := make([]Prediction, 0, len(findings))
	for _, f := range findings {
		out = append(out, Prediction{Index: f.Index, Value: f.Value, Confidence: f.Confidence})
	}
	return out
}
