package baselines

import (
	"math"

	"repro/internal/pattern"
)

// LSA implements the entropy-based local search outlier detection of He,
// Deng & Xu: outliers are the values whose removal most reduces the
// entropy of the column's (pattern) distribution. Values are generalized
// into class patterns first, matching the paper's adaptation.
type LSA struct {
	// MaxOutlierFraction bounds how much of the column may be removed
	// (default 0.25).
	MaxOutlierFraction float64
}

// Name implements Detector.
func (*LSA) Name() string { return "LSA" }

// entropy returns the Shannon entropy of the count distribution.
func entropy(counts map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// Detect implements Detector.
func (l *LSA) Detect(values []string) []Prediction {
	maxOut := l.MaxOutlierFraction
	if maxOut == 0 {
		maxOut = 0.25
	}
	dvs := distinct(values)
	if len(dvs) < 3 {
		return nil
	}
	g := pattern.Crude()
	counts := map[string]int{}
	patOf := make([]string, len(dvs))
	total := 0
	for i, dv := range dvs {
		patOf[i] = g.Generalize(dv.Value)
		counts[patOf[i]] += dv.Count
		total += dv.Count
	}
	if len(counts) < 2 {
		return nil
	}
	baseH := entropy(counts, total)
	if baseH == 0 {
		return nil
	}

	// Local search: greedily remove the pattern group whose removal gives
	// the largest per-element entropy reduction, until the budget is spent
	// or entropy stops decreasing.
	removed := map[string]bool{}
	budget := int(float64(total) * maxOut)
	curH := baseH
	curTotal := total
	gain := map[string]float64{}
	for {
		bestPat := ""
		bestGain := 0.0
		for p, c := range counts {
			if removed[p] || c > budget {
				continue
			}
			without := map[string]int{}
			for q, qc := range counts {
				if q != p && !removed[q] {
					without[q] = qc
				}
			}
			h := entropy(without, curTotal-c)
			perElem := (curH - h) / float64(c)
			if perElem > bestGain {
				bestGain = perElem
				bestPat = p
			}
		}
		if bestPat == "" {
			break
		}
		removed[bestPat] = true
		gain[bestPat] = bestGain
		c := counts[bestPat]
		budget -= c
		curTotal -= c
		without := map[string]int{}
		for q, qc := range counts {
			if !removed[q] {
				without[q] = qc
			}
		}
		curH = entropy(without, curTotal)
	}

	var out []Prediction
	for i, dv := range dvs {
		if gfn, ok := gain[patOf[i]]; ok {
			out = append(out, Prediction{
				Index: dv.First, Value: dv.Value,
				Confidence: clamp01(gfn / (baseH + 1)),
			})
		}
	}
	return rank(out)
}
