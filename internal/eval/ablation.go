package eval

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/pattern"
)

// Rule is an ensemble rule of Appendix B: how the per-language verdicts on
// a value pair reduce to one pair verdict. Figure 8(b) compares them; the
// served core.Detector implements MaxPrecision only.
type Rule int

// The rules of Figure 8(b), in its row order.
const (
	// MaxPrecision is the paper's choice: trust the single most confident
	// language, Q = max_k Pk(sk) (Equation 11), and flag a pair if any
	// language fires (union semantics).
	MaxPrecision Rule = iota
	// AvgNPMI ranks by the average NPMI across languages.
	AvgNPMI
	// MinNPMI ranks by the minimum NPMI across languages.
	MinNPMI
	// MajorityVote counts languages firing at their thresholds and
	// requires a majority.
	MajorityVote
	// WeightedMajorityVote weights each vote by the magnitude of the
	// language's NPMI score.
	WeightedMajorityVote
)

// Rules lists every rule in Figure 8(b)'s row order.
var Rules = []Rule{MaxPrecision, AvgNPMI, MinNPMI, MajorityVote, WeightedMajorityVote}

var ruleNames = []string{"Auto-Detect", "AvgNPMI", "MinNPMI", "MV", "WMV"}

// String names the rule as Figure 8(b)'s rows do.
func (r Rule) String() string {
	if r < 0 || int(r) >= len(ruleNames) {
		return "unknown"
	}
	return ruleNames[r]
}

// Reduce combines every language's verdict on one pair into the pair's
// confidence and flag. MaxPrecision leaves an unflagged pair at
// confidence 0: attribution never reads it.
func (r Rule) Reduce(by []core.LangScore) (conf float64, flagged bool) {
	k := float64(len(by))
	sum, least, best, weight, votes := 0.0, 1.0, 0.0, 0.0, 0
	for _, ls := range by {
		sum += ls.NPMI
		if ls.NPMI < least {
			least = ls.NPMI
		}
		if ls.Fires {
			votes++
			if ls.Precision > best {
				best = ls.Precision
			}
			// WMV weighs each vote by the magnitude of the (negative) NPMI.
			if ls.NPMI < 0 {
				weight -= ls.NPMI
			}
		}
	}
	switch r {
	case MaxPrecision:
		return best, votes > 0
	case AvgNPMI:
		conf = (1 - sum/k) / 2
		return conf, conf > 0.5
	case MinNPMI:
		conf = (1 - least) / 2
		return conf, conf > 0.5
	case MajorityVote:
		return float64(votes) / k, 2*votes > len(by)
	case WeightedMajorityVote:
		conf = min(weight/k, 1)
		return conf, conf > 0.25
	}
	return 0, false
}

// Ablation detects with one Rule over a detector's languages. It scores the
// detector's own distinct table (same filter, same cap) through
// core.Calibration.Score and attributes with core.Attribute, so only the
// rule differs from the served DetectColumn.
type Ablation struct {
	// Det supplies the calibrated languages and the distinct table.
	Det *core.Detector
	// Rule reduces each pair's per-language verdicts.
	Rule Rule
	// Row names the ablation in results; empty means the rule's name.
	Row string
}

// Name implements baselines.Detector.
func (a *Ablation) Name() string {
	if a.Row != "" {
		return a.Row
	}
	return a.Rule.String()
}

// Detect implements baselines.Detector.
func (a *Ablation) Detect(values []string) []baselines.Prediction {
	return baselines.FromFindings(a.DetectColumn(values))
}

// DetectColumn is core.Detector.DetectColumn with the rule in place of
// max precision.
func (a *Ablation) DetectColumn(values []string) []core.Finding {
	distinct := core.Scored(core.Tabulate(values))
	if len(distinct) < 2 {
		return nil
	}
	runs := make([]pattern.Runs, len(distinct))
	for i := range distinct {
		runs[i] = pattern.Encode(distinct[i].Value)
	}
	langs := a.Det.Languages()
	by := make([]core.LangScore, len(langs))
	return core.Attribute(distinct, func(i, j int) (float64, bool) {
		for k, c := range langs {
			by[k] = c.Score(runs[i], runs[j])
		}
		return a.Rule.Reduce(by)
	})
}
