package core

import (
	"errors"
	"sort"

	"repro/internal/pattern"
)

// Aggregation selects how per-language scores combine into one prediction
// (Section 4.8 / Appendix B).
type Aggregation int

// Aggregation strategies compared in Figure 8(b).
const (
	// AggMaxConfidence is the paper's choice: trust the single most
	// confident language, Q = max_k Pk(sk) (Equation 11), and flag a pair
	// if any language fires (union semantics).
	AggMaxConfidence Aggregation = iota
	// AggAvgNPMI ranks by the average NPMI across languages.
	AggAvgNPMI
	// AggMinNPMI ranks by the minimum NPMI across languages.
	AggMinNPMI
	// AggMajorityVote counts languages firing at their thresholds and
	// requires a majority.
	AggMajorityVote
	// AggWeightedMajorityVote weights each vote by the magnitude of the
	// language's NPMI score.
	AggWeightedMajorityVote
)

// String names the aggregation.
func (a Aggregation) String() string {
	switch a {
	case AggMaxConfidence:
		return "Auto-Detect"
	case AggAvgNPMI:
		return "AvgNPMI"
	case AggMinNPMI:
		return "MinNPMI"
	case AggMajorityVote:
		return "MV"
	case AggWeightedMajorityVote:
		return "WMV"
	default:
		return "unknown"
	}
}

// LangScore is one language's verdict on a value pair.
type LangScore struct {
	// LanguageID identifies the generalization language.
	LanguageID int
	// NPMI is sk(u,v).
	NPMI float64
	// Fires is sk ≤ θk.
	Fires bool
	// Precision is the estimated precision Pk(sk).
	Precision float64
}

// PairScore is the aggregated verdict on a value pair.
type PairScore struct {
	// Confidence is the ranking score in [0,1]; higher means more likely
	// incompatible.
	Confidence float64
	// Flagged is the binary prediction at the configured precision target.
	Flagged bool
	// ByLanguage holds the per-language verdicts.
	ByLanguage []LangScore
}

// Finding is one suspected error in a column. It is every detector's
// output shape: the pattern detector here, and the value-level and
// schema-hinted domain detectors in internal/semantic, which document what
// Partner and Confidence mean for them. internal/audit labels each with
// its Kind at the API boundary.
type Finding struct {
	// Value is the suspected erroneous value.
	Value string
	// Index is the row of the value's first occurrence.
	Index int
	// Partner is the compatible-majority value Value conflicts with most
	// confidently.
	Partner string
	// Confidence is the count-weighted aggregated confidence in [0,1].
	Confidence float64
}

// Detector predicts incompatible values using an ensemble of calibrated
// generalization languages.
type Detector struct {
	cals []*Calibration
	agg  Aggregation

	// maxDistinct caps the distinct values scored pairwise per column.
	maxDistinct int
}

// NewDetector builds a detector from calibrated languages.
func NewDetector(cals []*Calibration, agg Aggregation) (*Detector, error) {
	if len(cals) == 0 {
		return nil, errors.New("core: detector needs at least one language")
	}
	return &Detector{cals: cals, agg: agg, maxDistinct: 100}, nil
}

// Languages returns the detector's calibrated languages.
func (d *Detector) Languages() []*Calibration { return d.cals }

// Aggregation returns the configured aggregation strategy.
func (d *Detector) Aggregation() Aggregation { return d.agg }

// SetAggregation switches the aggregation strategy (used by the Figure 8b
// ablation; the calibrated languages are unchanged).
func (d *Detector) SetAggregation(a Aggregation) { d.agg = a }

// Bytes returns the total statistics footprint.
func (d *Detector) Bytes() int {
	b := 0
	for _, c := range d.cals {
		b += c.Bytes()
	}
	return b
}

// ScorePair scores a pair of raw values.
func (d *Detector) ScorePair(u, v string) PairScore {
	hotPairs.Add(uintptr(len(u)), 1)
	hotLangPairs.Add(uintptr(len(v)), uint64(len(d.cals)))
	ur, vr := pattern.Encode(u), pattern.Encode(v)
	return d.scoreRuns(ur, vr)
}

func (d *Detector) scoreRuns(ur, vr pattern.Runs) PairScore {
	ps := PairScore{ByLanguage: make([]LangScore, len(d.cals))}
	for i, c := range d.cals {
		s := c.Stats.NPMIRuns(ur, vr)
		ps.ByLanguage[i] = LangScore{
			LanguageID: c.Stats.Language().ID,
			NPMI:       s,
			Fires:      c.Covers(s),
			Precision:  c.PrecisionAt(s),
		}
	}
	d.aggregate(&ps)
	return ps
}

// aggregate fills Confidence and Flagged from ByLanguage.
func (d *Detector) aggregate(ps *PairScore) {
	k := len(ps.ByLanguage)
	switch d.agg {
	case AggMaxConfidence:
		for _, ls := range ps.ByLanguage {
			if ls.Fires {
				ps.Flagged = true
				if ls.Precision > ps.Confidence {
					ps.Confidence = ls.Precision
				}
			}
		}
		if !ps.Flagged {
			// Still produce a (low) ranking score for recall-oriented
			// inspection below the precision target.
			best := 0.0
			for _, ls := range ps.ByLanguage {
				if p := ls.Precision * 0.5; p > best {
					best = p
				}
			}
			ps.Confidence = best
		}
	case AggAvgNPMI:
		sum := 0.0
		for _, ls := range ps.ByLanguage {
			sum += ls.NPMI
		}
		avg := sum / float64(k)
		ps.Confidence = (1 - avg) / 2
		ps.Flagged = ps.Confidence > 0.5
	case AggMinNPMI:
		min := 1.0
		for _, ls := range ps.ByLanguage {
			if ls.NPMI < min {
				min = ls.NPMI
			}
		}
		ps.Confidence = (1 - min) / 2
		ps.Flagged = ps.Confidence > 0.5
	case AggMajorityVote:
		votes := 0
		for _, ls := range ps.ByLanguage {
			if ls.Fires {
				votes++
			}
		}
		ps.Confidence = float64(votes) / float64(k)
		ps.Flagged = 2*votes > k
	case AggWeightedMajorityVote:
		weight := 0.0
		for _, ls := range ps.ByLanguage {
			if ls.Fires {
				// Weight each vote by the magnitude of the (negative) NPMI.
				w := -ls.NPMI
				if w < 0 {
					w = 0
				}
				weight += w
			}
		}
		ps.Confidence = weight / float64(k)
		if ps.Confidence > 1 {
			ps.Confidence = 1
		}
		ps.Flagged = ps.Confidence > 0.25
	}
}

// DetectColumn scores all distinct value pairs of a column and attributes
// conflicts to suspect values: a value's confidence is the count-weighted
// confidence of its flagged conflicts with the rest of the column, so a
// lone error conflicting with everything scores near the per-pair
// confidence while majority values conflicting only with the error score
// near zero. Findings are sorted by descending confidence.
func (d *Detector) DetectColumn(values []string) []Finding {
	hotValues.Add(uintptr(len(values)), uint64(len(values)))
	type dv struct {
		value string
		runs  pattern.Runs
		count int
		first int
	}
	var distinct []dv
	index := map[string]int{}
	for i, v := range values {
		if v == "" {
			continue // empty cells are missing data, not errors
		}
		if j, ok := index[v]; ok {
			distinct[j].count++
			continue
		}
		index[v] = len(distinct)
		distinct = append(distinct, dv{value: v, runs: pattern.Encode(v), count: 1, first: i})
	}
	if len(distinct) < 2 {
		return nil
	}
	if len(distinct) > d.maxDistinct {
		distinct = distinct[:d.maxDistinct]
	}

	n := len(distinct)
	// One publish per column for the whole pair loop below, so the
	// instrumentation cost is independent of n².
	pairs := uint64(n) * uint64(n-1) / 2
	hotPairs.Add(uintptr(n), pairs)
	hotLangPairs.Add(uintptr(n), pairs*uint64(len(d.cals)))
	confSum := make([]float64, n)   // Σ over conflicting partners: count·conf
	weightSum := make([]float64, n) // Σ over all partners: count
	bestConf := make([]float64, n)
	bestPartner := make([]int, n)
	for i := range bestPartner {
		bestPartner[i] = -1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ps := d.scoreRuns(distinct[i].runs, distinct[j].runs)
			weightSum[i] += float64(distinct[j].count)
			weightSum[j] += float64(distinct[i].count)
			if !ps.Flagged {
				continue
			}
			confSum[i] += ps.Confidence * float64(distinct[j].count)
			confSum[j] += ps.Confidence * float64(distinct[i].count)
			if ps.Confidence > bestConf[i] {
				bestConf[i], bestPartner[i] = ps.Confidence, j
			}
			if ps.Confidence > bestConf[j] {
				bestConf[j], bestPartner[j] = ps.Confidence, i
			}
		}
	}

	var out []Finding
	for i := 0; i < n; i++ {
		if bestPartner[i] < 0 || weightSum[i] == 0 {
			continue
		}
		out = append(out, Finding{
			Value:      distinct[i].value,
			Index:      distinct[i].first,
			Partner:    distinct[bestPartner[i]].value,
			Confidence: confSum[i] / weightSum[i],
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}
