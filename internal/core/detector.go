package core

import (
	"errors"

	"repro/internal/pattern"
)

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

// Score is the language's verdict on a pair of encoded values: the one
// per-language primitive every ensemble rule reduces.
func (c *Calibration) Score(ur, vr pattern.Runs) LangScore {
	s := c.Stats.NPMIRuns(ur, vr)
	return LangScore{
		LanguageID: c.Stats.Language().ID,
		NPMI:       s,
		Fires:      c.Covers(s),
		Precision:  c.PrecisionAt(s),
	}
}

// MaxDistinct caps the distinct values DetectColumn scores pairwise per
// column: the first MaxDistinct in row order.
const MaxDistinct = 100

// Detector predicts incompatible values using an ensemble of calibrated
// generalization languages, aggregated by max precision (Section 4.8).
type Detector struct {
	cals []*Calibration
}

// NewDetector builds a detector from calibrated languages.
func NewDetector(cals []*Calibration) (*Detector, error) {
	if len(cals) == 0 {
		return nil, errors.New("core: detector needs at least one language")
	}
	return &Detector{cals: cals}, nil
}

// Languages returns the detector's calibrated languages.
func (d *Detector) Languages() []*Calibration { return d.cals }

// Bytes returns the total statistics footprint.
func (d *Detector) Bytes() int {
	b := 0
	for _, c := range d.cals {
		b += c.Bytes()
	}
	return b
}

// ScorePair scores a pair of raw values, with every language's verdict.
func (d *Detector) ScorePair(u, v string) PairScore {
	hotPairs.Add(uintptr(len(u)), 1)
	hotLangPairs.Add(uintptr(len(v)), uint64(len(d.cals)))
	ps := PairScore{ByLanguage: make([]LangScore, len(d.cals))}
	ps.Confidence, ps.Flagged = d.verdict(pattern.Encode(u), pattern.Encode(v), ps.ByLanguage)
	return ps
}

// verdict is the detector's one reduction, max precision (Equation 11): a
// pair is flagged if any language fires, with confidence
// Q = max_k Pk(sk) over the firing languages. When by is non-nil it
// receives every language's verdict and an unflagged pair still gets a
// (low) ranking score for recall-oriented inspection below the precision
// target. When by is nil only firing languages pay for PrecisionAt's
// binary search, since DetectColumn never reads an unflagged pair's score.
func (d *Detector) verdict(ur, vr pattern.Runs, by []LangScore) (conf float64, flagged bool) {
	below := 0.0
	for i, c := range d.cals {
		var ls LangScore
		if by != nil {
			ls = c.Score(ur, vr)
			by[i] = ls
		} else if s := c.Stats.NPMIRuns(ur, vr); c.Covers(s) {
			ls = LangScore{Fires: true, Precision: c.PrecisionAt(s)}
		} else {
			continue
		}
		if ls.Fires {
			flagged = true
			if ls.Precision > conf {
				conf = ls.Precision
			}
		} else if p := ls.Precision * 0.5; p > below {
			below = p
		}
	}
	if !flagged {
		conf = below
	}
	return conf, flagged
}

// Scored returns the entries of a column's distinct table (Tabulate) that
// the detector scores: the non-empty values, capped at the first
// MaxDistinct.
func Scored(table []Distinct) []Distinct {
	distinct := NonEmpty(table)
	if len(distinct) > MaxDistinct {
		distinct = distinct[:MaxDistinct]
	}
	return distinct
}

// DetectColumn is DetectDistinct over the column's distinct table.
func (d *Detector) DetectColumn(values []string) []Finding {
	return d.DetectDistinct(Tabulate(values))
}

// DetectDistinct scores all pairs of a column's Scored distinct values and
// attributes conflicts to suspect values (see Attribute). Findings are
// sorted by descending confidence.
func (d *Detector) DetectDistinct(table []Distinct) []Finding {
	rows := 0
	for _, t := range table {
		rows += t.Count
	}
	hotValues.Add(uintptr(rows), uint64(rows))
	distinct := Scored(table)
	n := len(distinct)
	if n < 2 {
		return nil
	}
	runs := make([]pattern.Runs, n)
	for i := range distinct {
		runs[i] = pattern.Encode(distinct[i].Value)
	}
	// One publish per column for the whole pair loop, so the
	// instrumentation cost is independent of n².
	pairs := uint64(n) * uint64(n-1) / 2
	hotPairs.Add(uintptr(n), pairs)
	hotLangPairs.Add(uintptr(n), pairs*uint64(len(d.cals)))
	return Attribute(distinct, func(i, j int) (float64, bool) {
		return d.verdict(runs[i], runs[j], nil)
	})
}
