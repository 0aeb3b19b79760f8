package baselines

import (
	"math"

	"repro/internal/pattern"
)

// PWheel implements the Potter's Wheel baseline (Raman & Hellerstein, VLDB
// 2001): infer the column's structure by choosing, under the minimum
// description length principle, the structure vocabulary whose patterns
// most efficiently encode the values. Potter's Wheel structures are
// sequences of variable-length domains (integers, words) and literal
// delimiters — so patterns here are run-collapsed class shapes like
// "\D,\D" rather than fixed-length templates. Values not conforming to the
// dominant inferred shapes are predicted errors.
//
// This is the paper's canonical *local* method: it sees only the input
// column, so it wrongly flags globally-compatible minorities ("1,000" among
// plain integers) and misses balanced mixes of incompatible formats (the
// 50-50 two-date-format column) — exactly the failure modes Section 1
// discusses.
type PWheel struct {
	// MaxOutlierFraction is the largest fraction of rows that may be
	// declared outliers (default 0.2).
	MaxOutlierFraction float64
}

// pwLevel is one structure vocabulary of the MDL sweep.
type pwLevel struct {
	name string
	lang pattern.Language
	// collapse drops run lengths, turning fixed-length templates into
	// variable-length Potter's Wheel domains.
	collapse bool
}

// pwLevels sweeps from exact values to fully generalized shapes.
var pwLevels = []pwLevel{
	{"values", pattern.Leaf(), false},
	{"digit-shapes", pattern.Crude(), true},
	{"class-shapes", pattern.Find(pattern.TokenLetter, pattern.TokenLetter, pattern.TokenDigit, pattern.TokenLeaf), true},
	{"any-shape", pattern.Root(), true},
}

// shapeOf renders the value's structure under the level: its generalized
// pattern, with run lengths stripped when the level collapses runs.
func shapeOf(lv pwLevel, v string) string {
	p := lv.lang.Generalize(v)
	if lv.collapse {
		return pattern.StripRuns(p)
	}
	return p
}

// bitsPerClassChar is the per-character encoding cost (in bits) of a value
// under each tree node: a leaf character is fully determined by the
// pattern; class characters cost the entropy of their class.
func bitsPerClassChar(t pattern.Token) float64 {
	switch t {
	case pattern.TokenUpper, pattern.TokenLower:
		return math.Log2(26)
	case pattern.TokenLetter:
		return math.Log2(52)
	case pattern.TokenDigit:
		return math.Log2(10)
	case pattern.TokenSymbol:
		return math.Log2(33)
	case pattern.TokenAny:
		return math.Log2(95)
	default:
		return 0
	}
}

// encodingBits returns the cost of encoding value v given its shape under
// level lv: class characters cost their class entropy, plus a small
// length-parameter cost per variable-length run.
func encodingBits(lv pwLevel, v string) float64 {
	bits := 0.0
	for _, r := range v {
		var t pattern.Token
		switch pattern.Categorize(r) {
		case pattern.CatUpper:
			t = lv.lang.Upper
		case pattern.CatLower:
			t = lv.lang.Lower
		case pattern.CatDigit:
			t = lv.lang.Digit
		default:
			t = lv.lang.Symbol
		}
		if t != pattern.TokenLeaf {
			bits += bitsPerClassChar(t)
		}
	}
	if lv.collapse {
		bits += 4 * float64(len(pattern.Encode(v))) // run-length parameters
	}
	return bits
}

// Name implements Detector.
func (*PWheel) Name() string { return "PWheel" }

// Detect implements Detector.
func (p *PWheel) Detect(values []string) []Prediction {
	maxOut := p.MaxOutlierFraction
	if maxOut == 0 {
		maxOut = 0.2
	}
	dvs := distinct(values)
	if len(dvs) < 2 {
		return nil
	}
	total := len(values)

	// MDL sweep: total description length = shape dictionary cost +
	// per-value encoding cost.
	const bitsPerShapeChar = 6
	best := pwLevels[0]
	bestDL := math.Inf(1)
	for _, lv := range pwLevels {
		shapes := map[string]bool{}
		encode := 0.0
		for _, dv := range dvs {
			shapes[shapeOf(lv, dv.Value)] = true
			encode += encodingBits(lv, dv.Value) * float64(dv.Count)
		}
		dict := 0.0
		for s := range shapes {
			dict += float64(len(s))*bitsPerShapeChar + 16
		}
		if dl := dict + encode; dl < bestDL {
			bestDL = dl
			best = lv
		}
	}

	// Under the chosen structure, values whose shape has only marginal
	// support are outliers — provided a dominant shape explains the column.
	shapeCount := map[string]int{}
	shapeOfDV := make([]string, len(dvs))
	for i, dv := range dvs {
		shapeOfDV[i] = shapeOf(best, dv.Value)
		shapeCount[shapeOfDV[i]] += dv.Count
	}
	if len(shapeCount) < 2 {
		return nil
	}
	dominant := 0
	for _, c := range shapeCount {
		if c > dominant {
			dominant = c
		}
	}
	conformThresh := int(float64(total) * maxOut)
	if conformThresh < 1 {
		conformThresh = 1
	}
	if dominant < total-conformThresh {
		return nil // no dominant structure: MDL keeps multiple patterns
	}
	conforming := 0
	for _, c := range shapeCount {
		if c > conformThresh {
			conforming += c
		}
	}
	conf := float64(conforming) / float64(total)
	var out []Prediction
	for i, dv := range dvs {
		if shapeCount[shapeOfDV[i]] <= conformThresh {
			out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: conf})
		}
	}
	return rank(out)
}
