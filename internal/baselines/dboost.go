package baselines

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/pattern"
)

// DBoost implements the dBoost baseline (Mariet et al.): every value is
// expanded into derived fields using type-specific expansion rules (string
// length, character-class counts, parsed numeric magnitude, and — when the
// value parses as a number in a plausible range — date-like components).
// Each field is modeled by simple per-column statistics (Gaussian for
// numeric fields, frequency histograms for discrete ones); a value whose
// deviating-field fraction exceeds θ is an outlier. Defaults follow the
// paper's reported setting θ = 0.8, ε = 0.05.
type DBoost struct {
	// Theta is the fraction of fields that must deviate (default 0.8).
	Theta float64
	// Epsilon is the rarity threshold for discrete fields (default 0.05).
	Epsilon float64
}

// Name implements Detector.
func (*DBoost) Name() string { return "dBoost" }

// expansion is the derived-field tuple of one value.
type expansion struct {
	numeric    []float64 // numeric fields (NaN = not applicable)
	discrete   []string  // discrete fields
	numNumeric int
}

const dboostNumericFields = 6 // length, digits, letters, symbols, magnitude, fractional

func expand(v string) expansion {
	e := expansion{numeric: make([]float64, dboostNumericFields)}
	var digits, letters, symbols int
	for _, r := range v {
		switch pattern.Categorize(r) {
		case pattern.CatDigit:
			digits++
		case pattern.CatUpper, pattern.CatLower:
			letters++
		default:
			symbols++
		}
	}
	e.numeric[0] = float64(len(v))
	e.numeric[1] = float64(digits)
	e.numeric[2] = float64(letters)
	e.numeric[3] = float64(symbols)
	clean := strings.ReplaceAll(v, ",", "")
	if x, err := strconv.ParseFloat(clean, 64); err == nil {
		e.numeric[4] = x
		e.numeric[5] = x - math.Trunc(x)
		// Tuple-expansion rule: integers in the epoch range are also
		// interpreted as dates (year/month/day-of-week surrogates).
		if x == math.Trunc(x) && x >= 1800 && x <= 2200 {
			e.discrete = append(e.discrete, "century:"+strconv.Itoa(int(x)/100))
		}
	} else {
		e.numeric[4] = math.NaN()
		e.numeric[5] = math.NaN()
	}
	// Discrete fields: first/last character class, value casing shape.
	rs := []rune(v)
	if len(rs) > 0 {
		e.discrete = append(e.discrete,
			"first:"+classOf(rs[0]),
			"last:"+classOf(rs[len(rs)-1]),
		)
	}
	return e
}

// weightedMedian returns the median of xs (xs is modified by sorting).
func weightedMedian(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func classOf(r rune) string {
	switch pattern.Categorize(r) {
	case pattern.CatUpper:
		return "U"
	case pattern.CatLower:
		return "l"
	case pattern.CatDigit:
		return "D"
	default:
		return string(r)
	}
}

// Detect implements Detector.
func (d *DBoost) Detect(values []string) []Prediction {
	theta := d.Theta
	if theta == 0 {
		theta = 0.8
	}
	eps := d.Epsilon
	if eps == 0 {
		eps = 0.05
	}
	dvs := distinct(values)
	if len(dvs) < 3 {
		return nil
	}
	total := float64(len(values))

	exps := make([]expansion, len(dvs))
	for i, dv := range dvs {
		exps[i] = expand(dv.Value)
	}

	// Numeric field models: count-weighted median and MAD (robust
	// statistics per Hellerstein's quantitative-cleaning guidance —
	// mean/σ suffers masking, where the outlier inflates σ enough to hide
	// itself).
	median := make([]float64, dboostNumericFields)
	mad := make([]float64, dboostNumericFields)
	seen := make([]bool, dboostNumericFields)
	for fi := 0; fi < dboostNumericFields; fi++ {
		var xs []float64
		for i, dv := range dvs {
			x := exps[i].numeric[fi]
			if math.IsNaN(x) {
				continue
			}
			for c := 0; c < dv.Count; c++ {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			continue
		}
		seen[fi] = true
		median[fi] = weightedMedian(xs)
		dev := make([]float64, len(xs))
		for i, x := range xs {
			dev[i] = math.Abs(x - median[fi])
		}
		mad[fi] = weightedMedian(dev)
	}

	// Discrete field histograms.
	hist := map[string]float64{}
	for i, dv := range dvs {
		for _, f := range exps[i].discrete {
			hist[f] += float64(dv.Count)
		}
	}

	var out []Prediction
	for i, dv := range dvs {
		fields, deviating := 0, 0
		for fi := 0; fi < dboostNumericFields; fi++ {
			x := exps[i].numeric[fi]
			if math.IsNaN(x) || !seen[fi] {
				continue
			}
			fields++
			scale := 1.4826 * mad[fi]
			if scale < 1e-9 {
				// Constant field: any departure deviates.
				if math.Abs(x-median[fi]) > 1e-9 {
					deviating++
				}
				continue
			}
			if math.Abs(x-median[fi])/scale > 3.5 {
				deviating++
			}
		}
		for _, f := range exps[i].discrete {
			fields++
			if hist[f]/total < eps {
				deviating++
			}
		}
		if fields == 0 {
			continue
		}
		score := float64(deviating) / float64(fields)
		if score >= 1-theta && deviating > 0 {
			out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: clamp01(score)})
		}
	}
	return rank(out)
}
