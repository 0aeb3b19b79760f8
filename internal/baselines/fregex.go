package baselines

import "regexp"

// FRegex is the fixed-regex type detector used by commercial systems
// (Trifacta, Power BI): a built-in list of data types, each recognized by a
// predefined regular expression. When a strong majority of a column's
// values match one type, the non-conforming minority is flagged, with
// confidence equal to the fraction of conforming values.
type FRegex struct {
	// MajorityThreshold is the minimum conforming fraction for a type to
	// be considered the column's type (default 0.6).
	MajorityThreshold float64
}

// builtinTypes mirrors the ~10 predefined data types of Trifacta-style
// systems (Appendix A, Figure 11).
var builtinTypes = []struct {
	name string
	re   *regexp.Regexp
}{
	{"integer", regexp.MustCompile(`^-?\d{1,3}(,\d{3})*$|^-?\d+$`)},
	{"decimal", regexp.MustCompile(`^-?\d{1,3}(,\d{3})*\.\d+$|^-?\d+\.\d+$`)},
	{"percentage", regexp.MustCompile(`^\d+(\.\d+)?%$`)},
	{"currency", regexp.MustCompile(`^[$€£]\s?\d{1,3}(,\d{3})*(\.\d+)?$`)},
	{"date-ymd", regexp.MustCompile(`^\d{4}[-/.]\d{1,2}[-/.]\d{1,2}$`)},
	{"date-dmy", regexp.MustCompile(`^\d{1,2}[-/.]\d{1,2}[-/.]\d{4}$`)},
	{"date-text", regexp.MustCompile(`^(\d{1,2} )?[A-Z][a-z]{2,8}\.? \d{1,2},? \d{4}$|^[A-Z][a-z]{2,8} \d{4}$`)},
	{"time", regexp.MustCompile(`^\d{1,2}:\d{2}(:\d{2})?$`)},
	{"email", regexp.MustCompile(`^[^@\s]+@[^@\s]+\.[^@\s]+$`)},
	{"url", regexp.MustCompile(`^https?://\S+$`)},
	{"ip-address", regexp.MustCompile(`^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}$`)},
	{"phone", regexp.MustCompile(`^(\+\d{1,2}[ .-]?)?(\(\d{3}\)[ .-]?|\d{3}[ .-])\d{3}[ .-]\d{4}$`)},
	{"zip", regexp.MustCompile(`^\d{5}(-\d{4})?$`)},
	{"boolean", regexp.MustCompile(`^(?i:yes|no|true|false|y|n)$`)},
}

// Name implements Detector.
func (*FRegex) Name() string { return "F-Regex" }

// Detect implements Detector.
func (f *FRegex) Detect(values []string) []Prediction {
	thresh := f.MajorityThreshold
	if thresh == 0 {
		thresh = 0.6
	}
	dvs := distinct(values)
	if len(dvs) < 2 {
		return nil
	}
	total := len(values)

	bestType := -1
	bestConform := 0
	for ti := range builtinTypes {
		conform := 0
		for _, dv := range dvs {
			if builtinTypes[ti].re.MatchString(dv.Value) {
				conform += dv.Count
			}
		}
		if conform > bestConform {
			bestConform = conform
			bestType = ti
		}
	}
	if bestType < 0 {
		return nil // column matches no known type: F-Regex is silent
	}
	frac := float64(bestConform) / float64(total)
	if frac < thresh || bestConform == total {
		return nil
	}
	re := builtinTypes[bestType].re
	var out []Prediction
	for _, dv := range dvs {
		if !re.MatchString(dv.Value) {
			out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: frac})
		}
	}
	return rank(out)
}
