// Package repair proposes corrections for values flagged by Auto-Detect:
// once a value is known to be incompatible with its column, the dominant
// format of the column often determines what the value *should* have
// looked like. The package detects the column's dominant format and tries
// to re-render the flagged value in it — reformatting dates, normalizing
// thousands separators, reshaping phone numbers, converting units, and
// stripping stray punctuation (the transformation step that self-service
// data-preparation tools attach to detected errors; cf. the OpenRefine
// discussion in Appendix A).
//
// Suggestions are conservative: when no rule produces a value whose crude
// pattern matches the column's dominant pattern, no suggestion is made
// (placeholders like "N/A" have no automatic repair).
package repair

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/pattern"
)

// Suggestion is a proposed replacement for a flagged value.
type Suggestion struct {
	// Original is the flagged value.
	Original string
	// Proposed is the replacement, rendered in the column's dominant
	// format.
	Proposed string
	// Rule names the repair applied ("reformat-date", "strip-noise",
	// "normalize-number", "reformat-phone", "convert-unit").
	Rule string
	// Confidence is the fraction of the column already in the dominant
	// format.
	Confidence float64
}

// dateLayouts are the date formats the reformatter understands, most
// specific first.
var dateLayouts = []string{
	"2006-01-02 15:04",
	"2006-01-02T15:04",
	"2006-01-02",
	"2006/01/02",
	"2006.01.02",
	"01/02/2006",
	"02-01-2006",
	"January 2, 2006",
	"2 Jan 2006",
	"Jan 2006",
	"January 2006",
}

// parseDate tries every known layout.
func parseDate(v string) (time.Time, string, bool) {
	for _, layout := range dateLayouts {
		if t, err := time.Parse(layout, v); err == nil {
			return t, layout, true
		}
	}
	return time.Time{}, "", false
}

var (
	phoneDigits = regexp.MustCompile(`^\+?1?[ .-]?\(?(\d{3})\)?[ .-]?(\d{3})[ .-]?(\d{4})$`)
	numberRe    = regexp.MustCompile(`^-?\d{1,3}(,\d{3})*(\.\d+)?$|^-?\d+(\.\d+)?$`)
	unitRe      = regexp.MustCompile(`^(\d+(?:\.\d+)?) ?(kg|lbs|C|F)$`)
)

// phoneTemplate renders area/exchange/line digits in the shape of a sample
// phone value.
func phoneTemplate(sample string) (func(a, e, l string) string, bool) {
	switch {
	case strings.HasPrefix(sample, "("):
		return func(a, e, l string) string { return fmt.Sprintf("(%s) %s-%s", a, e, l) }, true
	case strings.HasPrefix(sample, "+"):
		return func(a, e, l string) string { return fmt.Sprintf("+1 %s %s %s", a, e, l) }, true
	case strings.Contains(sample, "."):
		return func(a, e, l string) string { return fmt.Sprintf("%s.%s.%s", a, e, l) }, true
	case strings.Contains(sample, "-"):
		return func(a, e, l string) string { return fmt.Sprintf("%s-%s-%s", a, e, l) }, true
	}
	return nil, false
}

// unitConversions maps (from, to) unit pairs to conversion functions.
var unitConversions = map[[2]string]func(float64) float64{
	{"lbs", "kg"}: func(x float64) float64 { return x * 0.45359237 },
	{"kg", "lbs"}: func(x float64) float64 { return x / 0.45359237 },
	{"F", "C"}:    func(x float64) float64 { return (x - 32) * 5 / 9 },
	{"C", "F"}:    func(x float64) float64 { return x*9/5 + 32 },
}

// columnProfile summarizes the dominant format of the clean part of a
// column.
type columnProfile struct {
	// dominantPattern is the most common crude pattern.
	dominantPattern string
	// share is the fraction of (non-flagged, non-empty) values in the
	// dominant pattern.
	share float64
	// sample is a representative value in the dominant pattern.
	sample string
}

// profileColumn computes the dominant crude pattern of the column,
// excluding the flagged value.
func profileColumn(column []string, flagged string) (columnProfile, bool) {
	counts := map[string]int{}
	samples := map[string]string{}
	var order []string // patterns in order of first occurrence
	total := 0
	for _, v := range column {
		if v == "" || v == flagged {
			continue
		}
		// Dominance is computed over run-length-stripped patterns: a date
		// column with 1- and 2-digit days is one format, not two.
		p := pattern.Shape(v)
		counts[p]++
		total++
		if _, ok := samples[p]; !ok {
			samples[p] = v
			order = append(order, p)
		}
	}
	if total == 0 {
		return columnProfile{}, false
	}
	// A tie goes to the pattern seen first in the column, so the same
	// column always gets the same suggestion.
	best, bestN := "", 0
	for _, p := range order {
		if n := counts[p]; n > bestN {
			best, bestN = p, n
		}
	}
	return columnProfile{
		dominantPattern: best,
		share:           float64(bestN) / float64(total),
		sample:          samples[best],
	}, true
}

// matchesDominant reports whether v's crude pattern equals the dominant
// one, or is close enough (same pattern family differing only in digit run
// lengths, e.g. 1- vs 2-digit days).
func matchesDominant(v string, prof columnProfile) bool {
	return pattern.Shape(v) == prof.dominantPattern
}

// Suggest proposes a repair for a flagged value given its column. It
// returns false when no conservative repair exists.
func Suggest(column []string, flagged string) (Suggestion, bool) {
	prof, ok := profileColumn(column, flagged)
	if !ok || flagged == "" {
		return Suggestion{}, false
	}
	try := func(proposed, rule string) (Suggestion, bool) {
		if proposed == "" || proposed == flagged || !matchesDominant(proposed, prof) {
			return Suggestion{}, false
		}
		return Suggestion{
			Original:   flagged,
			Proposed:   proposed,
			Rule:       rule,
			Confidence: prof.share,
		}, true
	}

	// 1. Strip stray noise: surrounding spaces, trailing dot, doubled
	// separators.
	cleaned := strings.TrimSpace(flagged)
	cleaned = strings.TrimSuffix(cleaned, ".")
	cleaned = collapseDoubledSymbols(cleaned)
	if s, ok := try(cleaned, "strip-noise"); ok {
		return s, true
	}

	// 2. Reformat dates: parse with any known layout, render in the
	// dominant sample's layout.
	if t, _, ok := parseDate(strings.TrimSpace(flagged)); ok {
		if _, domLayout, ok2 := parseDate(prof.sample); ok2 {
			if s, ok3 := try(t.Format(domLayout), "reformat-date"); ok3 {
				return s, true
			}
		}
	}

	// 3. Normalize numbers: add or drop thousands separators to match the
	// column.
	if numberRe.MatchString(strings.TrimSpace(flagged)) {
		raw := strings.ReplaceAll(strings.TrimSpace(flagged), ",", "")
		if strings.Contains(prof.sample, ",") && !strings.Contains(flagged, ",") {
			// Add separators. The number of comma groups varies with the
			// magnitude, so this rule validates by form, not by pattern.
			if x, err := strconv.ParseFloat(raw, 64); err == nil && x == math.Trunc(x) {
				if proposed := commaSeparate(raw); proposed != flagged && numberRe.MatchString(proposed) {
					return Suggestion{
						Original: flagged, Proposed: proposed,
						Rule: "normalize-number", Confidence: prof.share,
					}, true
				}
			}
		}
		if s, ok := try(raw, "normalize-number"); ok {
			return s, true
		}
	}

	// 4. Reformat phone numbers into the dominant shape.
	if m := phoneDigits.FindStringSubmatch(strings.TrimSpace(flagged)); m != nil {
		if render, ok := phoneTemplate(prof.sample); ok {
			if s, ok2 := try(render(m[1], m[2], m[3]), "reformat-phone"); ok2 {
				return s, true
			}
		}
	}

	// 5. Convert units (lbs↔kg, F↔C) into the column's unit.
	if m := unitRe.FindStringSubmatch(flagged); m != nil {
		if dm := unitRe.FindStringSubmatch(prof.sample); dm != nil && dm[2] != m[2] {
			if conv, ok := unitConversions[[2]string{m[2], dm[2]}]; ok {
				x, err := strconv.ParseFloat(m[1], 64)
				if err == nil {
					rendered := renderLike(conv(x), dm[1]) + " " + dm[2]
					if s, ok2 := try(rendered, "convert-unit"); ok2 {
						return s, true
					}
				}
			}
		}
	}

	return Suggestion{}, false
}

// collapseDoubledSymbols turns "1,,000" into "1,000" and "a  b" into "a b".
func collapseDoubledSymbols(v string) string {
	var b strings.Builder
	var prev rune = -1
	for _, r := range v {
		if r == prev && pattern.Categorize(r) == pattern.CatSymbol {
			continue
		}
		b.WriteRune(r)
		prev = r
	}
	return b.String()
}

// commaSeparate inserts thousands separators into a plain integer string.
func commaSeparate(s string) string {
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead == 0 {
		lead = 3
	}
	if lead > len(s) {
		lead = len(s)
	}
	b.WriteString(s[:lead])
	for i := lead; i < len(s); i += 3 {
		b.WriteByte(',')
		b.WriteString(s[i : i+3])
	}
	if neg {
		return "-" + b.String()
	}
	return b.String()
}

// renderLike formats x with the same decimal precision as the sample
// number string.
func renderLike(x float64, sample string) string {
	if i := strings.IndexByte(sample, '.'); i >= 0 {
		return strconv.FormatFloat(x, 'f', len(sample)-i-1, 64)
	}
	return strconv.Itoa(int(math.Round(x)))
}
