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

	"repro/internal/core"
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

// Profile is a column's crude shapes, computed once from its distinct
// table and shared by the suggestions for every value flagged in it.
// Dominance is computed over run-length-stripped patterns: a date column
// with 1- and 2-digit days is one format, not two.
type Profile struct {
	shapes  []shapeSupport    // in order of first occurrence
	members map[string]member // each non-empty value's shape and cells
}

type member struct{ shape, count int }

// shapeSupport is one shape's cells and its first two distinct values.
type shapeSupport struct {
	shape       string
	count       int
	first, next core.Distinct
}

// NewProfile profiles a column from its distinct table (core.Tabulate),
// skipping empty cells.
func NewProfile(table []core.Distinct) *Profile {
	p := &Profile{members: make(map[string]member, len(table))}
	byShape := map[string]int{}
	for _, d := range table {
		if d.Value == "" {
			continue
		}
		s := pattern.Shape(d.Value)
		k, ok := byShape[s]
		if !ok {
			k = len(p.shapes)
			byShape[s] = k
			p.shapes = append(p.shapes, shapeSupport{shape: s, first: d})
		} else if p.shapes[k].next.Count == 0 {
			p.shapes[k].next = d
		}
		p.shapes[k].count += d.Count
		p.members[d.Value] = member{k, d.Count}
	}
	return p
}

// dominant returns the column's dominant shape with every cell holding
// flagged left out. A tie goes to the shape seen first in the column, so
// the same column always gets the same suggestion; when flagged is the
// first value of its shape, that shape is seen first at its next value.
func (p *Profile) dominant(flagged string) (columnProfile, bool) {
	skip, ok := p.members[flagged]
	if !ok {
		skip.shape = -1
	}
	var best shapeSupport
	total := 0
	for k, s := range p.shapes {
		if k == skip.shape {
			s.count -= skip.count
			if s.first.Value == flagged {
				s.first = s.next
			}
		}
		total += s.count
		if s.count > best.count || s.count == best.count && s.count > 0 && s.first.First < best.first.First {
			best = s
		}
	}
	if total == 0 {
		return columnProfile{}, false
	}
	return columnProfile{
		dominantPattern: best.shape,
		share:           float64(best.count) / float64(total),
		sample:          best.first.Value,
	}, true
}

// Suggest proposes a repair for a flagged value given its column. It
// returns false when no conservative repair exists.
func Suggest(column []string, flagged string) (Suggestion, bool) {
	return NewProfile(core.Tabulate(column)).Suggest(flagged)
}

// Suggest proposes a repair for a value flagged in the profiled column.
// It returns false when no conservative repair exists.
func (p *Profile) Suggest(flagged string) (Suggestion, bool) {
	prof, ok := p.dominant(flagged)
	if !ok || flagged == "" {
		return Suggestion{}, false
	}
	return prof.suggest(flagged)
}

// suggest applies the repair rules to flagged in the column's dominant
// format.
func (prof columnProfile) suggest(flagged string) (Suggestion, bool) {
	try := func(proposed, rule string) (Suggestion, bool) {
		if proposed == "" || proposed == flagged || pattern.Shape(proposed) != prof.dominantPattern {
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
