// Package profile computes single-column profiles: the shape, length and
// character-class distributions that commercial data-preparation tools
// surface as visual histograms next to each column (Appendix A, Figures
// 13/15 — Trifacta's and OpenRefine's primary quality-inspection UI).
// Auto-Detect's verdicts tell a user *that* a value is incompatible; a
// profile shows the column context that makes it so.
package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/pattern"
)

// ShapeCount is one structural pattern with its support.
type ShapeCount struct {
	// Shape is the run-length-collapsed crude pattern (e.g. `\D-\D`).
	Shape string
	// Example is a representative raw value.
	Example string
	// Count is the number of cells with this shape.
	Count int
}

// Bucket is one histogram bucket.
type Bucket struct {
	// Label describes the bucket.
	Label string
	// Count is the bucket's size.
	Count int
}

// Profile summarizes one column.
type Profile struct {
	// Rows is the number of cells, Empty the number of blank cells.
	Rows, Empty int
	// Distinct is the number of distinct non-empty values.
	Distinct int
	// Shapes lists structural patterns by descending support.
	Shapes []ShapeCount
	// LengthHistogram buckets value lengths.
	LengthHistogram []Bucket
	// ClassMix is the aggregate character-class composition in percent:
	// letters, digits, symbols.
	LetterPct, DigitPct, SymbolPct float64
	// NumericShare is the fraction of non-empty cells that parse as
	// numbers (after comma removal).
	NumericShare float64
	// MinLen and MaxLen bound the value lengths.
	MinLen, MaxLen int
}

// Column profiles the values of one column. Each distinct value is shaped,
// measured and parsed once and weighted by its count.
func Column(values []string) Profile {
	p := Profile{Rows: len(values), MinLen: -1}
	shapes := map[string]*ShapeCount{}
	lengths := map[int]int{}
	var letters, digits, symbols, totalRunes int
	numeric := 0
	nonEmpty := 0
	for _, d := range core.Tabulate(values) {
		v, c := d.Value, d.Count
		if strings.TrimSpace(v) == "" {
			p.Empty += c
			continue
		}
		nonEmpty += c
		p.Distinct++
		s := pattern.Shape(v)
		if sc, ok := shapes[s]; ok {
			sc.Count += c
		} else {
			shapes[s] = &ShapeCount{Shape: s, Example: v, Count: c}
		}
		n := len([]rune(v))
		lengths[n] += c
		if p.MinLen < 0 || n < p.MinLen {
			p.MinLen = n
		}
		if n > p.MaxLen {
			p.MaxLen = n
		}
		for _, r := range v {
			totalRunes += c
			switch pattern.Categorize(r) {
			case pattern.CatUpper, pattern.CatLower:
				letters += c
			case pattern.CatDigit:
				digits += c
			default:
				symbols += c
			}
		}
		if _, err := strconv.ParseFloat(strings.ReplaceAll(v, ",", ""), 64); err == nil {
			numeric += c
		}
	}
	for _, sc := range shapes {
		p.Shapes = append(p.Shapes, *sc)
	}
	sort.Slice(p.Shapes, func(i, j int) bool {
		if p.Shapes[i].Count != p.Shapes[j].Count {
			return p.Shapes[i].Count > p.Shapes[j].Count
		}
		return p.Shapes[i].Shape < p.Shapes[j].Shape
	})
	// Length histogram: up to 8 buckets spanning [MinLen, MaxLen].
	if nonEmpty > 0 {
		span := p.MaxLen - p.MinLen + 1
		width := (span + 7) / 8
		if width < 1 {
			width = 1
		}
		counts := map[int]int{}
		for l, c := range lengths {
			counts[(l-p.MinLen)/width] += c
		}
		var idxs []int
		for b := range counts {
			idxs = append(idxs, b)
		}
		sort.Ints(idxs)
		for _, b := range idxs {
			lo := p.MinLen + b*width
			hi := lo + width - 1
			label := strconv.Itoa(lo)
			if hi > lo {
				label = fmt.Sprintf("%d-%d", lo, hi)
			}
			p.LengthHistogram = append(p.LengthHistogram, Bucket{Label: label, Count: counts[b]})
		}
		if totalRunes > 0 {
			p.LetterPct = 100 * float64(letters) / float64(totalRunes)
			p.DigitPct = 100 * float64(digits) / float64(totalRunes)
			p.SymbolPct = 100 * float64(symbols) / float64(totalRunes)
		}
		p.NumericShare = float64(numeric) / float64(nonEmpty)
	}
	return p
}

// String renders the profile as fixed-width text.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows %d (empty %d), distinct %d, lengths %d-%d\n",
		p.Rows, p.Empty, p.Distinct, p.MinLen, p.MaxLen)
	fmt.Fprintf(&b, "chars: %.0f%% letters, %.0f%% digits, %.0f%% symbols; %.0f%% numeric cells\n",
		p.LetterPct, p.DigitPct, p.SymbolPct, p.NumericShare*100)
	b.WriteString("shapes:\n")
	for i, s := range p.Shapes {
		if i == 6 {
			fmt.Fprintf(&b, "  ... %d more\n", len(p.Shapes)-i)
			break
		}
		fmt.Fprintf(&b, "  %-24s %5d  e.g. %q\n", s.Shape, s.Count, s.Example)
	}
	b.WriteString("lengths:\n")
	maxCount := 0
	for _, bk := range p.LengthHistogram {
		if bk.Count > maxCount {
			maxCount = bk.Count
		}
	}
	for _, bk := range p.LengthHistogram {
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", 1+bk.Count*30/maxCount)
		}
		fmt.Fprintf(&b, "  %-8s %5d %s\n", bk.Label, bk.Count, bar)
	}
	return b.String()
}
