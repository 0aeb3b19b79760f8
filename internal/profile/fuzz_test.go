package profile

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pattern"
)

// FuzzProfileColumn holds Column, which profiles each distinct value once,
// to referenceColumn, the row-at-a-time loop it replaced.
func FuzzProfileColumn(f *testing.F) {
	f.Add("3-2|1-0|4-4||12-3|3-2")
	f.Add("2011-01-02|2012-03-04|2013-05-06|Jan 2011|-")
	f.Add("1,000|250|3.14|abc|250|1,000")
	f.Add("|  | |\t|x|x")
	f.Add("x|xx|xxx|xxxxxxxxxxxxxxxxxxxx|x|é|日本")
	f.Add("")
	f.Fuzz(func(t *testing.T, colSpec string) {
		values := strings.Split(colSpec, "|")
		if got, want := Column(values), referenceColumn(values); !reflect.DeepEqual(got, want) {
			t.Fatalf("Column(%q) =\n%+v\nreference\n%+v", values, got, want)
		}
	})
}

// referenceColumn is Column as a loop over rows, kept as FuzzProfileColumn's
// oracle.
func referenceColumn(values []string) Profile {
	p := Profile{Rows: len(values), MinLen: -1}
	shapes := map[string]*ShapeCount{}
	lengths := map[int]int{}
	distinct := map[string]struct{}{}
	var letters, digits, symbols, totalRunes int
	numeric := 0
	nonEmpty := 0
	for _, v := range values {
		if strings.TrimSpace(v) == "" {
			p.Empty++
			continue
		}
		nonEmpty++
		distinct[v] = struct{}{}
		s := pattern.Shape(v)
		if sc, ok := shapes[s]; ok {
			sc.Count++
		} else {
			shapes[s] = &ShapeCount{Shape: s, Example: v, Count: 1}
		}
		n := len([]rune(v))
		lengths[n]++
		if p.MinLen < 0 || n < p.MinLen {
			p.MinLen = n
		}
		if n > p.MaxLen {
			p.MaxLen = n
		}
		for _, r := range v {
			totalRunes++
			switch pattern.Categorize(r) {
			case pattern.CatUpper, pattern.CatLower:
				letters++
			case pattern.CatDigit:
				digits++
			default:
				symbols++
			}
		}
		if _, err := strconv.ParseFloat(strings.ReplaceAll(v, ",", ""), 64); err == nil {
			numeric++
		}
	}
	p.Distinct = len(distinct)
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
