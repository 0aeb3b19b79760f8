package repair

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
)

// referenceProfile is the row-scanning profile the distinct-table Profile
// replaced, kept as the oracle FuzzSuggest holds it to: the dominant crude
// shape of the column's non-empty cells other than flagged, a tie going to
// the shape whose first such cell comes first.
func referenceProfile(column []string, flagged string) (columnProfile, bool) {
	counts := map[string]int{}
	samples := map[string]string{}
	var order []string // patterns in order of first occurrence
	total := 0
	for _, v := range column {
		if v == "" || v == flagged {
			continue
		}
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

// referenceSuggest is Suggest over referenceProfile.
func referenceSuggest(column []string, flagged string) (Suggestion, bool) {
	prof, ok := referenceProfile(column, flagged)
	if !ok || flagged == "" {
		return Suggestion{}, false
	}
	return prof.suggest(flagged)
}

// FuzzSuggest checks that repair never panics, that any suggestion it
// makes is non-empty, differs from the flagged value, and is reasonably
// formed, and that one Profile per column gives every value of it the
// profile and suggestion of the row-scanning reference.
func FuzzSuggest(f *testing.F) {
	f.Add("2011-01-02|2012-05-14|2013-11-30", "2011/06/20")
	f.Add("72 kg|81 kg|64 kg", "154 lbs")
	f.Add("1200|450|98000", "1,000")
	f.Add("", "")
	f.Add("|||", "x")
	f.Add("2011-01-02||2012-05-14||", "2011/06/20")                    // empty cells
	f.Add("  |1200| |450|  ", "1,000")                                 // whitespace-only cells
	f.Add("1,000|1200|1,000|450|1,000|98000", "1,000")                 // the flagged value repeats
	f.Add("A|b|C", "A")                                                // flagged is the first of its shape
	f.Add("2011-06-20|06/21/2011|2011-06-22|06/23/2011", "2011-06-20") // and ties after leaving it out
	f.Fuzz(func(t *testing.T, colSpec, flagged string) {
		column := strings.Split(colSpec, "|")
		column = append(column, flagged)
		s, ok := Suggest(column, flagged)
		if ws, wok := referenceSuggest(column, flagged); s != ws || ok != wok {
			t.Fatalf("Suggest(%q, %q) = %+v, %t; reference %+v, %t", column, flagged, s, ok, ws, wok)
		}
		table := core.Tabulate(column)
		p := NewProfile(table)
		for _, d := range table {
			got, gok := p.dominant(d.Value)
			if want, wok := referenceProfile(column, d.Value); got != want || gok != wok {
				t.Fatalf("column %q leaving out %q: profile %+v, %t; reference %+v, %t", column, d.Value, got, gok, want, wok)
			}
			s, ok := p.Suggest(d.Value)
			if ws, wok := referenceSuggest(column, d.Value); s != ws || ok != wok {
				t.Fatalf("column %q, flagged %q: %+v, %t; reference %+v, %t", column, d.Value, s, ok, ws, wok)
			}
		}
		if !ok {
			return
		}
		if s.Proposed == "" || s.Proposed == flagged {
			t.Fatalf("degenerate suggestion %+v", s)
		}
		if s.Rule == "" || s.Confidence < 0 || s.Confidence > 1 {
			t.Fatalf("malformed suggestion %+v", s)
		}
		if s.Original != flagged {
			t.Fatalf("original mismatch %+v", s)
		}
	})
}
