package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pattern"
)

// TestPartitionClassesShareStatistics checks the claim that lets training
// count one language per partition class (pattern.Representatives): on a
// generated WEB corpus, every other member of a class groups sampled value
// pairs as its representative does, and has the same column, pattern and
// pair counts, the same NPMI on every sampled pair and the same Bytes, the
// size budgeted selection charges. A renderer change that breaks the claim
// (a class name of another length, say) fails here before selection
// silently changes.
func TestPartitionClassesShareStatistics(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 400, 3)
	all := pattern.All()
	b := NewBuilder(all, DefaultSmoothing)
	for _, col := range c.Columns {
		b.AddColumn(col.Values)
	}
	byID := b.Stats()

	// Pairs from one column exercise co-occurrence; pairs across the
	// corpus exercise unseen pattern pairs.
	r := rand.New(rand.NewSource(5))
	var pairs [][2]string
	pick := func() *corpus.Column { return c.Columns[r.Intn(len(c.Columns))] }
	for len(pairs) < 1500 {
		col := pick()
		pairs = append(pairs, [2]string{col.Values[r.Intn(len(col.Values))], col.Values[r.Intn(len(col.Values))]})
		a, o := pick(), pick()
		pairs = append(pairs, [2]string{a.Values[r.Intn(len(a.Values))], o.Values[r.Intn(len(o.Values))]})
	}

	reps := pattern.Representatives(all)
	members := 0
	for _, l := range all {
		var rep pattern.Language
		for _, cand := range reps {
			// Two languages share a class when one represents both.
			if len(pattern.Representatives([]pattern.Language{cand, l})) == 1 {
				rep = cand
				break
			}
		}
		if rep == l {
			continue
		}
		members++
		ls, rs := byID[l.ID], byID[rep.ID]
		if ls.Columns() != rs.Columns() || ls.DistinctPatterns() != rs.DistinctPatterns() ||
			ls.PairStoreEntries() != rs.PairStoreEntries() {
			t.Fatalf("%v: %d columns, %d patterns, %d pairs; representative %v: %d, %d, %d", l,
				ls.Columns(), ls.DistinctPatterns(), ls.PairStoreEntries(),
				rep, rs.Columns(), rs.DistinctPatterns(), rs.PairStoreEntries())
		}
		if ls.Bytes() != rs.Bytes() {
			t.Fatalf("%v takes %d bytes, its representative %v %d", l, ls.Bytes(), rep, rs.Bytes())
		}
		for _, p := range pairs {
			if (l.Generalize(p[0]) == l.Generalize(p[1])) != (rep.Generalize(p[0]) == rep.Generalize(p[1])) {
				t.Fatalf("%v and %v group %q and %q differently", l, rep, p[0], p[1])
			}
			x, y := ls.NPMIValues(p[0], p[1]), rs.NPMIValues(p[0], p[1])
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("NPMI(%q, %q): %v under %v, %v under its representative %v", p[0], p[1], x, l, y, rep)
			}
		}
	}
	if members != len(all)-50 {
		t.Fatalf("checked %d non-representatives, want %d", members, len(all)-50)
	}
}
