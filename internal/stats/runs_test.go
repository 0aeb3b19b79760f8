package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pattern"
)

// TestRunsQueriesEqualStringQueries: the runs queries, which render into
// stack buffers, answer exactly as the string queries over rendered
// patterns, on corpus values, mutated unseen values and values whose
// patterns are longer than the stack buffer.
func TestRunsQueriesEqualStringQueries(t *testing.T) {
	langs := []pattern.Language{
		pattern.Leaf(), pattern.L1(), pattern.Crude(),
		// Two representatives a trained model serves.
		pattern.Find(pattern.TokenAny, pattern.TokenAny, pattern.TokenDigit, pattern.TokenAny),
		pattern.Find(pattern.TokenUpper, pattern.TokenAny, pattern.TokenAny, pattern.TokenLeaf),
	}
	long := func(unit string) string { return strings.Repeat(unit, 1+2*patternBuf/len(unit)) }
	cols := [][]string{
		{long("ab-"), long("ab-") + "x", long("Q7.")},
		{long("ab-"), long("Q7.")},
	}
	for _, c := range corpus.Generate(corpus.WebProfile(), 300, 9).Columns {
		cols = append(cols, c.Values)
	}
	b := NewBuilder(langs, DefaultSmoothing)
	for _, c := range cols {
		b.AddColumn(c)
	}

	r := rand.New(rand.NewSource(4))
	value := func() (string, []string) {
		c := cols[r.Intn(len(cols))]
		return c[r.Intn(len(c))], c
	}
	mutate := func(v string) string {
		switch i := r.Intn(len(v) + 1); r.Intn(3) {
		case 0:
			return v[:i] + "/" + v[i:]
		case 1:
			return v[:i] + "Zz9" + v[i:]
		default:
			return v + long("#")
		}
	}
	type pair struct {
		u, v string
		same bool
	}
	var pairs []pair
	for len(pairs) < 3000 {
		u, c := value()
		v := c[r.Intn(len(c))]
		w, _ := value()
		pairs = append(pairs, pair{u, v, true}, pair{u, w, false}, pair{mutate(u), v, false}, pair{u, mutate(w), false})
	}

	for _, ls := range b.Stats() {
		l := ls.Language()
		n := float64(ls.Columns())
		for _, p := range pairs {
			ru, rv := pattern.Encode(p.u), pattern.Encode(p.v)
			pu, pv := l.Generalize(p.u), l.Generalize(p.v)
			if got, want := ls.NPMIRuns(ru, rv), ls.NPMI(pu, pv); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v: NPMIRuns(%q, %q) = %v, NPMI over patterns %v", l, p.u, p.v, got, want)
			}
			want := 1.0
			if pu != pv {
				c1 := max(float64(ls.PatternCount(pu))-1, 0)
				c2 := max(float64(ls.PatternCount(pv))-1, 0)
				c12 := float64(ls.PairCount(pu, pv))
				if p.same {
					c12--
				}
				want = SmoothedNPMI(c1, c2, max(min(c12, c1, c2), 0), n, ls.Smoothing())
			}
			if got := ls.NPMIRunsLOO(ru, rv, p.same); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v: NPMIRunsLOO(%q, %q, %v) = %v, leave-one-out over counts %v", l, p.u, p.v, p.same, got, want)
			}
		}
	}

	ls := b.Stats()[2]
	ru, rv := pattern.Encode("2011-01-01"), pattern.Encode("1,000")
	if n := testing.AllocsPerRun(100, func() { ls.NPMIRuns(ru, rv) }); n != 0 {
		t.Errorf("NPMIRuns allocates %v times per call", n)
	}
}
