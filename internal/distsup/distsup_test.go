package distsup

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/stats"
)

func genCorpus(t *testing.T, n int) *corpus.Corpus {
	t.Helper()
	return corpus.Generate(corpus.WebProfile(), n, 42)
}

func TestGenerateBasic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PositivePairs = 2000
	cfg.NegativePairs = 2000
	d, err := Generate(genCorpus(t, 3000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.CompatColumns < 1000 {
		t.Errorf("|C+| = %d, expected most of a clean corpus", d.CompatColumns)
	}
	if p := d.Positives(); p != 2000 {
		t.Errorf("positives = %d", p)
	}
	if n := d.Negatives(); n < 1500 {
		t.Errorf("negatives = %d", n)
	}
	for _, e := range d.Examples {
		if e.U == "" || e.V == "" {
			t.Fatal("empty value in example")
		}
		if pattern.Crude().FromRuns(e.URuns) != pattern.Crude().Generalize(e.U) {
			t.Fatal("URuns does not encode U")
		}
	}
}

func TestPositivesComeFromSameColumnStatistics(t *testing.T) {
	// Positives drawn from verified-compatible columns must (crudely)
	// look compatible far more often than negatives do.
	cfg := DefaultConfig()
	cfg.PositivePairs = 1000
	cfg.NegativePairs = 1000
	d, err := Generate(genCorpus(t, 3000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := pattern.Crude()
	samePatPos, samePatNeg := 0, 0
	for _, e := range d.Examples {
		same := g.Generalize(e.U) == g.Generalize(e.V)
		if e.Incompatible {
			if same {
				samePatNeg++
			}
		} else if same {
			samePatPos++
		}
	}
	if samePatNeg != 0 {
		t.Errorf("%d negatives have identical crude patterns (pruning failed)", samePatNeg)
	}
	if samePatPos < 300 {
		t.Errorf("only %d/1000 positives share a crude pattern; suspicious sampling", samePatPos)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, DefaultConfig()); err == nil {
		t.Error("nil corpus should error")
	}
	tiny := &corpus.Corpus{Columns: []*corpus.Column{{Values: []string{"a"}}}}
	if _, err := Generate(tiny, DefaultConfig()); err == nil {
		t.Error("one-column corpus should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PositivePairs, cfg.NegativePairs = 500, 500
	c := genCorpus(t, 1500)
	a, err := Generate(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Examples) != len(b.Examples) {
		t.Fatal("length differs")
	}
	for i := range a.Examples {
		if a.Examples[i].U != b.Examples[i].U || a.Examples[i].Incompatible != b.Examples[i].Incompatible {
			t.Fatal("examples differ across identical seeds")
		}
	}
}

// TestPruneThresholdEffect: a stricter (lower) prune threshold rejects
// more candidate negatives than a lax one, and the paper's −0.3 sits
// between them.
func TestPruneThresholdEffect(t *testing.T) {
	c := genCorpus(t, 2000)
	g := pattern.Crude()
	crude := stats.NewLanguageStats(g, 0)
	patterns := make([][]string, len(c.Columns))
	for i, col := range c.Columns {
		vs := col.DistinctValues()
		crude.AddColumn(vs)
		for _, v := range vs {
			patterns[i] = append(patterns[i], g.Generalize(v))
		}
	}
	// Mix the first value of each column into the column after it.
	pruned := func(prune float64) int {
		n := 0
		for i, ps := range patterns {
			if len(ps) > 0 && TooSimilar(crude, ps[0], patterns[(i+1)%len(patterns)], prune) {
				n++
			}
		}
		return n
	}
	strict, paper, lax := pruned(-0.9), pruned(pruneThreshold), pruned(0.9)
	if strict <= lax {
		t.Errorf("stricter prune threshold pruned %d ≤ lax %d", strict, lax)
	}
	if paper > strict || paper < lax {
		t.Errorf("−0.3 pruned %d, want between lax %d and strict %d", paper, lax, strict)
	}
}

func BenchmarkGenerate(b *testing.B) {
	c := corpus.Generate(corpus.WebProfile(), 2000, 42)
	cfg := DefaultConfig()
	cfg.PositivePairs, cfg.NegativePairs = 1000, 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(c, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
