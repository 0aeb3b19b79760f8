package stats

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pattern"
)

// randomColumns fabricates columns mixing a handful of value formats, so
// many distinct patterns and co-occurrences arise.
func randomColumns(r *rand.Rand, n int) [][]string {
	gen := []func() string{
		func() string { return fmt.Sprintf("%d", r.Intn(10000)) },
		func() string { return fmt.Sprintf("%d,%03d", 1+r.Intn(99), r.Intn(1000)) },
		func() string { return fmt.Sprintf("%04d-%02d-%02d", 1990+r.Intn(40), 1+r.Intn(12), 1+r.Intn(28)) },
		func() string { return fmt.Sprintf("%d.%02d", r.Intn(100), r.Intn(100)) },
		func() string { return fmt.Sprintf("%02d/%02d/%04d", 1+r.Intn(12), 1+r.Intn(28), 1990+r.Intn(40)) },
		func() string { return fmt.Sprintf("item-%c%d", 'A'+rune(r.Intn(26)), r.Intn(100)) },
	}
	cols := make([][]string, n)
	for i := range cols {
		rows := 2 + r.Intn(12)
		col := make([]string, rows)
		// Each column mixes at most two formats, like real tables.
		f1, f2 := gen[r.Intn(len(gen))], gen[r.Intn(len(gen))]
		for j := range col {
			if r.Intn(3) == 0 {
				col[j] = f2()
			} else {
				col[j] = f1()
			}
		}
		cols[i] = col
	}
	return cols
}

func statsEqual(t *testing.T, a, b *LanguageStats) {
	t.Helper()
	if a.Columns() != b.Columns() {
		t.Fatalf("column counts differ: %d != %d", a.Columns(), b.Columns())
	}
	if a.DistinctPatterns() != b.DistinctPatterns() {
		t.Fatalf("distinct patterns differ: %d != %d", a.DistinctPatterns(), b.DistinctPatterns())
	}
	for p, id := range a.byString {
		bid, ok := b.byString[p]
		if !ok {
			t.Fatalf("pattern %q missing from other side", p)
		}
		if a.occ[id] != b.occ[bid] {
			t.Fatalf("pattern %q occurrence %d != %d", p, a.occ[id], b.occ[bid])
		}
	}
	// Pair counts compared through the public query path.
	for p1 := range a.byString {
		for p2 := range a.byString {
			if got, want := a.PairCount(p1, p2), b.PairCount(p1, p2); got != want {
				t.Fatalf("pair (%q,%q): %d != %d", p1, p2, got, want)
			}
		}
	}
}

// TestMergeEquivalentToSequential is the shard-then-merge property test:
// for random splits of a column stream, per-shard counting plus Merge must
// reproduce the sequential single-shard statistics exactly.
func TestMergeEquivalentToSequential(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		cols := randomColumns(r, 120)
		lang := pattern.L2()

		seq := NewLanguageStats(lang, DefaultSmoothing)
		for _, c := range cols {
			seq.AddColumn(c)
		}

		shards := 2 + r.Intn(5)
		parts := make([]*LanguageStats, shards)
		for i := range parts {
			parts[i] = NewLanguageStats(lang, DefaultSmoothing)
		}
		for _, c := range cols {
			parts[r.Intn(shards)].AddColumn(c)
		}
		merged := parts[0]
		for _, p := range parts[1:] {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		statsEqual(t, merged, seq)

		// NPMI must agree on every pattern pair, since it is a pure function
		// of the counts.
		for p1 := range seq.byString {
			for p2 := range seq.byString {
				if got, want := merged.NPMI(p1, p2), seq.NPMI(p1, p2); got != want {
					t.Fatalf("NPMI(%q,%q): %v != %v", p1, p2, got, want)
				}
			}
		}
	}
}

// TestCanonicalizeMakesSerializationDeterministic: two different shardings
// of the same columns serialize identically after Canonicalize.
func TestCanonicalizeMakesSerializationDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cols := randomColumns(r, 100)
	lang := pattern.L1()

	build := func(order []int, shards int) *LanguageStats {
		parts := make([]*LanguageStats, shards)
		for i := range parts {
			parts[i] = NewLanguageStats(lang, DefaultSmoothing)
		}
		for i, idx := range order {
			parts[i%shards].AddColumn(cols[idx])
		}
		m := parts[0]
		for _, p := range parts[1:] {
			if err := m.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Canonicalize(); err != nil {
			t.Fatal(err)
		}
		return m
	}

	fwd := make([]int, len(cols))
	rev := make([]int, len(cols))
	for i := range cols {
		fwd[i] = i
		rev[i] = len(cols) - 1 - i
	}
	a := build(fwd, 3)
	b := build(rev, 7)

	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("canonicalized statistics serialize differently under different shardings")
	}
}

func TestMergeValidation(t *testing.T) {
	a := NewLanguageStats(pattern.L1(), DefaultSmoothing)
	b := NewLanguageStats(pattern.L2(), DefaultSmoothing)
	if err := a.Merge(b); err == nil {
		t.Fatal("expected language mismatch error")
	}
	if err := a.Merge(nil); err == nil {
		t.Fatal("expected nil merge error")
	}
	c := NewLanguageStats(pattern.L1(), DefaultSmoothing)
	c.AddColumn([]string{"1", "2", "a"})
	if err := c.CompressToSketch(0.5, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(c); err == nil {
		t.Fatal("expected sketch-backed source rejection")
	}
	if err := c.Merge(a); err == nil {
		t.Fatal("expected sketch-backed target rejection")
	}
	if err := c.Canonicalize(); err == nil {
		t.Fatal("expected canonicalize rejection on sketch-backed store")
	}
}

func TestBuilderMergeMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cols := randomColumns(r, 80)
	langs := []pattern.Language{pattern.L1(), pattern.L2(), pattern.Crude()}

	seq := NewBuilder(langs, DefaultSmoothing)
	for _, c := range cols {
		seq.AddColumn(c)
	}
	w1 := NewBuilder(langs, DefaultSmoothing)
	w2 := NewBuilder(langs, DefaultSmoothing)
	for i, c := range cols {
		if i%2 == 0 {
			w1.AddColumn(c)
		} else {
			w2.AddColumn(c)
		}
	}
	if err := MergeAll(w1.Stats(), 3, w2.Stats()); err != nil {
		t.Fatal(err)
	}
	for i := range langs {
		statsEqual(t, w1.Stats()[i], seq.Stats()[i])
	}

	short := NewBuilder(langs[:1], DefaultSmoothing)
	if err := MergeAll(w1.Stats(), 3, short.Stats()); err == nil {
		t.Fatal("expected language-set mismatch error")
	}
}
