package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
)

// buildDateStats feeds a small corpus in which ISO dates and slash dates
// never co-occur, but ISO dates co-occur with years.
func buildDateStats(t *testing.T, f float64) *LanguageStats {
	t.Helper()
	ls := NewLanguageStats(pattern.Crude(), f)
	for i := 0; i < 50; i++ {
		ls.AddColumn([]string{"2011-01-01", "2012-03-04", "1999-12-31"})
		ls.AddColumn([]string{"2011/01/01", "2012/03/04"})
		ls.AddColumn([]string{"2011-01-01", "1999", "2005"})
	}
	return ls
}

func TestPatternAndPairCounts(t *testing.T) {
	ls := buildDateStats(t, 0)
	iso := pattern.Crude().Generalize("2011-01-01")
	year := pattern.Crude().Generalize("1999")
	if got := ls.PatternCount(iso); got != 100 {
		t.Errorf("c(iso) = %d, want 100", got)
	}
	if got := ls.PatternCount(year); got != 50 {
		t.Errorf("c(year) = %d, want 50", got)
	}
	if got := ls.PairCount(iso, year); got != 50 {
		t.Errorf("c(iso,year) = %d, want 50", got)
	}
	if got := ls.PairCount(year, iso); got != 50 {
		t.Error("PairCount must be symmetric")
	}
	if ls.Columns() != 150 {
		t.Errorf("N = %d", ls.Columns())
	}
}

func TestNPMIIdenticalPatternsIsOne(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	if got := ls.NPMIValues("2011-01-01", "2018-12-31"); got != 1 {
		t.Errorf("same-pattern NPMI = %v, want 1", got)
	}
}

func TestNPMISeparatesCompatibleFromIncompatible(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	compat := ls.NPMIValues("2011-01-01", "2005")         // co-occur often
	incompat := ls.NPMIValues("2011-01-01", "2011/01/01") // never co-occur
	if compat <= 0 {
		t.Errorf("compatible pair NPMI = %v, want > 0", compat)
	}
	if incompat >= 0 {
		t.Errorf("incompatible pair NPMI = %v, want < 0", incompat)
	}
	if compat <= incompat {
		t.Error("compatible pair must score above incompatible pair")
	}
}

func TestNPMIUnsmoothedNeverCooccurIsMinusOne(t *testing.T) {
	ls := buildDateStats(t, 0)
	if got := ls.NPMIValues("2011-01-01", "2011/01/01"); got != -1 {
		t.Errorf("unsmoothed never-co-occurring NPMI = %v, want -1", got)
	}
}

func TestSmoothingSoftensZeroCounts(t *testing.T) {
	raw := buildDateStats(t, 0)
	sm := buildDateStats(t, 0.1)
	// Smoothing must strictly raise the score of a never-co-occurring pair
	// of frequent patterns above the hard -1.
	a, b := "2011-01-01", "2011/01/01"
	if raw.NPMIValues(a, b) != -1 {
		t.Fatal("precondition failed")
	}
	if got := sm.NPMIValues(a, b); got <= -1 || got >= 0 {
		t.Errorf("smoothed NPMI = %v, want in (-1, 0)", got)
	}
}

func TestNPMIExampleFromPaper(t *testing.T) {
	// Example 1: |C| = 100M, c(v1)=1M, c(v2)=2M, c(v1,v2)=500K → NPMI 0.60.
	// We reproduce the arithmetic at small scale through the public API by
	// checking the closed form directly.
	n, c1, c2, c12 := 100e6, 1e6, 2e6, 5e5
	pmi := math.Log((c12 / n) / ((c1 / n) * (c2 / n)))
	npmi := pmi / (-math.Log(c12 / n))
	if math.Abs(npmi-0.60) > 0.02 {
		t.Errorf("closed-form NPMI = %.3f, want ≈ 0.60", npmi)
	}
}

// TestSmoothedNPMIBranches pins SmoothedNPMI to values taken from the
// per-package formulas it replaced, one row per branch. The ±1 branches are
// exact; interior values allow for fused multiply-add on other platforms.
func TestSmoothedNPMIBranches(t *testing.T) {
	for _, c := range []struct {
		name              string
		c1, c2, c12, n, f float64
		want              float64
	}{
		{"unseen item: smoothed c12 is 0", 0, 5, 0, 100, 0.1, -1},
		{"unsmoothed, never co-occur", 10, 20, 0, 100, 0, -1},
		{"p12 = 1", 100, 100, 100, 100, 0, 1},
		{"clamped above", 1, 1, 5, 10, 0, 1},
		{"clamped below", 20, 20, 1, 10, 0, -1},
		{"independent", 10, 20, 2, 100, 0.1, -5.675953454694216e-17},
		{"smoothed, never co-occur", 30, 40, 0, 1000, 0.01, -0.40643642857067447},
		{"co-occur", 50, 60, 45, 200, 0.1, 0.6597385081457512},
	} {
		got := SmoothedNPMI(c.c1, c.c2, c.c12, c.n, c.f)
		if math.Abs(c.want) == 1 && got != c.want || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: SmoothedNPMI(%v, %v, %v, %v, %v) = %v, want %v",
				c.name, c.c1, c.c2, c.c12, c.n, c.f, got, c.want)
		}
	}
}

func TestNPMIUnknownPatterns(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	// Both unseen and distinct: no evidence of co-occurrence → -1 (the
	// sensitivity/false-positive behaviour the paper ascribes to sparse
	// languages).
	if got := ls.NPMI(`\Znope`, `\Zother`); got != -1 {
		t.Errorf("unseen distinct patterns NPMI = %v, want -1", got)
	}
	// Identical unseen patterns remain compatible.
	if got := ls.NPMI(`\Znope`, `\Znope`); got != 1 {
		t.Errorf("identical unseen patterns NPMI = %v, want 1", got)
	}
}

func TestEmptyStatsNeutral(t *testing.T) {
	ls := NewLanguageStats(pattern.Crude(), 0.1)
	if got := ls.NPMI("a", "b"); got != 0 {
		t.Errorf("empty stats NPMI = %v, want 0", got)
	}
}

// Property: NPMI is symmetric and bounded in [-1, 1].
func TestNPMISymmetricBounded(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	f := func(a, b string) bool {
		x := ls.NPMIValues(a, b)
		y := ls.NPMIValues(b, a)
		return x == y && x >= -1 && x <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMapPairStore(t *testing.T) {
	s := NewMapPairStore()
	s.Add(3, 7, 2)
	s.Add(7, 3, 1)
	if got := s.Get(3, 7); got != 3 {
		t.Errorf("Get(3,7) = %d, want 3 (unordered)", got)
	}
	if s.Entries() != 1 {
		t.Errorf("Entries = %d", s.Entries())
	}
	if s.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
}

func TestPairKeyUnordered(t *testing.T) {
	f := func(a, b uint32) bool { return PairKey(a, b) == PairKey(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if PairKey(1, 2) == PairKey(1, 3) {
		t.Error("distinct pairs must have distinct keys")
	}
}

func TestSketchPairStoreAgreesOnHeavyPairs(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	iso := pattern.Crude().Generalize("2011-01-01")
	year := pattern.Crude().Generalize("1999")
	before := ls.PairCount(iso, year)
	sk, err := ls.SketchCopy(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	after := sk.PairCount(iso, year)
	if after < before {
		t.Errorf("sketch under-counted: %d < %d", after, before)
	}
	// Clamped by marginals, so it cannot exceed min(c1,c2) either.
	if after > 50 {
		t.Errorf("clamp failed: %d > 50", after)
	}
	if _, err := sk.SketchCopy(0.5, 4); err == nil {
		t.Error("double compression should error")
	}
}

func TestCompressPairStoreValidation(t *testing.T) {
	if _, err := CompressPairStore(NewMapPairStore(), 0, 4); err == nil {
		t.Error("ratio 0 should error")
	}
	if _, err := CompressPairStore(NewMapPairStore(), 1.5, 4); err == nil {
		t.Error("ratio > 1 should error")
	}
	if _, err := NewSketchPairStore(0, 4); err == nil {
		t.Error("zero width should error")
	}
	s, err := NewSketchPairStore(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 256*4*4 || s.Entries() != -1 {
		t.Errorf("sketch store Bytes = %d, Entries = %d", s.Bytes(), s.Entries())
	}
}

func TestLanguageStatsSerialization(t *testing.T) {
	ls := buildDateStats(t, 0.2)
	data, err := ls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back LanguageStats
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Columns() != ls.Columns() || back.Smoothing() != ls.Smoothing() {
		t.Fatal("header mismatch")
	}
	if back.Language() != ls.Language() {
		t.Fatal("language mismatch")
	}
	pairs := [][2]string{
		{"2011-01-01", "2005"},
		{"2011-01-01", "2011/01/01"},
		{"2011-01-01", "2018-12-31"},
	}
	for _, p := range pairs {
		if a, b := ls.NPMIValues(p[0], p[1]), back.NPMIValues(p[0], p[1]); a != b {
			t.Errorf("NPMI(%q,%q) changed after round trip: %v vs %v", p[0], p[1], a, b)
		}
	}
}

func TestSerializationRejectsCorrupt(t *testing.T) {
	var ls LanguageStats
	if err := ls.UnmarshalBinary(nil); err == nil {
		t.Error("nil should error")
	}
	good := buildDateStats(t, 0.1)
	data, _ := good.MarshalBinary()
	if err := ls.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Error("truncated should error")
	}
}

// TestUnmarshalRejectsBadPairKeys: every pair key must name two distinct
// patterns of the table, in strictly ascending key order. A key past the
// table would make Merge index out of range; a repeated key would collapse
// silently in the map.
func TestUnmarshalRejectsBadPairKeys(t *testing.T) {
	ls := NewLanguageStats(pattern.L1(), DefaultSmoothing)
	ls.AddColumn([]string{"2011-06-20", "abc", "x1"}) // keys (0,1), (0,2), (1,2)
	blob, err := ls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := (&LanguageStats{}).UnmarshalBinary(blob); err != nil {
		t.Fatalf("valid blob: %v", err)
	}
	// The last pair entry closes the blob: a u64 key, then a u32 count.
	last := len(blob) - 12
	for name, key := range map[string]uint64{
		"unknown pattern": PairKey(7, 9000),
		"self pair":       PairKey(1, 1),
		"duplicate key":   PairKey(0, 2),
		"descending key":  PairKey(0, 1),
	} {
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(bad[last:], key)
		if err := (&LanguageStats{}).UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestBuilderMatchesDirectBuild(t *testing.T) {
	langs := []pattern.Language{pattern.L1(), pattern.Crude(), pattern.Crude()}
	b := NewBuilder(langs, 0.1)
	direct := make([]*LanguageStats, len(langs))
	for i, l := range langs {
		direct[i] = NewLanguageStats(l, 0.1)
	}
	cols := [][]string{
		{"2011-01-01", "2012-03-04", "2012-03-04"}, // dup value: counted once
		{"1,000", "100", "5"},
		{"a@b.com", "c@d.org"},
	}
	for _, c := range cols {
		b.AddColumn(c)
		for _, d := range direct {
			d.AddColumn(dedupe(c))
		}
	}
	for i := range langs {
		got, want := b.Stats()[i], direct[i]
		if got.Columns() != want.Columns() || got.DistinctPatterns() != want.DistinctPatterns() {
			t.Errorf("lang %v: builder diverges from direct build", langs[i])
		}
		if a, c := got.NPMIValues("1,000", "100"), want.NPMIValues("1,000", "100"); a != c {
			t.Errorf("lang %v: NPMI diverges: %v vs %v", langs[i], a, c)
		}
	}
}

func dedupe(vs []string) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, v := range vs {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

func TestPairNPMIDistributionSorted(t *testing.T) {
	ls := buildDateStats(t, 0.1)
	d := ls.PairNPMIDistribution()
	if len(d) == 0 {
		t.Fatal("empty distribution")
	}
	for i := 1; i < len(d); i++ {
		if d[i] < d[i-1] {
			t.Fatal("distribution not sorted")
		}
	}
}

func TestBytesGrowsWithData(t *testing.T) {
	small := NewLanguageStats(pattern.Crude(), 0.1)
	small.AddColumn([]string{"1", "2"})
	big := buildDateStats(t, 0.1)
	if big.Bytes() <= small.Bytes() {
		t.Error("larger stats should report more bytes")
	}
}

func BenchmarkAddColumn(b *testing.B) {
	ls := NewLanguageStats(pattern.Crude(), 0.1)
	col := []string{"2011-01-01", "2012-03-04", "1999-12-31", "1999", "1,000", "ITF $50.000"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ls.AddColumn(col)
	}
}

func BenchmarkNPMI(b *testing.B) {
	ls := NewLanguageStats(pattern.Crude(), 0.1)
	for i := 0; i < 1000; i++ {
		ls.AddColumn([]string{"2011-01-01", "1999", "1,000"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ls.NPMIValues("2011-01-01", "1,000")
	}
}
