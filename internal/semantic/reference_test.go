package semantic_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/semantic"
	"repro/internal/stats"
)

// reference is the value-level model as a private two-pass count over the
// corpus, the way semantic.Train built it before the model became pruned
// Leaf statistics: pass 1 finds the values in at least MinSupport columns,
// pass 2 counts their occurrences and pairs up the first 64 supported
// distinct values of each column.
type reference struct {
	cfg    semantic.Config
	n      uint64
	ids    map[string]uint32
	values []string
	occ    []uint32
	pairs  map[uint64]uint32
}

func referenceTrain(cols []*corpus.Column, cfg semantic.Config) *reference {
	support := map[string]int{}
	for _, col := range cols {
		for _, v := range col.DistinctValues() {
			if len(v) <= cfg.MaxValueLength {
				support[v]++
			}
		}
	}
	m := &reference{cfg: cfg, ids: map[string]uint32{}, pairs: map[uint64]uint32{}}
	for v, s := range support {
		if s >= cfg.MinSupport {
			m.ids[v] = uint32(len(m.values))
			m.values = append(m.values, v)
			m.occ = append(m.occ, 0)
		}
	}
	for _, col := range cols {
		m.n++
		var ids []uint32
		for _, v := range col.DistinctValues() {
			if id, ok := m.ids[v]; ok {
				ids = append(ids, id)
				m.occ[id]++
			}
		}
		if len(ids) > 64 {
			ids = ids[:64]
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				m.pairs[stats.PairKey(ids[i], ids[j])]++
			}
		}
	}
	return m
}

func (m *reference) npmi(id1, id2 uint32) float64 {
	c12 := float64(m.pairs[stats.PairKey(id1, id2)])
	return stats.SmoothedNPMI(float64(m.occ[id1]), float64(m.occ[id2]), c12, float64(m.n), m.cfg.Smoothing)
}

func (m *reference) detectColumn(values []string) []core.Finding {
	var distinct []core.Distinct
	var ids []uint32
	for _, d := range core.Tabulate(values) {
		if id, ok := m.ids[d.Value]; ok {
			distinct = append(distinct, d)
			ids = append(ids, id)
		}
	}
	if len(distinct) < 3 {
		return nil
	}
	t := m.cfg.Threshold
	return core.Attribute(distinct, func(i, j int) (float64, bool) {
		s := m.npmi(ids[i], ids[j])
		if s > t {
			return 0, false
		}
		return min((t-s)/(t+1), 1), true
	})
}

// pipelineValueModel is the value-level model of a two-worker pipeline
// build over cols, counting Leaf among a small candidate space.
func pipelineValueModel(t *testing.T, cols []*corpus.Column) *semantic.Model {
	t.Helper()
	res, err := pipeline.Run(context.Background(), pipeline.NewSliceSource(cols), pipeline.Options{
		Workers: 2,
		Train: core.TrainConfig{
			Languages: []pattern.Language{pattern.Leaf(), pattern.Crude(), pattern.Root()},
			DistSup:   distsup.Config{PositivePairs: 300, NegativePairs: 300, Seed: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Semantic == nil {
		t.Fatal("a build counting Leaf returned no value model")
	}
	return res.Semantic
}

// statesColumn is a column of US states with a city slipped in.
var statesColumn = []string{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"}

// TestValueModelMatchesReference: on generated corpora of every profile and
// on the WEB + Pub-XLS mix at 240 and 700 columns, the value model of a
// pipeline build and of Train keep the reference's supported values, score
// every supported pair with bit-identical NPMI, and flag the same findings
// on a panel of corpus columns, spliced columns and states-plus-Seattle.
func TestValueModelMatchesReference(t *testing.T) {
	mix := func(n int, seed int64) []*corpus.Column {
		web := corpus.Generate(corpus.WebProfile(), n/2, seed)
		pub := corpus.Generate(corpus.PubXLSProfile(), n-n/2, seed+1)
		return append(web.Columns, pub.Columns...)
	}
	corpora := []struct {
		name string
		cols []*corpus.Column
	}{
		{"web", corpus.Generate(corpus.WebProfile(), 1500, 21).Columns},
		{"wiki", corpus.Generate(corpus.WikiProfile(), 1500, 22).Columns},
		{"pubxls", corpus.Generate(corpus.PubXLSProfile(), 1500, 23).Columns},
		{"entxls", corpus.Generate(corpus.EntXLSProfile(), 1500, 24).Columns},
		{"mix240", mix(240, 777)},
		{"mix700", mix(700, 20180610)},
	}
	flagged := 0
	for _, tc := range corpora {
		t.Run(tc.name, func(t *testing.T) {
			ref := referenceTrain(tc.cols, semantic.DefaultConfig())
			if len(ref.values) < 3 {
				t.Fatalf("vacuous: %d supported values", len(ref.values))
			}
			trained, err := semantic.Train(&corpus.Corpus{Columns: tc.cols}, semantic.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			panel := [][]string{statesColumn}
			for i, col := range tc.cols[:min(len(tc.cols), 150)] {
				other := tc.cols[(i*7+3)%len(tc.cols)].Values
				panel = append(panel, col.Values, append(col.Values[:len(col.Values)/2:len(col.Values)/2], other[len(other)/2:]...))
			}
			found := 0
			for name, m := range map[string]*semantic.Model{"pipeline": pipelineValueModel(t, tc.cols), "train": trained} {
				if m.SupportedValues() != len(ref.values) {
					t.Fatalf("%s: %d supported values, reference %d", name, m.SupportedValues(), len(ref.values))
				}
				for i, u := range ref.values {
					for j := i + 1; j < len(ref.values); j++ {
						got, ok := m.NPMI(u, ref.values[j])
						if want := ref.npmi(uint32(i), uint32(j)); !ok || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: NPMI(%q, %q) = %v, %t; reference %v", name, u, ref.values[j], got, ok, want)
						}
					}
				}
				for _, col := range panel {
					got, want := m.DetectColumn(col), ref.detectColumn(col)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: column %q: findings %+v, reference %+v", name, col, got, want)
					}
					found += len(want)
				}
			}
			t.Logf("%d supported values, %d stored pairs, %d panel findings per model", len(ref.values), len(ref.pairs), found/2)
			flagged += found
		})
	}
	if flagged == 0 {
		t.Fatal("vacuous: no panel column produced a finding")
	}
}

// TestValueModelPairsFirst64DistinctValues pins the one known difference
// from the reference: a column pairs up its first 64 distinct values, as
// every Leaf count does, where the reference paired its first 64
// supported values. The wide column below holds 70 unsupported values
// before A and B, so only the reference counts its A–B co-occurrence.
func TestValueModelPairsFirst64DistinctValues(t *testing.T) {
	var cols []*corpus.Column
	for i := 0; i < 5; i++ {
		cols = append(cols, &corpus.Column{Values: []string{"A", "B", "C"}})
	}
	for i := 0; i < 10; i++ {
		cols = append(cols, &corpus.Column{Values: []string{"x", "y"}})
	}
	wide := &corpus.Column{}
	for i := 0; i < 70; i++ {
		wide.Values = append(wide.Values, string(rune('a'+i%26))+string(rune('a'+i/26))+"-unique")
	}
	wide.Values = append(wide.Values, "A", "B")
	cols = append(cols, wide)

	cfg := semantic.DefaultConfig()
	ref := referenceTrain(cols, cfg)
	m, err := semantic.Train(&corpus.Corpus{Columns: cols}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(cols))
	got, ok := m.NPMI("A", "B")
	if want := stats.SmoothedNPMI(6, 6, 5, n, cfg.Smoothing); !ok || got != want {
		t.Errorf("NPMI(A, B) = %v, %t; want %v (5 co-occurrences)", got, ok, want)
	}
	if want := stats.SmoothedNPMI(6, 6, 6, n, cfg.Smoothing); ref.npmi(ref.ids["A"], ref.ids["B"]) != want || got == want {
		t.Errorf("reference NPMI(A, B) = %v, want %v (6 co-occurrences) and unlike the model's %v",
			ref.npmi(ref.ids["A"], ref.ids["B"]), want, got)
	}
	if got, _ := m.NPMI("A", "C"); got != ref.npmi(ref.ids["A"], ref.ids["C"]) {
		t.Errorf("NPMI(A, C) = %v, reference %v: only the wide column's pairs may differ", got, ref.npmi(ref.ids["A"], ref.ids["C"]))
	}
}

// TestValueModelSupportBoundaries: a value is supported from MinSupport
// columns on and up to MaxValueLength bytes, the empty and non-ASCII
// values included, exactly as in the reference.
func TestValueModelSupportBoundaries(t *testing.T) {
	v40, v41 := strings.Repeat("x", 40), strings.Repeat("y", 41)
	var cols []*corpus.Column
	for i := 0; i < 5; i++ {
		cols = append(cols, &corpus.Column{Values: []string{v40, v41, "", "Ünïcødé", "five", "five"}})
	}
	for i := 0; i < 4; i++ {
		cols = append(cols, &corpus.Column{Values: []string{"four", "five", ""}})
	}
	ref := referenceTrain(cols, semantic.DefaultConfig())
	m, err := semantic.Train(&corpus.Corpus{Columns: cols}, semantic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.SupportedValues() != 4 || len(ref.values) != 4 {
		t.Fatalf("%d supported values, reference %d; want 4", m.SupportedValues(), len(ref.values))
	}
	for _, v := range []string{v40, v41, "", "Ünïcødé", "four"} {
		got, ok := m.NPMI(v, "five")
		id, want := ref.ids[v]
		if ok != want || (ok && got != ref.npmi(id, ref.ids["five"])) {
			t.Errorf("NPMI(%q, five) = %v, %t; reference supports it: %t", v, got, ok, want)
		}
	}
}
