package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsEmitEveryMetric runs every workload at tiny scale, plain and
// traced, and checks that the run passes its correctness gate and reports
// exactly the metrics BENCHMARK.json names, each finite and in its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(sp.Workloads), len(workloads))
	}
	e2e, layers := map[string]string{}, map[string]string{} // name → unit
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		layers[m.Name] = m.Unit
	}
	for i, s := range workloads {
		if sp.Workloads[i].Name != s.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, sp.Workloads[i].Name, s.name)
		}
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			o := options{seed: 3, dur: 400 * time.Millisecond, trace: trace, work: t.TempDir(), sc: tinyScale}
			rec, _, err := runWorkload(context.Background(), s, o)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", s.name, trace, err)
			}
			if !rec.Correct {
				t.Errorf("%s (trace %v): correctness gate failed: %v", s.name, trace, rec.Mismatches)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d", s.name, trace, rec.Attempted, rec.Failed)
			}
			for name, unit := range want {
				m, ok := rec.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", s.name, trace, name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s (trace %v): metric %s = %v", s.name, trace, name, m.Value)
				case m.Unit != unit:
					t.Errorf("%s (trace %v): metric %s in %s, BENCHMARK.json says %s", s.name, trace, name, m.Unit, unit)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, BENCHMARK.json names %d", s.name, trace, len(rec.Metrics), len(want))
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
