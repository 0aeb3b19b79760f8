package core

import (
	"math"
	"testing"
)

// Table 1 of the paper: per-language NPMI scores of the ten training
// examples t1..t5 (compatible) and t6..t10 (incompatible).
var (
	table1Negs = []bool{false, false, false, false, false, true, true, true, true, true}
	table1L1   = []float64{0.5, 0.5, -0.7, 0.4, 0.5, -0.5, 0.9, -0.6, -0.7, 0.2}
	table1L2   = []float64{0.5, 0.5, 0.4, -0.8, 0.5, 0.9, -0.6, 0.2, -0.7, -0.7}
	table1L3   = []float64{0.4, 0.5, 0.5, 0.6, 0.5, -0.6, -0.6, -0.7, -0.5, 0.9}
)

// coverageSet converts a coverage bitset into the set of covered t−
// example numbers (t6..t10 occupy negative indices 0..4).
func coverageSet(c *Calibration) map[int]bool {
	out := map[int]bool{}
	for i := 0; i < c.Coverage().Len(); i++ {
		if c.Coverage().Get(i) {
			out[i+6] = true
		}
	}
	return out
}

// trainingPrecision is the precision a language reaches at θk on the
// training set: |H−k| / (|H−k| + |H+k|), and 1 when it flags nothing.
func trainingPrecision(c *Calibration) float64 {
	covered := c.CoverageCount() + c.FalsePositives()
	if covered == 0 {
		return 1
	}
	return float64(c.CoverageCount()) / float64(covered)
}

// TestExample4Thresholds reproduces Example 4 / Table 2 of the paper: at
// target precision P = 0.75 the derived thresholds are θ1 = −0.5,
// θ2 = −0.6, θ3 = −0.5 with the stated coverage sets and precisions.
func TestExample4Thresholds(t *testing.T) {
	cases := []struct {
		name      string
		scores    []float64
		theta     float64
		covered   []int
		falsePos  int
		precision float64
	}{
		{"L1", table1L1, -0.5, []int{6, 8, 9}, 1, 0.75},
		{"L2", table1L2, -0.6, []int{7, 9, 10}, 1, 0.75},
		{"L3", table1L3, -0.5, []int{6, 7, 8, 9}, 0, 1.0},
	}
	for _, c := range cases {
		cal, err := calibrateScores(c.scores, table1Negs, 0.75)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if cal.Theta != c.theta {
			t.Errorf("%s: θ = %v, want %v", c.name, cal.Theta, c.theta)
		}
		got := coverageSet(cal)
		if len(got) != len(c.covered) {
			t.Errorf("%s: coverage %v, want %v", c.name, got, c.covered)
		}
		for _, want := range c.covered {
			if !got[want] {
				t.Errorf("%s: t%d not covered", c.name, want)
			}
		}
		if cal.FalsePositives() != c.falsePos {
			t.Errorf("%s: false positives = %d, want %d", c.name, cal.FalsePositives(), c.falsePos)
		}
		if p := trainingPrecision(cal); math.Abs(p-c.precision) > 1e-9 {
			t.Errorf("%s: training precision = %v, want %v", c.name, p, c.precision)
		}
	}
}

// TestExample5Selection reproduces Example 5: with sizes 200/300/400 MB and
// budget 500 MB, greedy selection picks {L1, L2} (coverage 5), which beats
// the best singleton {L3} (coverage 4).
func TestExample5Selection(t *testing.T) {
	mb := 1 << 20
	cands := make([]*Calibration, 3)
	for i, scores := range [][]float64{table1L1, table1L2, table1L3} {
		cal, err := calibrateScores(scores, table1Negs, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		cal.SizeOverride = (200 + 100*i) * mb
		cands[i] = cal
	}
	sel, err := SelectGreedy(cands, 500*mb)
	if err != nil {
		t.Fatal(err)
	}
	if sel.UsedSingleton {
		t.Error("greedy set should beat the singleton")
	}
	if len(sel.Chosen) != 2 || sel.Chosen[0] != cands[0] || sel.Chosen[1] != cands[1] {
		t.Errorf("selected %d languages, want {L1, L2}", len(sel.Chosen))
	}
	if sel.Coverage != 5 {
		t.Errorf("coverage = %d, want 5", sel.Coverage)
	}
	if sel.Bytes != 500*mb {
		t.Errorf("bytes = %d", sel.Bytes)
	}
}

// TestExample5SingletonFallback: shrink the budget so only one language
// fits; Algorithm 1's lines 8–12 must return the best affordable singleton.
func TestExample5SingletonFallback(t *testing.T) {
	mb := 1 << 20
	cands := make([]*Calibration, 3)
	for i, scores := range [][]float64{table1L1, table1L2, table1L3} {
		cal, _ := calibrateScores(scores, table1Negs, 0.75)
		cal.SizeOverride = (200 + 100*i) * mb
		cands[i] = cal
	}
	// Budget 400 MB: greedy picks L1 (gain 3/200 beats 3/300 and 4/400),
	// then nothing else fits except nothing... L2 costs 300 > 200 left.
	// Best singleton is L3 with coverage 4 > greedy's 3.
	sel, err := SelectGreedy(cands, 400*mb)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.UsedSingleton || len(sel.Chosen) != 1 || sel.Chosen[0] != cands[2] {
		t.Errorf("want singleton {L3}, got %d languages (singleton=%v)", len(sel.Chosen), sel.UsedSingleton)
	}
	if sel.Coverage != 4 {
		t.Errorf("coverage = %d, want 4", sel.Coverage)
	}
}

func TestSelectGreedyErrors(t *testing.T) {
	if _, err := SelectGreedy(nil, 100); err == nil {
		t.Error("no candidates should error")
	}
	cal, _ := calibrateScores(table1L1, table1Negs, 0.75)
	cal.SizeOverride = 1000
	if _, err := SelectGreedy([]*Calibration{cal}, 0); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := SelectGreedy([]*Calibration{cal}, 10); err == nil {
		t.Error("budget below every language should error")
	}
}

func TestCalibrateScoresValidation(t *testing.T) {
	if _, err := calibrateScores([]float64{0.1}, []bool{false}, 0.9); err == nil {
		t.Error("no negatives should error")
	}
}

func TestThetaNeverNonNegative(t *testing.T) {
	// Even a perfectly separating language must not adopt a threshold ≥ 0:
	// incompatibility is negative correlation.
	scores := []float64{0.2, 0.5, 0.1, 0.9}
	negs := []bool{true, true, true, true}
	cal, err := calibrateScores(scores, negs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Theta != NoFireTheta {
		t.Errorf("θ = %v, want never-fire", cal.Theta)
	}
	if cal.Covers(0.1) {
		t.Error("never-fire language must not cover anything")
	}
}

func TestUnreachablePrecision(t *testing.T) {
	// Negatives and positives perfectly interleaved at the same scores:
	// precision 0.5 everywhere, target 0.9 unreachable.
	scores := []float64{-0.5, -0.5, -0.4, -0.4}
	negs := []bool{true, false, true, false}
	cal, err := calibrateScores(scores, negs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Theta != NoFireTheta {
		t.Errorf("θ = %v, want never-fire", cal.Theta)
	}
	if cal.CoverageCount() != 0 {
		t.Error("never-fire language must cover nothing")
	}
}

func TestPrecisionAtCurve(t *testing.T) {
	cal, err := calibrateScores(table1L1, table1Negs, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix at −0.5 contains {−0.7+, −0.7−, −0.6−, −0.5−}: precision 3/4.
	if p := cal.PrecisionAt(-0.5); math.Abs(p-0.75) > 1e-9 {
		t.Errorf("P(-0.5) = %v", p)
	}
	// Prefix at −0.7 is one positive and one negative.
	if p := cal.PrecisionAt(-0.7); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("P(-0.7) = %v", p)
	}
	// Below everything: extrapolates from the smallest prefix.
	if p := cal.PrecisionAt(-0.99); p != 0 && p != 1 {
		t.Errorf("P(-0.99) = %v, want a degenerate 0 or 1", p)
	}
	// At the top everything is covered: precision = |T−|/|T|.
	if p := cal.PrecisionAt(1.0); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("P(1.0) = %v", p)
	}
	// Monotone lookup between knots uses the floor.
	if p := cal.PrecisionAt(-0.55); math.Abs(p-cal.PrecisionAt(-0.6)) > 1e-9 {
		t.Errorf("P(-0.55) = %v, want P(-0.6)", p)
	}
}

func TestCoversRespectsTheta(t *testing.T) {
	cal, _ := calibrateScores(table1L1, table1Negs, 0.75)
	if !cal.Covers(-0.5) || !cal.Covers(-0.9) {
		t.Error("scores at or below θ must be covered")
	}
	if cal.Covers(-0.49) || cal.Covers(0.3) {
		t.Error("scores above θ must not be covered")
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatal("fresh bitset not empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 || !b.Get(64) || b.Get(63) {
		t.Error("set/get broken")
	}
	o := NewBitset(130)
	o.Set(64)
	o.Set(100)
	if b.UnionCount(o) != 4 {
		t.Errorf("UnionCount = %d", b.UnionCount(o))
	}
	cl := b.Clone()
	cl.Or(o)
	if cl.Count() != 4 || b.Count() != 3 {
		t.Error("Clone/Or broken")
	}
}
