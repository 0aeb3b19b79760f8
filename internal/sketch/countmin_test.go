package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("width 0 should error")
	}
	if _, err := New(10, 0); err == nil {
		t.Error("depth 0 should error")
	}
}

func TestExactWhenSparse(t *testing.T) {
	cm, _ := New(1<<14, 4)
	for k := uint64(0); k < 100; k++ {
		cm.Add(k, uint32(k+1))
	}
	for k := uint64(0); k < 100; k++ {
		if got := cm.Estimate(k); got != uint64(k+1) {
			t.Errorf("Estimate(%d) = %d, want %d", k, got, k+1)
		}
	}
	if cm.Total() != 100*101/2 {
		t.Errorf("Total = %d", cm.Total())
	}
}

// Property: the estimate never under-counts.
func TestNeverUnderCounts(t *testing.T) {
	cm, _ := New(64, 3) // deliberately tiny: force collisions
	truth := map[uint64]uint64{}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := uint64(r.Intn(300))
		cm.Add(k, 1)
		truth[k]++
	}
	for k, v := range truth {
		if got := cm.Estimate(k); got < v {
			t.Fatalf("Estimate(%d) = %d < truth %d", k, got, v)
		}
	}
}

func TestEpsilonBoundOnPowerLaw(t *testing.T) {
	// Pattern co-occurrence counts follow a power law (Section 3.4); check
	// the εN bound holds for the heavy keys with very high empirical
	// probability.
	// Width ⌈e/ε⌉ and depth ⌈ln(1/δ)⌉ give the εN bound with probability 1−δ.
	const epsilon, delta = 0.001, 0.01
	cm, err := New(int(math.Ceil(math.E/epsilon)), int(math.Ceil(math.Log(1/delta))))
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]uint64{}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		// Zipf-ish key draw.
		k := uint64(math.Floor(math.Pow(r.Float64(), 3) * 10000))
		cm.Add(k, 1)
		truth[k]++
	}
	n := float64(cm.Total())
	bad := 0
	for k, v := range truth {
		if float64(cm.Estimate(k)) > float64(v)+epsilon*n {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > 0.01 {
		t.Errorf("%.3f%% of keys exceed the εN bound", frac*100)
	}
}

func TestBytes(t *testing.T) {
	cm, _ := New(1000, 5)
	if cm.Bytes() != 1000*5*4 {
		t.Errorf("Bytes = %d", cm.Bytes())
	}
}

// Property: adding in any order yields the same estimates (update is
// commutative).
func TestAddCommutative(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		a, _ := New(256, 3)
		b, _ := New(256, 3)
		for _, k := range keys {
			a.Add(k, 1)
		}
		for i := len(keys) - 1; i >= 0; i-- {
			b.Add(keys[i], 1)
		}
		for _, k := range keys {
			if a.Estimate(k) != b.Estimate(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	cm, _ := New(1<<16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.Add(uint64(i), 1)
	}
}

func BenchmarkEstimate(b *testing.B) {
	cm, _ := New(1<<16, 4)
	for i := 0; i < 100000; i++ {
		cm.Add(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.Estimate(uint64(i))
	}
}
