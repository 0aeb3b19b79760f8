package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, false); err == nil {
		t.Error("width 0 should error")
	}
	if _, err := New(10, 0, false); err == nil {
		t.Error("depth 0 should error")
	}
	if _, err := NewWithErrorBound(0, 0.1, false); err == nil {
		t.Error("epsilon 0 should error")
	}
	if _, err := NewWithErrorBound(0.1, 1, false); err == nil {
		t.Error("delta 1 should error")
	}
}

func TestErrorBoundDimensions(t *testing.T) {
	cm, err := NewWithErrorBound(0.01, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if w := cm.Width(); w != int(math.Ceil(math.E/0.01)) {
		t.Errorf("width = %d", w)
	}
	if d := cm.Depth(); d != 5 {
		t.Errorf("depth = %d, want ceil(ln 100) = 5", d)
	}
}

func TestExactWhenSparse(t *testing.T) {
	cm, _ := New(1<<14, 4, false)
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
	for _, conservative := range []bool{false, true} {
		cm, _ := New(64, 3, conservative) // deliberately tiny: force collisions
		truth := map[uint64]uint64{}
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			k := uint64(r.Intn(300))
			cm.Add(k, 1)
			truth[k]++
		}
		for k, v := range truth {
			if got := cm.Estimate(k); got < v {
				t.Fatalf("conservative=%v: Estimate(%d) = %d < truth %d",
					conservative, k, got, v)
			}
		}
	}
}

func TestEpsilonBoundOnPowerLaw(t *testing.T) {
	// Pattern co-occurrence counts follow a power law (Section 3.4); check
	// the εN bound holds for the heavy keys with very high empirical
	// probability.
	cm, err := NewWithErrorBound(0.001, 0.01, false)
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
		if float64(cm.Estimate(k)) > float64(v)+0.001*n {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > 0.01 {
		t.Errorf("%.3f%% of keys exceed the εN bound", frac*100)
	}
}

func TestConservativeAtLeastAsAccurate(t *testing.T) {
	plain, _ := New(128, 3, false)
	cons, _ := New(128, 3, true)
	truth := map[uint64]uint64{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		k := uint64(r.Intn(1000))
		plain.Add(k, 1)
		cons.Add(k, 1)
		truth[k]++
	}
	var errPlain, errCons uint64
	for k, v := range truth {
		errPlain += plain.Estimate(k) - v
		errCons += cons.Estimate(k) - v
	}
	if errCons > errPlain {
		t.Errorf("conservative error %d > plain error %d", errCons, errPlain)
	}
}

func TestBytes(t *testing.T) {
	cm, _ := New(1000, 5, false)
	if cm.Bytes() != 1000*5*4 {
		t.Errorf("Bytes = %d", cm.Bytes())
	}
}

// Property: adding in any order yields the same estimates (plain update is
// commutative).
func TestAddCommutative(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		a, _ := New(256, 3, false)
		b, _ := New(256, 3, false)
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
	cm, _ := New(1<<16, 4, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.Add(uint64(i), 1)
	}
}

func BenchmarkEstimate(b *testing.B) {
	cm, _ := New(1<<16, 4, false)
	for i := 0; i < 100000; i++ {
		cm.Add(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.Estimate(uint64(i))
	}
}
