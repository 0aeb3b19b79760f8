package sketch

import (
	"math/rand"
	"testing"
)

// TestEstimateCorrectedDebiasesZeros: in a heavily loaded sketch the raw
// min-estimate of never-inserted keys drifts upward with collisions, while
// the count-mean-min corrected estimate stays near zero.
func TestEstimateCorrectedDebiasesZeros(t *testing.T) {
	cm, _ := New(512, 5)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		cm.Add(uint64(r.Intn(2000)), uint32(1+r.Intn(5)))
	}
	var rawSum, corrSum uint64
	probes := 0
	for k := uint64(1 << 40); k < 1<<40+500; k++ { // keys never inserted
		rawSum += cm.Estimate(k)
		corrSum += cm.EstimateCorrected(k)
		probes++
	}
	if rawSum == 0 {
		t.Fatal("expected collision noise in a loaded sketch")
	}
	if corrSum*4 > rawSum {
		t.Errorf("corrected zero-key mass %d not well below raw %d", corrSum, rawSum)
	}
}

// TestEstimateCorrectedBounded: the corrected estimate never exceeds the
// raw estimate and never goes negative.
func TestEstimateCorrectedBounded(t *testing.T) {
	cm, _ := New(128, 4)
	r := rand.New(rand.NewSource(5))
	truth := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := uint64(r.Intn(400))
		cm.Add(k, 1)
		truth[k]++
	}
	for k := range truth {
		raw := cm.Estimate(k)
		corr := cm.EstimateCorrected(k)
		if corr > raw {
			t.Fatalf("corrected %d > raw %d", corr, raw)
		}
	}
	// Mean absolute error of corrected should beat raw on a loaded sketch.
	var rawErr, corrErr int64
	for k, v := range truth {
		rawErr += abs64(int64(cm.Estimate(k)) - int64(v))
		corrErr += abs64(int64(cm.EstimateCorrected(k)) - int64(v))
	}
	if corrErr > rawErr {
		t.Errorf("corrected error %d > raw error %d", corrErr, rawErr)
	}
}

func TestEstimateCorrectedSparseExact(t *testing.T) {
	cm, _ := New(1<<12, 4)
	for k := uint64(0); k < 20; k++ {
		cm.Add(k, uint32(k+1))
	}
	for k := uint64(0); k < 20; k++ {
		if got := cm.EstimateCorrected(k); got != k+1 {
			t.Errorf("sparse corrected estimate(%d) = %d, want %d", k, got, k+1)
		}
	}
	if got := cm.EstimateCorrected(12345); got != 0 {
		t.Errorf("absent key corrected estimate = %d", got)
	}
}

func TestEstimateCorrectedEvenDepthMedian(t *testing.T) {
	cm, _ := New(64, 4) // even depth exercises the two-middle median
	for i := uint64(0); i < 1000; i++ {
		cm.Add(i%50, 1)
	}
	for k := uint64(0); k < 50; k++ {
		if cm.EstimateCorrected(k) > cm.Estimate(k) {
			t.Fatal("bound violated at even depth")
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
