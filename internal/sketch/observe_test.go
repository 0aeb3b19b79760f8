package sketch

import "testing"

// TestHotPathCounters checks that Estimate feeds the probe counters and
// that forcing a collision (tiny sketch, many keys) ticks the collision
// counter.
func TestHotPathCounters(t *testing.T) {
	before := HotPath()

	cm, err := New(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 64; k++ {
		cm.Add(k, 1)
	}
	// Probe on multiples of hotSample so every call lands in the sample
	// and the (weighted) counter delta is exact.
	const probes = 128
	for k := uint64(0); k < probes; k++ {
		cm.Estimate(k * hotSample)
	}

	after := HotPath()
	// Add doesn't probe, so the delta is at least the explicit Estimate
	// calls (other tests may run in parallel, hence >=).
	if got := after.Estimates - before.Estimates; got < probes*hotSample {
		t.Errorf("estimate counter grew by %d, want >= %d", got, probes*hotSample)
	}
	// 64 keys into a width-4 sketch guarantees skewed rows for most keys.
	if after.Collisions == before.Collisions {
		t.Error("collision counter did not move on a saturated sketch")
	}
}
