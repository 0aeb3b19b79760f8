package registry

import (
	"context"
	"sort"
	"testing"
	"time"
)

func quantileMillis(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// TestRegistrySmoke pulls from a live registry server the way a fleet
// does: cold pulls (full body + digest verification) and warm conditional
// polls, each of which must be a 304 the server counts. Latency is logged
// only.
func TestRegistrySmoke(t *testing.T) {
	models := testModels(t)
	st, srv := newTestServer(t)
	if _, _, err := st.Publish(models[0], "bench", "bench", ""); err != nil {
		t.Fatal(err)
	}

	const pulls = 100
	cold := make([]time.Duration, 0, pulls)
	warm := make([]time.Duration, 0, pulls)
	for i := 0; i < pulls; i++ {
		// Cold: a fresh puller with no ETag downloads the whole model.
		p, _ := newTestPuller(t, srv.URL, srv.Client())
		start := time.Now()
		if _, changed, err := p.PullNow(context.Background()); err != nil || !changed {
			t.Fatalf("cold pull %d: changed=%t err=%v", i, changed, err)
		}
		cold = append(cold, time.Since(start))
		// Warm: the same puller's next poll is a conditional 304.
		start = time.Now()
		if _, changed, err := p.PullNow(context.Background()); err != nil || changed {
			t.Fatalf("warm poll %d: changed=%t err=%v", i, changed, err)
		}
		warm = append(warm, time.Since(start))
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })

	if hits := st.met.notModified.Value(); hits != pulls {
		t.Fatalf("server counted %v 304s, want %d", hits, pulls)
	}
	t.Logf("cold p50=%.2fms p99=%.2fms; 304 p50=%.2fms p99=%.2fms over %d pulls of %d bytes",
		quantileMillis(cold, 0.50), quantileMillis(cold, 0.99),
		quantileMillis(warm, 0.50), quantileMillis(warm, 0.99), pulls, len(models[0]))
}
