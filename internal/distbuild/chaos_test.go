package distbuild

// The distributed-build chaos harness: workers behind a fault-injecting
// HTTP transport (torn uploads, blackholed responses), a worker that takes
// a lease and dies without ever heartbeating (the in-process stand-in for
// SIGKILL mid-partition), a zombie worker re-uploading a shard the
// coordinator already accepted, and one full coordinator restart mid-build.
// The build must still converge to the byte-identical single-process model,
// with every injected failure visibly absorbed: leases reassigned,
// duplicates acknowledged-and-discarded, torn uploads refused and retried.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/observe"
)

// TestChaosDistributedBuild is the end-to-end robustness property of the
// whole subsystem. Run it with -race; CI does.
func TestChaosDistributedBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes seconds; skipped under -short")
	}
	start := time.Now()
	dir, _ := testCorpusDir(t, 600, 40, 29)
	opts := testOptions(100)
	state := t.TempDir()
	reg := observe.NewRegistry()
	ttl := 700 * time.Millisecond

	mkCoord := func() *Coordinator {
		return newTestCoordinator(t, dir, state, CoordinatorConfig{
			Partitions: 5,
			Options:    opts,
			LeaseTTL:   ttl,
			Metrics:    reg, // shared across incarnations: counters keep accumulating
			Logf:       t.Logf,
		})
	}
	c1 := mkCoord()
	n := c1.Partitions()

	// The server's handler is swappable so a "coordinator crash + restart"
	// keeps the same URL, exactly like a process restarting behind one
	// address.
	var handler atomic.Value
	handler.Store(http.HandlerFunc(c1.Handler().ServeHTTP))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.HandlerFunc).ServeHTTP(w, r)
	}))
	defer srv.Close()
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
	})

	// SIGKILL stand-in: this "worker" takes a lease and is never heard from
	// again. Its partition must come back via TTL expiry and reassignment.
	body, _ := json.Marshal(LeaseRequest{Worker: "doomed"})
	resp, err := http.Post(srv.URL+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doomed LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&doomed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doomed.Wait || doomed.Done {
		t.Fatalf("doomed worker got no lease: %+v", doomed)
	}

	// Torn shard upload: a worker's connection dies mid-upload and the
	// coordinator receives a prefix of the shard. It must refuse with a
	// retryable 503, never merge the fragment.
	tornShard, _ := shardFor(t, dir, doomed.Partition, n, opts)
	tresp, err := http.Post(
		fmt.Sprintf("%s%s?partition=%d&worker=torn", srv.URL, PathShard, doomed.Partition),
		"application/octet-stream", bytes.NewReader(tornShard[:len(tornShard)-9]))
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("torn upload: status %d, want 503", tresp.StatusCode)
	}

	// Healthy workers talk through a deterministic fault transport:
	// responses torn after 64 bytes (every JSON response above that size),
	// and blackholes that deliver a request but discard its response —
	// forcing idempotent retries of calls that already happened, including
	// re-uploads of accepted shards. RecoverAfter bounds consecutive
	// faults per endpoint, so the build always makes progress.
	faulty := faultfs.NewTransport(http.DefaultTransport, faultfs.HTTPConfig{
		Seed:          31,
		TruncateRate:  0.5,
		TruncateAfter: 64,
		BlackholeRate: 0.2,
		RecoverAfter:  2,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	workerStats := make([]WorkerStats, 2)
	workerErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerStats[i], workerErrs[i] = RunWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				Name:        fmt.Sprintf("chaos-%d", i),
				Dir:         dir,
				Workers:     2,
				HTTP:        &http.Client{Transport: faulty},
				Retry:       testRetry(),
				Logf:        t.Logf,
			})
		}(i)
	}

	// Crash the coordinator once some progress exists but (with high
	// probability) before the build finishes; workers ride out the outage
	// on their retry policies.
	var c2 *Coordinator
	restartDone := make(chan struct{})
	go func() {
		defer close(restartDone)
		for ctx.Err() == nil {
			if st := c1.Status(); st.Done >= 1 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		handler.Store(down)
		time.Sleep(50 * time.Millisecond) // let a few requests hit the outage
		c2 = mkCoord()
		handler.Store(http.HandlerFunc(c2.Handler().ServeHTTP))
		t.Logf("chaos: coordinator restarted with %d/%d partitions restored", c2.Restored(), n)
	}()

	wg.Wait()
	<-restartDone
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d died: %v (stats %+v)", i, err, workerStats[i])
		}
	}
	if c2 == nil {
		t.Fatal("coordinator never restarted")
	}
	if err := c2.Wait(ctx); err != nil {
		t.Fatalf("build incomplete after workers finished: %v", err)
	}

	// Zombie: a worker that died after its upload was accepted but before
	// it saw the 200, restarted, and re-uploaded. Must be acknowledged and
	// discarded, never double-merged.
	raw, err := os.ReadFile(c2.shardPath(0))
	if err != nil {
		t.Fatal(err)
	}
	zresp, err := http.Post(fmt.Sprintf("%s%s?partition=0&worker=zombie", srv.URL, PathShard), "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]string
	if err := json.NewDecoder(zresp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	zresp.Body.Close()
	if zresp.StatusCode != http.StatusOK || ack["status"] != "duplicate" {
		t.Fatalf("zombie re-upload: status %d %v, want 200 duplicate", zresp.StatusCode, ack)
	}

	det, _, err := c2.BuildModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveModel(t, det), referenceModel(t, dir, opts)) {
		t.Error("chaos-built model differs from the single-process model")
	}

	// Fold both incarnations' counters together for the assertions: the
	// doomed lease and its reassignment happened on c1, the tail of the
	// build on c2.
	st1, st2 := c1.Status(), c2.Status()
	reassigned := st1.Reassignments + st2.Reassignments
	accepted := st1.ShardsAccepted + st2.ShardsAccepted
	duplicate := st1.ShardsDuplicate + st2.ShardsDuplicate
	rejected := st1.ShardsRejected + st2.ShardsRejected
	t.Logf("chaos: %d partitions in %.1fs; leases granted=%d expired=%d reassigned=%d; shards accepted=%d duplicate=%d rejected=%d; torn uploads=%d",
		n, time.Since(start).Seconds(), st1.LeasesGranted+st2.LeasesGranted,
		st1.LeasesExpired+st2.LeasesExpired, reassigned, accepted, duplicate, rejected,
		1+faulty.Blackholes()) // the explicit tear + every upload/response lost in flight

	if reassigned == 0 {
		t.Error("doomed worker's partition was never reassigned")
	}
	if rejected == 0 {
		t.Error("no rejected upload observed — the torn shard should have been refused")
	}
	if faulty.Faults() == 0 {
		t.Error("fault transport injected nothing")
	}
	if duplicate == 0 {
		t.Error("no duplicate upload was observed")
	}
	if accepted+uint64(c2.Restored()) < uint64(n) {
		t.Errorf("accepted %d shards (+%d restored) across incarnations, want ≥ %d", accepted, c2.Restored(), n)
	}
}
