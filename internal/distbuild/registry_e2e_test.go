package distbuild

// Fleet end-to-end: a distributed build publishes its finalized model to a
// versioned registry, two serving replicas hot-swap to it via conditional
// polling, a pin rolls the whole fleet back, and the steady state is pure
// 304 deltas. This is the full production loop — coordinator → registry →
// pullers → service — with every hop over real HTTP.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/registry"
	"repro/internal/retry"
	"repro/internal/service"
)

// fleetReplica is one serving node: a service hot-swapping through a
// registry puller, with the applied bytes captured for byte-identity
// assertions and a private metrics registry for the client 304 counter.
type fleetReplica struct {
	svc    *service.Server
	puller *registry.Puller
	met    *observe.Registry

	mu  sync.Mutex
	raw []byte
}

func (r *fleetReplica) applied() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.raw
}

// newFleetReplica wires a not-ready service to a registry puller exactly
// like cmd/autodetectd does in -registry-url mode.
func newFleetReplica(t *testing.T, base string, client *http.Client) *fleetReplica {
	t.Helper()
	rep := &fleetReplica{svc: service.New(nil, nil), met: observe.NewRegistry()}
	p, err := registry.NewPuller(registry.PullerConfig{
		URL:   base,
		Poll:  15 * time.Millisecond,
		HTTP:  client,
		Retry: retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Apply: func(info registry.VersionInfo, raw []byte) error {
			det, err := core.Load(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			if err := rep.svc.SwapInfo(det, nil, service.ModelInfo{
				Version:         info.Version,
				Source:          "registry",
				SHA256:          info.SHA256,
				PublishedUnixMs: info.PublishedUnixMs,
			}); err != nil {
				return err
			}
			rep.mu.Lock()
			rep.raw = append([]byte(nil), raw...)
			rep.mu.Unlock()
			return nil
		},
		Logf:    t.Logf,
		Metrics: rep.met,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.puller = p
	return rep
}

// waitForVersion polls both replicas until each serves the wanted version
// with exactly the wanted bytes.
func waitForVersion(t *testing.T, replicas []*fleetReplica, version int, want []byte) {
	t.Helper()
	wantSHA := sha256hex(want)
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := 0
		for _, r := range replicas {
			info := r.svc.Info()
			if info.Version == version && info.SHA256 == wantSHA && bytes.Equal(r.applied(), want) {
				ok++
			}
		}
		if ok == len(replicas) {
			return
		}
		if time.Now().After(deadline) {
			for i, r := range replicas {
				t.Logf("replica %d: info=%+v", i, r.svc.Info())
			}
			t.Fatalf("fleet did not converge to v%d", version)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sampleValue renders reg and extracts one un-labeled sample, or -1.
func sampleValue(t *testing.T, reg *observe.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad sample %q", name, fields[1])
			}
			return v
		}
	}
	return -1
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestFleetPublishHotSwapRollback(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// --- Distributed build: coordinator + two workers over real HTTP. ---
	dir, _ := testCorpusDir(t, 600, 40, 17)
	opts := testOptions(100)
	coord := newTestCoordinator(t, dir, t.TempDir(), CoordinatorConfig{Partitions: 4, Options: opts})
	csrv := httptest.NewServer(coord.Handler())
	defer csrv.Close()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = RunWorker(ctx, WorkerConfig{
				Coordinator: csrv.URL,
				Name:        []string{"alpha", "beta"}[i],
				Dir:         dir,
				Workers:     2,
				Retry:       testRetry(),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	det, _, err := coord.BuildModel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	modelV1 := saveModel(t, det)
	part, err := pipeline.NewDirPartitioner(dir, pipeline.DirConfig{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	fpV1 := pipeline.BuildFingerprint(part.Fingerprint(), opts)

	// --- Registry service, as runRegistryServer would host it. ---
	regMetrics := observe.NewRegistry()
	store, err := registry.Open(t.TempDir(), registry.Options{Metrics: regMetrics, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := httptest.NewServer(registry.NewServer(store).Handler())
	defer rsrv.Close()

	// --- Publish the distributed build, exactly like the coordinator. ---
	pub := registry.PublishOptions{
		Client: rsrv.Client(),
		Retry:  retry.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
	res, err := registry.PublishModel(ctx, rsrv.URL, modelV1, fpV1, "distbuild", pub)
	if err != nil || res.Status != "accepted" || res.Version != 1 {
		t.Fatalf("publish v1: %+v err=%v", res, err)
	}
	// A rerun of the same finished build is an idempotent duplicate.
	if res, err = registry.PublishModel(ctx, rsrv.URL, modelV1, fpV1, "distbuild", pub); err != nil || res.Status != "duplicate" {
		t.Fatalf("re-publish v1: %+v err=%v", res, err)
	}

	// --- Two serving replicas poll the registry in the background. ---
	replicas := []*fleetReplica{
		newFleetReplica(t, rsrv.URL, rsrv.Client()),
		newFleetReplica(t, rsrv.URL, rsrv.Client()),
	}
	pullCtx, pullCancel := context.WithCancel(ctx)
	defer pullCancel()
	for _, r := range replicas {
		r := r
		go func() { _ = r.puller.Run(pullCtx) }()
	}
	waitForVersion(t, replicas, 1, modelV1)
	if a, b := replicas[0].applied(), replicas[1].applied(); !bytes.Equal(a, b) {
		t.Fatal("replicas converged to different bytes")
	}

	// --- A second (single-process) build publishes v2; fleet follows. ---
	dir2, _ := testCorpusDir(t, 400, 40, 29)
	opts2 := testOptions(0)
	modelV2 := referenceModel(t, dir2, opts2)
	part2, err := pipeline.NewDirPartitioner(dir2, pipeline.DirConfig{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	fpV2 := pipeline.BuildFingerprint(part2.Fingerprint(), opts2)
	if res, err = registry.PublishModel(ctx, rsrv.URL, modelV2, fpV2, "distbuild", pub); err != nil || res.Version != 2 {
		t.Fatalf("publish v2: %+v err=%v", res, err)
	}
	waitForVersion(t, replicas, 2, modelV2)

	// --- Pin v1 over the wire: the whole fleet rolls back. ---
	resp, err := http.Post(rsrv.URL+registry.PathPin, "application/json", strings.NewReader(`{"version": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"rollback":true`) {
		t.Fatalf("pin: status=%d body=%s", resp.StatusCode, body)
	}
	waitForVersion(t, replicas, 1, modelV1)

	// --- Steady state is pure 304 deltas: both sides count them. ---
	deadline := time.Now().Add(10 * time.Second)
	for {
		serverHits := sampleValue(t, regMetrics, "autodetect_registry_not_modified_total")
		clientHits := 0
		for _, r := range replicas {
			if sampleValue(t, r.met, "autodetect_registry_client_not_modified_total") >= 1 {
				clientHits++
			}
		}
		if serverHits >= 2 && clientHits == len(replicas) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 304 deltas at steady state: server=%v clients=%d", serverHits, clientHits)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pullCancel()

	// The registry's own bookkeeping saw the whole story.
	if v := sampleValue(t, regMetrics, "autodetect_registry_rollbacks_total"); v != 1 {
		t.Errorf("rollbacks counter = %v, want 1", v)
	}
	if v := sampleValue(t, regMetrics, "autodetect_registry_current_version"); v != 1 {
		t.Errorf("current_version gauge = %v, want 1", v)
	}
}
