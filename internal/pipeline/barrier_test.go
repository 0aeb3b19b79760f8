package pipeline

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// roundShards counts cols round-robin into shards private builders, the way
// one counting round leaves them before its merge barrier.
func roundShards(t *testing.T, cols []*corpus.Column, shards int) []*stats.Builder {
	t.Helper()
	tc, _, langs, _ := resolveTrain(Options{Train: testTrainConfig()})
	out := make([]*stats.Builder, shards)
	for s := range out {
		out[s] = stats.NewBuilder(langs, tc.Smoothing)
	}
	for i, c := range cols {
		out[i%shards].AddColumn(c.Values)
	}
	return out
}

// TestBarrierBytesIndependentOfWorkers: the merge barrier, the checkpoint
// payload and the EncodePartial shard serialize to the same bytes whether
// the per-language fold runs on one worker or four.
func TestBarrierBytesIndependentOfWorkers(t *testing.T) {
	cols := corpus.Generate(corpus.WebProfile(), 300, 41).Columns
	tc, _, langs, _ := resolveTrain(Options{Train: testTrainConfig()})
	smp := newSample(50, 7)
	for _, c := range cols {
		smp.add(c)
	}
	checkpointBytes := func(workers int) []byte {
		base := stats.NewBuilder(langs, tc.Smoothing).Stats()
		if err := mergeBuilders(base, roundShards(t, cols, 3), workers); err != nil {
			t.Fatal(err)
		}
		payload, err := (&checkpoint{
			fingerprint: "fp", columns: uint64(len(cols)), values: 1234,
			entries: smp.entries(), stats: base, workers: workers,
		}).marshal()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	want := checkpointBytes(1)
	if got := checkpointBytes(4); !bytes.Equal(got, want) {
		t.Fatal("checkpoint payload differs between 1 and 4 workers")
	}
	ck, err := unmarshalCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.stats) != len(langs) || ck.columns != uint64(len(cols)) {
		t.Fatalf("checkpoint round trip: %d languages, %d columns", len(ck.stats), ck.columns)
	}

	p, err := CountPartial(context.Background(), NewSliceSource(cols), Options{Workers: 1, Train: testTrainConfig(), SampleColumns: 50})
	if err != nil {
		t.Fatal(err)
	}
	shard := func(workers int) []byte {
		p.workers = workers
		var buf bytes.Buffer
		if err := EncodePartial(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(shard(1), shard(4)) {
		t.Fatal("EncodePartial bytes differ between 1 and 4 workers")
	}
}

// TestMergeBarrierErrorNamesLowestLanguage: when the merge barrier fails on
// languages past the first, the build returns the lowest failing
// language's error, leaves no fold goroutine behind, and writes no
// checkpoint for the failed round.
func TestMergeBarrierErrorNamesLowestLanguage(t *testing.T) {
	cols := corpus.Generate(corpus.WebProfile(), 200, 43).Columns
	tc, ds, langs, _ := resolveTrain(Options{Train: testTrainConfig()})
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	b := &build{
		src: NewSliceSource(cols), langs: langs, tc: tc, ds: ds,
		workers: 4, ckptDir: dir, ckptEvery: 50,
		clock: newStageClock(), smp: newSample(0, 1), startTime: time.Now(),
	}
	b.base = stats.NewBuilder(langs, tc.Smoothing).Stats()
	// Sketch-backed stores cannot absorb a merge.
	for _, i := range []int{2, 5} {
		sk, err := b.base[i].SketchCopy(0.5, 4)
		if err != nil {
			t.Fatal(err)
		}
		b.base[i] = sk
	}
	err := b.count(context.Background())
	if err == nil {
		t.Fatal("merging into a sketch-backed store succeeded")
	}
	if !strings.Contains(err.Error(), langs[2].String()+":") || strings.Contains(err.Error(), langs[5].String()+":") {
		t.Fatalf("error %q does not name language 2 (%v) alone", err, langs[2])
	}
	if shards := listCheckpoints(dir); len(shards) != 0 {
		t.Fatalf("failed barrier wrote checkpoints %v", shards)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, %d before the build", runtime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
