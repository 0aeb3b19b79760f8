package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"syscall"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultfs"
)

// interrupt runs a checkpointed build and cancels it after n delivered
// columns, leaving shards behind for the resume tests.
func interrupt(t *testing.T, cols []*corpus.Column, opts Options, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, &cancelAfter{src: NewSliceSource(cols), n: n, cancel: cancel}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
}

// TestCheckpointFallbackOnTruncatedNewest is the torn-write regression: a
// newest shard truncated mid-file must not forfeit the build — resume must
// fall back to the previous valid shard and still converge to the
// byte-identical model of an uninterrupted build.
func TestCheckpointFallbackOnTruncatedNewest(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 600, 31)
	cfg := testTrainConfig()
	ckdir := t.TempDir()
	opts := Options{
		Workers:         2,
		Train:           cfg,
		SampleColumns:   150,
		CheckpointDir:   ckdir,
		CheckpointEvery: 120,
	}

	interrupt(t, c.Columns, opts, 400)
	shards := listCheckpoints(ckdir)
	if len(shards) < 2 {
		t.Fatalf("need at least 2 shards for a fallback test, got %d", len(shards))
	}

	// Tear the newest shard mid-file.
	newest := shards[len(shards)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.Tear(newest, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(context.Background(), NewSliceSource(c.Columns), opts)
	if err != nil {
		t.Fatalf("resume past a torn newest shard failed: %v", err)
	}
	if resumed.CorruptCheckpointsSkipped != 1 {
		t.Errorf("CorruptCheckpointsSkipped = %d, want 1", resumed.CorruptCheckpointsSkipped)
	}
	if resumed.ResumedColumns == 0 {
		t.Error("fallback resume restored no columns")
	}
	if resumed.Columns != uint64(len(c.Columns)) {
		t.Errorf("resumed build covered %d columns, want %d", resumed.Columns, len(c.Columns))
	}

	ref := opts
	ref.CheckpointDir = t.TempDir()
	clean, err := Run(context.Background(), NewSliceSource(c.Columns), ref)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := resumed.Detector.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := clean.Detector.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("model after torn-checkpoint fallback differs from clean build")
	}
}

// TestCheckpointFallbackOnBitFlip: a CRC-corrupt (not just truncated)
// newest shard is also skipped.
func TestCheckpointFallbackOnBitFlip(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 500, 13)
	opts := Options{
		Workers:         2,
		Train:           testTrainConfig(),
		SampleColumns:   100,
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 100,
	}
	interrupt(t, c.Columns, opts, 350)
	shards := listCheckpoints(opts.CheckpointDir)
	if len(shards) < 2 {
		t.Fatalf("need at least 2 shards, got %d", len(shards))
	}
	newest := shards[len(shards)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipByte(newest, fi.Size()/3, 0x40); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), NewSliceSource(c.Columns), opts)
	if err != nil {
		t.Fatalf("resume past a bit-flipped shard failed: %v", err)
	}
	if res.CorruptCheckpointsSkipped != 1 {
		t.Errorf("CorruptCheckpointsSkipped = %d, want 1", res.CorruptCheckpointsSkipped)
	}
}

// TestCheckpointAllCorruptIsAnError: when every shard fails integrity,
// resume must refuse to silently restart from zero.
func TestCheckpointAllCorruptIsAnError(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 400, 17)
	opts := Options{
		Workers:         1,
		Train:           testTrainConfig(),
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 90,
	}
	interrupt(t, c.Columns, opts, 250)
	shards := listCheckpoints(opts.CheckpointDir)
	if len(shards) == 0 {
		t.Fatal("no shards written")
	}
	for _, s := range shards {
		if err := faultfs.Tear(s, 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(context.Background(), NewSliceSource(c.Columns), opts); err == nil {
		t.Fatal("resume over all-corrupt checkpoints should fail loudly")
	}
}

// TestCheckpointKeepK: pruning keeps the newest keepLastCheckpoints (3)
// shards.
func TestCheckpointKeepK(t *testing.T) {
	dir := t.TempDir()
	mk := func(columns uint64) *Partial {
		return &Partial{
			Fingerprint: "fp",
			Columns:     columns,
			smp:         newSample(0, 0),
		}
	}
	for i := uint64(1); i <= 5; i++ {
		if err := writeCheckpoint(dir, mk(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	shards := listCheckpoints(dir)
	if len(shards) != 3 {
		t.Fatalf("kept %d shards, want 3", len(shards))
	}
	if shards[0] != checkpointPath(dir, 300) || shards[1] != checkpointPath(dir, 400) || shards[2] != checkpointPath(dir, 500) {
		t.Errorf("kept %v, want the newest three (300, 400, 500)", shards)
	}
}

// TestCheckpointOpenFailureIsAnError: a newest checkpoint that cannot be
// opened is not known to be corrupt, so resume must return the error
// instead of falling back past it and counting it as skipped.
func TestCheckpointOpenFailureIsAnError(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 300, 19)
	opts := Options{
		Workers:         1,
		Train:           testTrainConfig(),
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 90,
	}
	interrupt(t, c.Columns, opts, 200)
	if len(listCheckpoints(opts.CheckpointDir)) == 0 {
		t.Fatal("no checkpoints written")
	}
	// A self-referencing symlink fails to open with ELOOP, even as root.
	loop := checkpointPath(opts.CheckpointDir, 1<<40)
	if err := os.Symlink(loop, loop); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), NewSliceSource(c.Columns), opts); !errors.Is(err, syscall.ELOOP) {
		t.Fatalf("resume with an unopenable newest checkpoint: err = %v, want ELOOP", err)
	}
}
