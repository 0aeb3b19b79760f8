package registry

// Shared fixtures: three small, distinct, valid serialized models trained
// once per test binary, and a store opener with an injected deterministic
// clock.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/observe"
	"repro/internal/pattern"
	"repro/internal/pipeline"
)

var (
	modelsOnce sync.Once
	modelRaw   [3][]byte
	modelsErr  error
)

// testModels returns three distinct valid model byte strings (different
// training seeds → different statistics → different bytes).
func testModels(t *testing.T) [3][]byte {
	t.Helper()
	modelsOnce.Do(func() {
		for i := range modelRaw {
			seed := int64(31 + i)
			c := corpus.Generate(corpus.WebProfile(), 1500, seed)
			cfg := core.DefaultTrainConfig()
			cfg.Languages = []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2()}
			ds := distsup.DefaultConfig()
			ds.PositivePairs, ds.NegativePairs = 1200, 1200
			ds.Seed = seed
			cfg.DistSup = ds
			res, err := pipeline.Run(context.Background(), pipeline.NewSliceSource(c.Columns), pipeline.Options{Workers: 1, Train: cfg})
			if err != nil {
				modelsErr = err
				return
			}
			var buf bytes.Buffer
			if err := res.Detector.Save(&buf); err != nil {
				modelsErr = err
				return
			}
			modelRaw[i] = buf.Bytes()
		}
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	if bytes.Equal(modelRaw[0], modelRaw[1]) || bytes.Equal(modelRaw[1], modelRaw[2]) {
		t.Fatal("fixture models are not distinct")
	}
	return modelRaw
}

// openTestStore opens a store over dir with a fixed-step clock and a live
// metrics registry.
func openTestStore(t *testing.T, dir string) (*Store, *observe.Registry) {
	t.Helper()
	reg := observe.NewRegistry()
	base := time.UnixMilli(1700000000000)
	n := 0
	st, err := Open(dir, Options{
		Metrics: reg,
		Logf:    t.Logf,
		now: func() time.Time {
			n++
			return base.Add(time.Duration(n) * time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, reg
}

func TestStorePublishListGetPin(t *testing.T) {
	models := testModels(t)
	st, _ := openTestStore(t, t.TempDir())

	// First publish becomes v1 and current.
	v1, dup, err := st.Publish(models[0], "fp-1", "test", "")
	if err != nil || dup {
		t.Fatalf("publish 1: info=%+v dup=%t err=%v", v1, dup, err)
	}
	if v1.Version != 1 || v1.Languages == 0 || v1.PublishedUnixMs == 0 {
		t.Fatalf("v1 record = %+v", v1)
	}
	// Second model becomes v2 and current advances (unpinned).
	v2, dup, err := st.Publish(models[1], "fp-2", "test", "")
	if err != nil || dup || v2.Version != 2 {
		t.Fatalf("publish 2: info=%+v dup=%t err=%v", v2, dup, err)
	}
	if cur, pinned, versions := st.List(); cur != 2 || pinned || len(versions) != 2 {
		t.Fatalf("after publish 2: current=%d pinned=%t versions=%d", cur, pinned, len(versions))
	}

	// Byte-identical re-publish is acknowledged as a duplicate of v2.
	again, dup, err := st.Publish(models[1], "fp-2", "test", "")
	if err != nil || !dup || again.Version != 2 {
		t.Fatalf("duplicate publish: info=%+v dup=%t err=%v", again, dup, err)
	}
	if _, _, versions := st.List(); len(versions) != 2 {
		t.Fatalf("duplicate publish grew the version list to %d", len(versions))
	}

	// Get returns the exact stored bytes.
	info, raw, err := st.Get(1)
	if err != nil || info.Version != 1 || !bytes.Equal(raw, models[0]) {
		t.Fatalf("get v1: info=%+v err=%v bytes-match=%t", info, err, bytes.Equal(raw, models[0]))
	}

	// Pin v1: rollback (older than current), pointer sticks.
	pinned, rollback, err := st.Pin(1)
	if err != nil || !rollback || pinned.Version != 1 {
		t.Fatalf("pin v1: info=%+v rollback=%t err=%v", pinned, rollback, err)
	}
	// A new publish stores v3 but current stays pinned at 1.
	v3, _, err := st.Publish(models[2], "fp-3", "test", "")
	if err != nil || v3.Version != 3 {
		t.Fatalf("publish 3: info=%+v err=%v", v3, err)
	}
	if cur, pinnedFlag, _ := st.List(); cur != 1 || !pinnedFlag {
		t.Fatalf("after pinned publish: current=%d pinned=%t, want 1/true", cur, pinnedFlag)
	}
	// Unpin to latest snaps to v3.
	latest, rollback, err := st.Pin(0)
	if err != nil || rollback || latest.Version != 3 {
		t.Fatalf("unpin: info=%+v rollback=%t err=%v", latest, rollback, err)
	}
	if cur, pinnedFlag, _ := st.List(); cur != 3 || pinnedFlag {
		t.Fatalf("after unpin: current=%d pinned=%t, want 3/false", cur, pinnedFlag)
	}
}

func TestStorePublishRejections(t *testing.T) {
	models := testModels(t)
	st, _ := openTestStore(t, t.TempDir())
	if _, _, err := st.Publish(models[0], "fp-x", "test", ""); err != nil {
		t.Fatal(err)
	}

	// Divergent bytes at an already-stored fingerprint → conflict.
	if _, _, err := st.Publish(models[1], "fp-x", "test", ""); !errors.Is(err, ErrConflict) {
		t.Fatalf("divergent publish: err=%v, want ErrConflict", err)
	}
	// Garbage bytes → invalid model.
	if _, _, err := st.Publish([]byte("not a model"), "", "test", ""); !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("garbage publish: err=%v, want ErrInvalidModel", err)
	}
	// A torn model file (valid prefix) → invalid model, nothing stored.
	if _, _, err := st.Publish(models[0][:len(models[0])/2], "", "test", ""); !errors.Is(err, ErrInvalidModel) {
		t.Fatalf("torn publish: err=%v, want ErrInvalidModel", err)
	}
	if _, _, versions := st.List(); len(versions) != 1 {
		t.Fatalf("rejected publishes stored versions: %d", len(versions))
	}

	// Pinning a version that does not exist → not found.
	if _, _, err := st.Pin(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("pin missing: err=%v, want ErrNotFound", err)
	}
}

func TestStoreRestartKeepsState(t *testing.T) {
	models := testModels(t)
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	for i, m := range models {
		if _, _, err := st.Publish(m, "", "test", ""); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if _, _, err := st.Pin(2); err != nil {
		t.Fatal(err)
	}
	curBefore, pinnedBefore, versionsBefore := st.List()

	// Reopen: the rescan must reproduce the same state, re-verifying every
	// digest along the way.
	st2, _ := openTestStore(t, dir)
	cur, pinned, versions := st2.List()
	if cur != curBefore || pinned != pinnedBefore || len(versions) != len(versionsBefore) {
		t.Fatalf("restart changed state: %d/%t/%d, want %d/%t/%d",
			cur, pinned, len(versions), curBefore, pinnedBefore, len(versionsBefore))
	}
	for i := range versions {
		if versions[i] != versionsBefore[i] {
			t.Fatalf("restart changed version record %d: %+v != %+v", i, versions[i], versionsBefore[i])
		}
	}
	info, raw, err := st2.Get(cur)
	if err != nil || !bytes.Equal(raw, models[1]) {
		t.Fatalf("get after restart: info=%+v err=%v", info, err)
	}
}
