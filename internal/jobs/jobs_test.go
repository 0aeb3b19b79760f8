package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/semantic"
)

var (
	mdlOnce sync.Once
	mdlDet  *core.Detector
	mdlSem  *semantic.Model
	mdlErr  error
)

// testDetector builds one cheap model pair for the whole package.
func testDetector(t *testing.T) *core.Detector {
	t.Helper()
	mdlOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 1500, 31)
		cfg := core.DefaultTrainConfig()
		cfg.Languages = []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2()}
		ds := distsup.DefaultConfig()
		ds.PositivePairs, ds.NegativePairs = 1500, 1500
		cfg.DistSup = ds
		var res *pipeline.Result
		res, mdlErr = pipeline.Run(context.Background(), pipeline.NewSliceSource(c.Columns), pipeline.Options{Workers: 1, Train: cfg})
		if mdlErr != nil {
			return
		}
		mdlDet = res.Detector
		if mdlErr != nil {
			return
		}
		mdlSem, mdlErr = semantic.Train(c, semantic.DefaultConfig())
	})
	if mdlErr != nil {
		t.Fatal(mdlErr)
	}
	return mdlDet
}

func modelFn(det *core.Detector) func() (*core.Detector, *semantic.Model) {
	return func() (*core.Detector, *semantic.Model) { return det, mdlSem }
}

// testTable builds a dirty audit table with unique column names.
func testTable(cols int, seed int64) map[string][]string {
	c := corpus.Generate(corpus.EntXLSProfile(), cols, seed)
	out := make(map[string][]string, len(c.Columns))
	for i, col := range c.Columns {
		out[fmt.Sprintf("%03d-%s", i, col.Name)] = col.Values
	}
	return out
}

func openManager(t *testing.T, ctx context.Context, cfg Config) *Manager {
	t.Helper()
	m, err := Open(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := m.Close(cctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return m
}

// waitStatus polls until the job reaches want, failing fast on a
// different terminal state.
func waitStatus(t *testing.T, m *Manager, id string, want Status) *State {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err == nil && st.Status == want {
			return st
		}
		if err == nil && st.Status.Terminal() && !want.Terminal() {
			t.Fatalf("job %s reached terminal %s (error %q) while waiting for %s",
				id, st.Status, st.Error, want)
		}
		if err == nil && st.Status.Terminal() && want.Terminal() && st.Status != want {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.Status, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s", id, want)
	return nil
}

func TestSubmitRunDone(t *testing.T) {
	det := testDetector(t)
	table := testTable(32, 99)
	m := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 2, Model: modelFn(det),
	})
	st, err := m.Submit(context.Background(), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusQueued || st.ColumnsTotal != len(table) {
		t.Fatalf("initial state: %+v", st)
	}
	done := waitStatus(t, m, st.ID, StatusDone)
	if done.ColumnsDone != len(table) || len(done.Results) != len(table) {
		t.Fatalf("done state: done=%d results=%d want %d",
			done.ColumnsDone, len(done.Results), len(table))
	}
	if done.FindingsTotal() == 0 {
		t.Fatal("dirty table produced no findings")
	}
	if done.StartedUnix == 0 || done.FinishedUnix == 0 {
		t.Fatalf("missing timestamps: %+v", done)
	}
	// Results must follow the deterministic audit order.
	sp, err := m.store.GetSpec(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range sp.ColumnOrder() {
		if done.Results[i].Column != name {
			t.Fatalf("result %d is column %q, want %q", i, done.Results[i].Column, name)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	det := testDetector(t)
	m := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
	})
	if _, err := m.Submit(context.Background(), nil, 0); err == nil {
		t.Fatal("empty table must be rejected")
	}
}

// blockedManager returns a manager whose single worker blocks inside the
// model snapshot until release is closed — the deterministic way to hold
// a job "running" while the test manipulates the queue.
func blockedManager(t *testing.T, cfg Config) (*Manager, chan struct{}) {
	t.Helper()
	det := testDetector(t)
	release := make(chan struct{})
	cfg.Workers = 1
	cfg.Model = func() (*core.Detector, *semantic.Model) {
		<-release
		return det, mdlSem
	}
	m := openManager(t, context.Background(), cfg)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return m, release
}

// submitAndOccupy submits one job and waits until the worker has popped
// it (queue depth back to zero), so subsequent submissions measure pure
// queue capacity.
func submitAndOccupy(t *testing.T, m *Manager) *State {
	t.Helper()
	st, err := m.Submit(context.Background(), testTable(2, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for m.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return st
}

func TestQueueFullBackpressure(t *testing.T) {
	m, release := blockedManager(t, Config{Dir: t.TempDir(), MaxQueued: 2})
	first := submitAndOccupy(t, m)

	var queued []*State
	for i := 0; i < 2; i++ {
		st, err := m.Submit(context.Background(), testTable(2, int64(10+i)), 0)
		if err != nil {
			t.Fatalf("submission %d within capacity: %v", i, err)
		}
		queued = append(queued, st)
	}
	if _, err := m.Submit(context.Background(), testTable(2, 99), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission: got %v, want ErrQueueFull", err)
	}
	close(release)
	waitStatus(t, m, first.ID, StatusDone)
	for _, st := range queued {
		waitStatus(t, m, st.ID, StatusDone)
	}
}

func TestFIFOOrder(t *testing.T) {
	var mu sync.Mutex
	var pickups []string
	m, release := blockedManager(t, Config{
		Dir: t.TempDir(), MaxQueued: 8,
		CheckpointHook: func(id string, done int) {
			if done == 1 {
				mu.Lock()
				pickups = append(pickups, id)
				mu.Unlock()
			}
		},
	})
	first := submitAndOccupy(t, m)
	want := []string{first.ID}
	for i := 0; i < 3; i++ {
		st, err := m.Submit(context.Background(), testTable(2, int64(20+i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	close(release)
	for _, id := range want {
		waitStatus(t, m, id, StatusDone)
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(pickups) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want FIFO %v", pickups, want)
	}
}

func TestCancelQueued(t *testing.T) {
	m, release := blockedManager(t, Config{Dir: t.TempDir(), MaxQueued: 4})
	first := submitAndOccupy(t, m)
	queued, err := m.Submit(context.Background(), testTable(2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil || st.Status != StatusCancelled {
		t.Fatalf("cancel queued: %v %v", st, err)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: got %v, want ErrTerminal", err)
	}
	close(release)
	waitStatus(t, m, first.ID, StatusDone)
	got := waitStatus(t, m, queued.ID, StatusCancelled)
	if got.ColumnsDone != 0 {
		t.Fatalf("cancelled-while-queued job ran %d columns", got.ColumnsDone)
	}
}

func TestCancelRunning(t *testing.T) {
	det := testDetector(t)
	var m *Manager
	cancelled := make(chan struct{})
	var once sync.Once
	m = openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
		CheckpointHook: func(id string, done int) {
			once.Do(func() {
				if _, err := m.Cancel(id); err != nil {
					t.Errorf("cancel running: %v", err)
				}
				close(cancelled)
			})
		},
	})
	st, err := m.Submit(context.Background(), testTable(6, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	<-cancelled
	got := waitStatus(t, m, st.ID, StatusCancelled)
	if got.ColumnsDone == 0 || got.ColumnsDone >= got.ColumnsTotal {
		t.Fatalf("cancelled mid-run, columns_done=%d of %d", got.ColumnsDone, got.ColumnsTotal)
	}
	if got.Error != "cancelled by client" {
		t.Fatalf("error = %q", got.Error)
	}
}

func TestJobDeadline(t *testing.T) {
	det := testDetector(t)
	m := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
		JobTimeout: 30 * time.Millisecond,
		CheckpointHook: func(id string, done int) {
			time.Sleep(40 * time.Millisecond) // force the deadline past
		},
	})
	st, err := m.Submit(context.Background(), testTable(6, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := waitStatus(t, m, st.ID, StatusFailed)
	if got.ColumnsDone >= got.ColumnsTotal {
		t.Fatal("job finished despite the deadline")
	}
	if want := "deadline"; !strings.Contains(got.Error, want) {
		t.Fatalf("error = %q, want mention of %q", got.Error, want)
	}
}

func TestDeleteSemantics(t *testing.T) {
	m, release := blockedManager(t, Config{Dir: t.TempDir(), MaxQueued: 4})
	first := submitAndOccupy(t, m)
	if err := m.Delete(first.ID); !errors.Is(err, ErrNotTerminal) {
		t.Fatalf("delete running: got %v, want ErrNotTerminal", err)
	}
	close(release)
	waitStatus(t, m, first.ID, StatusDone)
	if err := m.Delete(first.ID); err != nil {
		t.Fatalf("delete done: %v", err)
	}
	if _, err := m.Get(first.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: got %v, want ErrNotFound", err)
	}
	if err := m.Delete(first.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	det := testDetector(t)
	m, err := Open(context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), testTable(2, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

// TestDrainResumeByteIdentical is the core durability property in its
// simplest form: a job interrupted by a drain mid-execution resumes on
// the next Open and produces byte-identical findings to a clean run.
func TestDrainResumeByteIdentical(t *testing.T) {
	det := testDetector(t)
	table := testTable(8, 11)

	// Clean reference run.
	cleanMgr := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
	})
	cst, err := cleanMgr.Submit(context.Background(), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := waitStatus(t, cleanMgr, cst.ID, StatusDone)
	want, err := json.Marshal(clean.Results)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: kill the manager's context after the second
	// checkpoint, mid-job.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := make(chan struct{})
	var once sync.Once
	m1, err := Open(ctx, Config{
		Dir: dir, Workers: 1, Model: modelFn(det),
		CheckpointHook: func(id string, done int) {
			if done == 2 {
				once.Do(func() {
					cancel()
					close(interrupted)
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(context.Background(), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-interrupted
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	mid, err := m1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Status != StatusRunning || mid.ColumnsDone == 0 || mid.ColumnsDone >= len(table) {
		t.Fatalf("after drain: status=%s columns_done=%d", mid.Status, mid.ColumnsDone)
	}

	// Reopen: the job must be recovered, resumed, and converge.
	m2 := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(det),
	})
	if m2.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1", m2.Recovered())
	}
	final := waitStatus(t, m2, st.ID, StatusDone)
	if final.Resumes < 1 {
		t.Fatalf("resumes = %d, want >= 1", final.Resumes)
	}
	got, err := json.Marshal(final.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed findings differ from clean run\nclean: %s\nresumed: %s", want, got)
	}
}

// TestRecoveryRebuildsCorruptState: a job whose state file fails its CRC
// restarts from the immutable spec and still converges to the clean
// run's bytes.
func TestRecoveryRebuildsCorruptState(t *testing.T) {
	det := testDetector(t)
	table := testTable(4, 13)

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "00112233aabbccdd"
	sp := &Spec{ID: id, Seq: 0, Columns: table, SubmittedUnix: 1}
	if err := store.PutSpec(sp); err != nil {
		t.Fatal(err)
	}
	// A running state whose results are inconsistent garbage, then a torn
	// file on top: both layers of defense should funnel into a clean
	// restart.
	bad := &State{ID: id, Status: StatusRunning, ColumnsTotal: 4, ColumnsDone: 3, SubmittedUnix: 1}
	if err := store.PutState(bad); err != nil {
		t.Fatal(err)
	}
	tearFile(t, filepath.Join(dir, id, "state.bin"))

	m := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(det),
	})
	final := waitStatus(t, m, id, StatusDone)
	if final.ColumnsDone != 4 || len(final.Results) != 4 {
		t.Fatalf("rebuilt job incomplete: %+v", final)
	}

	// Reference run over the same table.
	m2 := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
	})
	st2, err := m2.Submit(context.Background(), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := waitStatus(t, m2, st2.ID, StatusDone)
	a, _ := json.Marshal(final.Results)
	b, _ := json.Marshal(clean.Results)
	if string(a) != string(b) {
		t.Fatalf("rebuilt findings differ from clean run\nclean: %s\nrebuilt: %s", b, a)
	}
}

// TestRecoveryFailsCorruptSpec: an unreadable spec is unexecutable; the
// job must surface as failed rather than vanish or wedge the queue.
func TestRecoveryFailsCorruptSpec(t *testing.T) {
	det := testDetector(t)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "ffeeddccbbaa9988"
	if err := store.PutSpec(&Spec{ID: id, Columns: testTable(2, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := store.PutState(&State{ID: id, Status: StatusQueued, ColumnsTotal: 2}); err != nil {
		t.Fatal(err)
	}
	tearFile(t, filepath.Join(dir, id, "spec.bin"))

	m := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(det),
	})
	st := waitStatus(t, m, id, StatusFailed)
	if !strings.Contains(st.Error, "spec") {
		t.Fatalf("error = %q, want mention of the corrupt spec", st.Error)
	}
}
