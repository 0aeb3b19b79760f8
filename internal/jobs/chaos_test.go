package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// tearFile truncates a store file to half its size — a torn write landed
// on disk — so its CRC envelope fails on the next read.
func tearFile(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.Tear(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestChaosKillResumeByteIdentical is the subsystem's headline property
// under real fault injection: the executor is killed mid-job four times
// via faultfs kill switches at checkpoint boundaries, the newest state
// checkpoint is torn once and bit-flipped once between cycles, and the
// eventually-completed job must still produce findings byte-identical to
// an uninterrupted clean run.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	det := testDetector(t)
	table := testTable(24, 99)

	// Clean reference run in its own directory.
	cleanMgr := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(det),
	})
	cst, err := cleanMgr.Submit(context.Background(), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := waitStatus(t, cleanMgr, cst.ID, StatusDone)
	if clean.FindingsTotal() == 0 {
		t.Fatal("clean run produced no findings; byte comparison would be vacuous")
	}
	want, err := json.Marshal(clean.Results)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: each cycle opens a manager whose kill switch fires on the
	// second per-column checkpoint, then drains and optionally corrupts the
	// freshest checkpoint before the next cycle recovers it.
	dir := t.TempDir()
	var id string
	const killCycles = 4
	for cycle := 0; cycle < killCycles; cycle++ {
		ctx, cancelCause := context.WithCancelCause(context.Background())
		ks := faultfs.NewKillSwitch(2, func() {
			cancelCause(errors.New("chaos: injected kill"))
		})
		m, err := Open(ctx, Config{
			Dir: dir, Workers: 1, Model: modelFn(det),
			CheckpointHook: func(string, int) { ks.Hit() },
		})
		if err != nil {
			t.Fatalf("cycle %d open: %v", cycle, err)
		}
		if cycle == 0 {
			st, err := m.Submit(context.Background(), table, 0)
			if err != nil {
				t.Fatal(err)
			}
			id = st.ID
		} else if m.Recovered() != 1 {
			t.Fatalf("cycle %d recovered %d jobs, want 1", cycle, m.Recovered())
		}
		deadline := time.Now().Add(60 * time.Second)
		for !ks.Fired() {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: kill switch never fired", cycle)
			}
			time.Sleep(2 * time.Millisecond)
		}
		cctx, ccancel := context.WithTimeout(context.Background(), 20*time.Second)
		if err := m.Close(cctx); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
		ccancel()
		cancelCause(nil)

		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("cycle %d state after kill: %v", cycle, err)
		}
		if st.Status.Terminal() {
			t.Fatalf("cycle %d: job reached %s before enough kills", cycle, st.Status)
		}
		statePath := filepath.Join(dir, id, "state.bin")
		switch cycle {
		case 0:
			// Torn write on top of the kill: CRC fails, job restarts from
			// column zero.
			tearFile(t, statePath)
		case 1:
			// Bit rot inside the payload (offset past the 16-byte header).
			if err := faultfs.FlipByte(statePath, 20, 0x40); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Final cycle: no kill switch; the job must resume from its last valid
	// checkpoint and converge.
	m := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(det),
	})
	done := waitStatus(t, m, id, StatusDone)
	if done.Resumes < 1 {
		t.Fatalf("resumes = %d, want >= 1 after %d kills", done.Resumes, killCycles)
	}
	got, err := json.Marshal(done.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("chaos-run findings differ from clean run after %d kills\nclean: %s\nchaos: %s",
			killCycles, want, got)
	}
	if done.FindingsTotal() != clean.FindingsTotal() {
		t.Fatalf("findings total %d != clean %d", done.FindingsTotal(), clean.FindingsTotal())
	}
}

// TestChaosKillTornJournalResume is the journal's counterpart of
// TestChaosKillResumeByteIdentical: the executor is killed four times at
// checkpoint boundaries, the newest journal record is torn after one cycle
// and bit-flipped after another, each damaged record costs exactly its
// column, and the completed job's findings are byte-identical to a clean
// run.
func TestChaosKillTornJournalResume(t *testing.T) {
	table := testTable(24, 99)
	want := cleanRun(t, table)

	dir := t.TempDir()
	var id string
	const killCycles, perCycle = 4, 3
	for cycle := 0; cycle < killCycles; cycle++ {
		if cycle == 0 {
			id = killAfter(t, dir, perCycle, table)
		} else {
			killAfter(t, dir, perCycle, nil)
		}
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.GetState(id)
		if err != nil {
			t.Fatalf("cycle %d state after kill: %v", cycle, err)
		}
		if st.Status.Terminal() {
			t.Fatalf("cycle %d: job reached %s before enough kills", cycle, st.Status)
		}
		// Every pickup snapshots and removes the journal, so it holds
		// exactly this cycle's columns.
		path := filepath.Join(dir, id, "journal.bin")
		bounds := journalBounds(t, path)
		if len(bounds) != perCycle+1 {
			t.Fatalf("cycle %d: journal holds %d records, want %d", cycle, len(bounds)-1, perCycle)
		}
		newest := bounds[perCycle-1]
		switch cycle {
		case 0:
			err = faultfs.Tear(path, (newest+bounds[perCycle])/2)
		case 1:
			err = faultfs.FlipByte(path, newest+20, 0x40)
		default:
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		damaged, err := store.GetState(id)
		if err != nil {
			t.Fatalf("cycle %d: damaged journal is an error: %v", cycle, err)
		}
		if damaged.ColumnsDone != st.ColumnsDone-1 {
			t.Fatalf("cycle %d: %d columns after damaging the newest record, want %d",
				cycle, damaged.ColumnsDone, st.ColumnsDone-1)
		}
	}

	m := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(testDetector(t)),
	})
	done := waitStatus(t, m, id, StatusDone)
	if done.Resumes != killCycles {
		t.Fatalf("resumes = %d, want %d", done.Resumes, killCycles)
	}
	if got := resultsJSON(t, done.Results); got != want {
		t.Fatalf("chaos-run findings differ from clean run after %d kills\nclean: %s\nchaos: %s",
			killCycles, want, got)
	}
	// Drain first: GetState sees "done" once the terminal snapshot lands,
	// just before the journal is removed.
	cctx, ccancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer ccancel()
	if err := m.Close(cctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, id, "journal.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("finished job kept its journal: %v", err)
	}
}
