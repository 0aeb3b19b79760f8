package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/faultfs"
)

// syntheticResults returns n distinct column results, no model needed.
func syntheticResults(n int) []ColumnResult {
	out := make([]ColumnResult, n)
	for i := range out {
		out[i] = ColumnResult{
			Column: fmt.Sprintf("c%02d", i),
			Findings: []audit.Finding{{
				Value: fmt.Sprintf("v%d", i), Index: i, Partner: "p", Confidence: 0.9, Kind: "pattern",
			}},
		}
	}
	return out
}

// writeJournaled checkpoints a running job the way the executor does: a
// snapshot holding the first snapCols results, then one PutState per
// further column. It returns the journal's size after each append.
func writeJournaled(t testing.TB, store *Store, id string, results []ColumnResult, snapCols int) []int64 {
	t.Helper()
	if err := store.PutSpec(&Spec{ID: id}); err != nil {
		t.Fatal(err)
	}
	st := &State{
		ID: id, Status: StatusRunning, ColumnsTotal: len(results),
		ColumnsDone: snapCols, Results: append([]ColumnResult(nil), results[:snapCols]...),
	}
	if err := store.PutState(st); err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := snapCols; i < len(results); i++ {
		st.Results = append(st.Results, results[i])
		st.ColumnsDone = i + 1
		if err := store.PutState(st); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(store.journalPath(id))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	return sizes
}

// journalBounds returns the byte offsets at which journal.bin's records
// start, followed by the file's size.
func journalBounds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := int64(len(journalMagic) + 8)
	var bounds []int64
	off := int64(0)
	for off < int64(len(data)) {
		bounds = append(bounds, off)
		off += hdr + int64(binary.LittleEndian.Uint64(data[off+int64(len(journalMagic)):])) + 8
	}
	return append(bounds, off)
}

func resultsJSON(t testing.TB, rs []ColumnResult) string {
	t.Helper()
	b, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// cleanRun audits table uninterrupted and returns its results' bytes.
func cleanRun(t *testing.T, table map[string][]string) string {
	t.Helper()
	m := openManager(t, context.Background(), Config{
		Dir: t.TempDir(), Workers: 1, Model: modelFn(testDetector(t)),
	})
	st, err := m.Submit(context.Background(), table, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := waitStatus(t, m, st.ID, StatusDone)
	if clean.FindingsTotal() == 0 {
		t.Fatal("clean run produced no findings; byte comparison would be vacuous")
	}
	return resultsJSON(t, clean.Results)
}

// killAfter runs a manager over dir until the executor has checkpointed
// n columns, then drains it. When table is non-nil it submits it first and
// returns the new job's ID.
func killAfter(t *testing.T, dir string, n int, table map[string][]string) string {
	t.Helper()
	ctx, cancelCause := context.WithCancelCause(context.Background())
	defer cancelCause(nil)
	ks := faultfs.NewKillSwitch(n, func() { cancelCause(errors.New("chaos: injected kill")) })
	m, err := Open(ctx, Config{
		Dir: dir, Workers: 1, Model: modelFn(testDetector(t)),
		CheckpointHook: func(string, int) { ks.Hit() },
	})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	if table != nil {
		st, err := m.Submit(context.Background(), table, 0)
		if err != nil {
			t.Fatal(err)
		}
		id = st.ID
	}
	deadline := time.Now().Add(60 * time.Second)
	for !ks.Fired() {
		if time.Now().After(deadline) {
			t.Fatal("kill switch never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer ccancel()
	if err := m.Close(cctx); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestJournalAppendsBetweenSnapshots: per-column checkpoints leave the
// snapshot alone and grow the journal by one record each; a state that
// also changes status is a snapshot, which folds the journal back into
// state.bin.
func TestJournalAppendsBetweenSnapshots(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "0a0b0c0d0e0f0102"
	if err := store.PutSpec(&Spec{ID: id}); err != nil {
		t.Fatal(err)
	}
	results := syntheticResults(6)
	st := &State{ID: id, Status: StatusRunning, ColumnsTotal: len(results)}
	if err := store.PutState(st); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(store.statePath(id))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results[:5] {
		st.Results = append(st.Results, r)
		st.ColumnsDone = i + 1
		if err := store.PutState(st); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(store.statePath(id)); err != nil || !bytes.Equal(got, snap) {
			t.Fatalf("column %d rewrote state.bin (err %v)", i, err)
		}
		if n := len(journalBounds(t, store.journalPath(id))) - 1; n != i+1 {
			t.Fatalf("journal holds %d records after %d columns", n, i+1)
		}
		back, err := store.GetState(id)
		if err != nil {
			t.Fatal(err)
		}
		if back.ColumnsDone != i+1 || resultsJSON(t, back.Results) != resultsJSON(t, results[:i+1]) {
			t.Fatalf("replay after column %d: %d columns", i, back.ColumnsDone)
		}
	}
	st.Results = append(st.Results, results[5])
	st.ColumnsDone = 6
	st.Status = StatusDone
	if err := store.PutState(st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.journalPath(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("journal survived the terminal snapshot: %v", err)
	}
	back, err := store.GetState(id)
	if err != nil {
		t.Fatal(err)
	}
	if back.Status != StatusDone || resultsJSON(t, back.Results) != resultsJSON(t, results) {
		t.Fatalf("terminal snapshot: %+v", back)
	}
}

// TestJournalTornTailKeepsPrefix: cutting journal.bin at every byte
// offset inside its last record loses exactly that record, silently.
func TestJournalTornTailKeepsPrefix(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "1a1b1c1d1e1f1011"
	results := syntheticResults(4)
	sizes := writeJournaled(t, store, id, results, 1)
	path := store.journalPath(id)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := resultsJSON(t, results[:3])
	for off := sizes[1]; off < sizes[2]; off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.GetState(id)
		if err != nil {
			t.Fatalf("cut at %d: %v", off, err)
		}
		if st.ColumnsDone != 3 || resultsJSON(t, st.Results) != want {
			t.Fatalf("cut at %d: %d columns, want 3", off, st.ColumnsDone)
		}
	}
}

// TestJournalFlippedRecordResumes: a bit flip inside a middle record
// truncates replay there, and the resumed job recomputes the lost columns
// to the clean run's bytes.
func TestJournalFlippedRecordResumes(t *testing.T) {
	table := testTable(12, 7)
	want := cleanRun(t, table)

	dir := t.TempDir()
	id := killAfter(t, dir, 6, table)
	path := filepath.Join(dir, id, "journal.bin")
	bounds := journalBounds(t, path)
	if len(bounds) != 7 {
		t.Fatalf("journal holds %d records, want 6", len(bounds)-1)
	}
	if err := faultfs.FlipByte(path, bounds[2]+20, 0x40); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.GetState(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.ColumnsDone != 2 {
		t.Fatalf("replay past a corrupt record: %d columns, want 2", st.ColumnsDone)
	}

	m := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(testDetector(t)),
	})
	done := waitStatus(t, m, id, StatusDone)
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}
	if got := resultsJSON(t, done.Results); got != want {
		t.Fatalf("resumed findings differ from clean run\nclean: %s\nresumed: %s", want, got)
	}
}

// TestStaleJournalNotReplayed: a journal left behind by a crash between
// writing a snapshot and removing the journal names the old snapshot and
// is never replayed onto the new one.
func TestStaleJournalNotReplayed(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "2a2b2c2d2e2f2021"
	writeJournaled(t, store, id, syntheticResults(3), 0)
	path := store.journalPath(id)
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Restart from scratch in a new process, as recovery does for a
	// state it cannot use, then put the old journal back.
	restarted, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.PutState(&State{ID: id, Status: StatusQueued, ColumnsTotal: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot kept the journal: %v", err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := restarted.GetState(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusQueued || st.ColumnsDone != 0 || len(st.Results) != 0 {
		t.Fatalf("stale journal replayed onto the new snapshot: %+v", st)
	}
}

// TestParentFormatStateResumes: a running job whose state.bin predates the
// journal (no snapshot ID, no journal.bin) loads and resumes to the clean
// run's bytes.
func TestParentFormatStateResumes(t *testing.T) {
	table := testTable(8, 99)
	want := cleanRun(t, table)
	var clean []ColumnResult
	if err := json.Unmarshal([]byte(want), &clean); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "3a3b3c3d3e3f3031"
	if err := store.PutSpec(&Spec{ID: id, Columns: table, SubmittedUnix: 1}); err != nil {
		t.Fatal(err)
	}
	old := &State{
		ID: id, Status: StatusRunning, ColumnsTotal: 6, ColumnsDone: 3,
		Results: clean[:3], SubmittedUnix: 1, StartedUnix: 1,
	}
	if err := writeEnveloped(store.statePath(id), stateMagic, old); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, context.Background(), Config{
		Dir: dir, Workers: 1, Model: modelFn(testDetector(t)),
	})
	done := waitStatus(t, m, id, StatusDone)
	if done.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", done.Resumes)
	}
	if got := resultsJSON(t, done.Results); got != want {
		t.Fatalf("resumed findings differ from clean run\nclean: %s\nresumed: %s", want, got)
	}
}

// FuzzJournalReplay puts arbitrary bytes as journal.bin after a valid
// snapshot: GetState never panics or errors, and its results are a prefix
// of the records the seed journal was written from.
func FuzzJournalReplay(f *testing.F) {
	store, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	const id = "4a4b4c4d4e4f4041"
	results := syntheticResults(4)
	writeJournaled(f, store, id, results, 1)
	path := store.journalPath(id)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), seed...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, journal []byte) {
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := store.GetState(id)
		if err != nil {
			t.Fatalf("GetState: %v", err)
		}
		n := len(st.Results)
		if n < 1 || n > len(results) || st.ColumnsDone != n {
			t.Fatalf("replayed %d results (columns_done %d), want 1..%d", n, st.ColumnsDone, len(results))
		}
		if resultsJSON(t, st.Results) != resultsJSON(t, results[:n]) {
			t.Fatalf("replayed results are not a prefix of the seed's")
		}
	})
}
