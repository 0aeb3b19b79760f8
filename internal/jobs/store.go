package jobs

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/envelope"
)

// On-disk layout: one directory per job under the store root,
//
//	<dir>/<id>/spec.bin     — envelope(specMagic, JSON Spec), written once
//	<dir>/<id>/state.bin    — envelope(stateMagic, JSON State plus a
//	                          snapshot ID): the snapshot, replaced through
//	                          atomicio at every transition
//	<dir>/<id>/journal.bin  — one envelope(journalMagic, JSON journalRecord)
//	                          per column completed since the snapshot,
//	                          appended in place and fsynced
//
// spec.bin and state.bin go through atomicio (temp + fsync + rename + dir
// fsync), so a reader only ever sees a complete old or complete new file.
// journal.bin is the per-column checkpoint: one record, one fsync, instead
// of rewriting every finding so far. Each record names the snapshot it
// extends and its column index, so replay (GetState) applies exactly the
// records written after the current snapshot, in order, and stops at the
// first that is torn, corrupt or out of place: a torn tail costs the
// columns it held, which resume recomputes. A snapshot removes the journal,
// so the terminal snapshot is the compaction: a finished job is spec.bin
// and state.bin. A state.bin written before the journal existed has no
// snapshot ID and no journal beside it, and loads as it is.
var (
	specMagic    = []byte("ADJSPEC1")
	stateMagic   = []byte("ADJSTAT1")
	journalMagic = []byte("ADJJRNL1")
)

// maxFilePayload bounds the declared payload length of job files (1 GiB),
// the same defense-in-depth cap the model and checkpoint readers use.
const maxFilePayload = 1 << 30

// Store persists job specs and states under one directory. Methods are
// safe for concurrent use on distinct jobs; the Manager serializes the
// writers of any single job.
type Store struct {
	dir string

	mu      sync.Mutex
	durable map[string]*durable // jobs this Store may append to
}

// durable is what this Store last made durable for one job: the snapshot
// it wrote and how many columns the snapshot and journal hold together.
// Only the job's single writer touches an entry.
type durable struct {
	header   State // the snapshot's State without Results and ColumnsDone
	snapshot uint64
	columns  int
	journal  bool // journal.bin exists with its directory entry synced
}

// snapshotFile is state.bin's payload: the State, plus the ID that
// journal records must name to extend it.
type snapshotFile struct {
	*State
	Snapshot uint64 `json:"snapshot,omitempty"`
}

// journalRecord is one journal.bin record: the result of column Index,
// extending snapshot Snapshot.
type journalRecord struct {
	Snapshot uint64       `json:"snapshot"`
	Index    int          `json:"index"`
	Result   ColumnResult `json:"result"`
}

// OpenStore creates (if needed) and opens the job directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: opening store: %w", err)
	}
	return &Store{dir: dir, durable: make(map[string]*durable)}, nil
}

func (st *Store) jobDir(id string) string      { return filepath.Join(st.dir, id) }
func (st *Store) specPath(id string) string    { return filepath.Join(st.dir, id, "spec.bin") }
func (st *Store) statePath(id string) string   { return filepath.Join(st.dir, id, "state.bin") }
func (st *Store) journalPath(id string) string { return filepath.Join(st.dir, id, "journal.bin") }

// PutSpec durably writes the immutable job spec, creating the job dir.
func (st *Store) PutSpec(sp *Spec) error {
	if !validID(sp.ID) {
		return fmt.Errorf("jobs: invalid job id %q", sp.ID)
	}
	if err := os.MkdirAll(st.jobDir(sp.ID), 0o755); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return writeEnveloped(st.specPath(sp.ID), specMagic, sp)
}

// PutState durably records the job's state. When this Store wrote the
// job's current snapshot and s differs from what is durable only by more
// completed columns — the executor's per-column checkpoint — it appends
// one journal record per new column and fsyncs once. Any other change
// (pickup, a terminal transition, a restart from scratch) writes a new
// snapshot holding every result and removes the journal.
func (st *Store) PutState(s *State) error {
	if !validID(s.ID) {
		return fmt.Errorf("jobs: invalid job id %q", s.ID)
	}
	st.mu.Lock()
	d := st.durable[s.ID]
	st.mu.Unlock()
	if d != nil && d.extendedBy(s) {
		if err := st.appendColumns(s, d); err != nil {
			// The journal may now end in a torn record: snapshot next time.
			st.forget(s.ID)
			return err
		}
		return nil
	}
	return st.snapshot(s)
}

// extendedBy reports whether s is the durable state plus more columns.
func (d *durable) extendedBy(s *State) bool {
	return s.ColumnsDone == len(s.Results) && len(s.Results) > d.columns &&
		reflect.DeepEqual(headerOf(s), d.header)
}

func headerOf(s *State) State {
	h := *s
	h.Results, h.ColumnsDone = nil, 0
	return h
}

// snapshot replaces state.bin with s under a fresh random snapshot ID,
// then removes the journal. The ID is random rather than counted so that a
// journal left behind by a crash between the two steps — or one extending
// a snapshot since lost to corruption — never names the new snapshot.
func (st *Store) snapshot(s *State) error {
	st.forget(s.ID)
	snap := rand.Uint64()
	if err := writeEnveloped(st.statePath(s.ID), stateMagic, snapshotFile{State: s, Snapshot: snap}); err != nil {
		return err
	}
	if err := os.Remove(st.journalPath(s.ID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// The snapshot is durable and the stale journal names another
		// snapshot, so it is never replayed; appending after its records
		// would hide the new ones, so the next PutState snapshots again.
		return nil
	}
	if !s.Status.Terminal() {
		st.mu.Lock()
		st.durable[s.ID] = &durable{header: headerOf(s), snapshot: snap, columns: len(s.Results)}
		st.mu.Unlock()
	}
	return nil
}

// appendColumns writes one journal record per column s holds beyond d and
// fsyncs once. Creating journal.bin also syncs the job directory, so the
// records are durable when it returns.
func (st *Store) appendColumns(s *State, d *durable) error {
	var buf bytes.Buffer
	for i := d.columns; i < len(s.Results); i++ {
		rec := journalRecord{Snapshot: d.snapshot, Index: i, Result: s.Results[i]}
		if err := envelope.WriteJSON(&buf, journalMagic, rec); err != nil {
			return fmt.Errorf("jobs: encoding journal record: %w", err)
		}
	}
	path := st.journalPath(s.ID)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("jobs: appending to %s: %w", path, err)
	}
	if !d.journal {
		syncDir(filepath.Dir(path))
		d.journal = true
	}
	d.columns = len(s.Results)
	return nil
}

func (st *Store) forget(id string) {
	st.mu.Lock()
	delete(st.durable, id)
	st.mu.Unlock()
}

// GetSpec loads and integrity-checks a job spec. Corruption surfaces as
// envelope.ErrIntegrity; a missing job as ErrNotFound.
func (st *Store) GetSpec(id string) (*Spec, error) {
	sp := new(Spec)
	if err := readEnveloped(st.specPath(id), specMagic, sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// GetState loads and integrity-checks the job's snapshot, then replays
// its journal. A corrupt snapshot is an error; a torn or corrupt journal
// tail is not — the state is the snapshot plus the last good prefix.
// GetState never writes.
func (st *Store) GetState(id string) (*State, error) {
	snap := snapshotFile{State: new(State)}
	if err := readEnveloped(st.statePath(id), stateMagic, &snap); err != nil {
		return nil, err
	}
	if err := st.replay(id, snap); err != nil {
		return nil, err
	}
	return snap.State, nil
}

// replay appends the journal's records to the snapshot's results in order,
// stopping at the first record that is short, fails its CRC, does not
// decode, names another snapshot, or is not the next column.
func (st *Store) replay(id string, snap snapshotFile) error {
	s := snap.State
	f, err := os.Open(st.journalPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		var rec journalRecord
		if envelope.ReadJSON(r, journalMagic, maxFilePayload, &rec) != nil ||
			rec.Snapshot != snap.Snapshot || rec.Index != len(s.Results) {
			return nil
		}
		s.Results = append(s.Results, rec.Result)
		s.ColumnsDone = len(s.Results)
	}
}

// Delete removes a job's directory entirely.
func (st *Store) Delete(id string) error {
	if !validID(id) {
		return ErrNotFound
	}
	st.forget(id)
	return os.RemoveAll(st.jobDir(id))
}

// List returns every stored job ID (directories whose name parses as a
// job ID), sorted lexicographically for deterministic scans.
func (st *Store) List() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: scanning store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && validID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

func writeEnveloped(path string, magic []byte, v any) error {
	return atomicio.WriteTo(path, 0o644, func(w io.Writer) error {
		return envelope.WriteJSON(w, magic, v)
	})
}

func readEnveloped(path string, magic []byte, v any) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w (%s)", ErrNotFound, filepath.Base(filepath.Dir(path)))
		}
		return fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	if err := envelope.ReadJSON(f, magic, maxFilePayload, v); err != nil {
		return fmt.Errorf("jobs: %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-created entry survives a crash.
// Errors are ignored, as in atomicio: some filesystems reject fsync on
// directories.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
