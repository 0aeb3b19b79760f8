package jobs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/envelope"
)

// On-disk layout: one directory per job under the store root,
//
//	<dir>/<id>/spec.bin   — envelope(specMagic,  JSON Spec), written once
//	<dir>/<id>/state.bin  — envelope(stateMagic, JSON State), rewritten
//	                        atomically at every transition and checkpoint
//
// Both files go through atomicio (temp + fsync + rename + dir fsync), so
// a reader — a poll handler racing a checkpoint, or a recovery scan after
// a kill — only ever sees a complete old or complete new file. The CRC64
// envelope catches anything the filesystem tears anyway.
var (
	specMagic  = []byte("ADJSPEC1")
	stateMagic = []byte("ADJSTAT1")
)

// maxFilePayload bounds the declared payload length of job files (1 GiB),
// the same defense-in-depth cap the model and checkpoint readers use.
const maxFilePayload = 1 << 30

// Store persists job specs and states under one directory. Methods are
// safe for concurrent use on distinct jobs; the Manager serializes the
// writers of any single job.
type Store struct {
	dir string
}

// OpenStore creates (if needed) and opens the job directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (st *Store) jobDir(id string) string    { return filepath.Join(st.dir, id) }
func (st *Store) specPath(id string) string  { return filepath.Join(st.dir, id, "spec.bin") }
func (st *Store) statePath(id string) string { return filepath.Join(st.dir, id, "state.bin") }

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

// PutState atomically replaces the job's durable state — the per-column
// checkpoint write on the executor's hot path.
func (st *Store) PutState(s *State) error {
	if !validID(s.ID) {
		return fmt.Errorf("jobs: invalid job id %q", s.ID)
	}
	return writeEnveloped(st.statePath(s.ID), stateMagic, s)
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

// GetState loads and integrity-checks a job state.
func (st *Store) GetState(id string) (*State, error) {
	s := new(State)
	if err := readEnveloped(st.statePath(id), stateMagic, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Delete removes a job's directory entirely.
func (st *Store) Delete(id string) error {
	if !validID(id) {
		return ErrNotFound
	}
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
