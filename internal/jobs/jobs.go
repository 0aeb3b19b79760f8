// Package jobs is the asynchronous batch-audit subsystem: a bounded FIFO
// job queue with backpressure, a configurable worker pool that executes
// whole-table audits column-at-a-time against the atomically-snapshotted
// model, and a durable job store that survives restarts.
//
// The paper's production deployment audits entire spreadsheet corpora
// (Section 5 evaluates over millions of corpus columns), not single
// columns per HTTP round-trip; this package is the serving-side analogue:
// clients submit a table once, poll progress, and page through findings
// while the audit runs in the background.
//
// Durability contract: the job spec is written once at submission. The
// execution state (status, per-column progress, findings so far) is a
// snapshot plus a journal. Every transition — submission, executor
// pickup, cancel, done, failed — writes a snapshot holding every finding
// through the internal/atomicio temp+fsync+rename protocol and removes the
// journal; every completed column in between appends one record to the
// journal and fsyncs it, so a checkpoint costs that column's findings, not
// the job's. All three files use the shared CRC64 integrity envelope. A
// process kill at any point therefore loses at most the column in flight:
// on restart, queued and running jobs are re-enqueued in submission order
// and resume from the last completed column, and — because
// audit.CheckColumn is deterministic in (model, column) — the resumed
// job's findings are byte-identical to an uninterrupted run. A journal
// record torn or bit-rotted on disk ends replay there: the job resumes
// after the last good record and recomputes the rest. A snapshot
// corrupted on disk fails its CRC on recovery and the job restarts from
// column zero, converging to the same bytes. The terminal snapshot is the
// compaction: a finished job is its spec and one state file.
//
// State machine:
//
//	queued ──► running ──► done
//	   │          │  ├────► failed     (executor error, deadline)
//	   └──────────┴──┴────► cancelled  (DELETE /v1/jobs/{id})
//
// A drain (Manager.Close) or crash is deliberately *not* a transition:
// the job stays queued/running on disk and execution continues on the
// next Open.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"repro/internal/audit"
)

// Status is a job's position in the lifecycle state machine.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final: terminal jobs are never
// re-enqueued on recovery and can be deleted.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Errors surfaced to the HTTP layer, which maps them onto status codes
// (429 + Retry-After, 404, 409, 503).
var (
	// ErrQueueFull is returned by Submit when MaxQueued jobs are already
	// waiting — the backpressure signal behind the API's 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit after Close has begun draining.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal is returned by Cancel when the job already finished.
	ErrTerminal = errors.New("jobs: job already in a terminal state")
	// ErrNotTerminal is returned by Delete for jobs still in flight.
	ErrNotTerminal = errors.New("jobs: job not in a terminal state")
)

// Spec is the immutable description of a batch audit job, written once at
// submission. Exactly one of Columns and DB is set: Columns maps column
// names to cell values exactly as posted (a table job), DB describes a
// whole-database audit whose values are streamed from the database at
// execution time.
type Spec struct {
	ID string `json:"id"`
	// Seq is the submission sequence number; recovery re-enqueues
	// non-terminal jobs in Seq order so FIFO survives restarts.
	Seq     uint64              `json:"seq"`
	Columns map[string][]string `json:"columns,omitempty"`
	// DB, when set, makes this a whole-database audit job; see DBSpec.
	DB *DBSpec `json:"db,omitempty"`
	// Hints maps column names (for DB jobs, "table.column" unit names)
	// onto semantic-domain hints the executor passes to
	// audit.CheckColumnHinted. DB submissions fill it from schema
	// introspection; table submissions may post hints explicitly.
	Hints         map[string]string `json:"hints,omitempty"`
	MinConfidence float64           `json:"min_confidence"`
	SubmittedUnix int64             `json:"submitted_unix"`
	// Traceparent is the submitting request's span context in W3C form,
	// persisted with the spec so every execution of the job — including
	// resumes after a crash or drain, possibly days later in a different
	// process — records its spans under the original submission's trace.
	Traceparent string `json:"traceparent,omitempty"`
}

// ColumnOrder returns the deterministic audit order: column names sorted
// lexicographically (for DB jobs, the pinned "table.column" unit names,
// which introspection already stores sorted). Progress checkpoints are
// indices into this order, so it must be stable across restarts
// regardless of map iteration.
func (sp *Spec) ColumnOrder() []string {
	if sp.DB != nil {
		names := make([]string, len(sp.DB.Units))
		for i, u := range sp.DB.Units {
			names[i] = u.Name()
		}
		return names
	}
	names := make([]string, 0, len(sp.Columns))
	for name := range sp.Columns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NumColumns is the number of columns the job audits — the checkpoint
// denominator, valid for both table and DB jobs.
func (sp *Spec) NumColumns() int {
	if sp.DB != nil {
		return len(sp.DB.Units)
	}
	return len(sp.Columns)
}

// TotalValues is the cell count across all columns (the quantity bounded
// by the server's MaxTableValues cap). For DB jobs it is the row count
// snapshot taken at submission.
func (sp *Spec) TotalValues() int {
	if sp.DB != nil {
		total := int64(0)
		for _, u := range sp.DB.Units {
			total += u.Rows
		}
		return int(total)
	}
	total := 0
	for _, vs := range sp.Columns {
		total += len(vs)
	}
	return total
}

// ColumnResult holds the findings of one completed column.
type ColumnResult struct {
	Column   string          `json:"column"`
	Findings []audit.Finding `json:"findings"`
}

// State is the durable execution state of a job, checkpointed after every
// completed column (see Store.PutState). Results has exactly ColumnsDone
// entries, in Spec.ColumnOrder order.
type State struct {
	ID           string         `json:"id"`
	Seq          uint64         `json:"seq"`
	Status       Status         `json:"status"`
	ColumnsTotal int            `json:"columns_total"`
	ColumnsDone  int            `json:"columns_done"`
	Results      []ColumnResult `json:"results,omitempty"`
	Error        string         `json:"error,omitempty"`
	// Resumes counts executor pickups that continued from a non-zero
	// checkpoint — i.e. how many times a crash or drain interrupted it.
	Resumes       int   `json:"resumes,omitempty"`
	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`
}

// FindingsTotal is the number of findings across completed columns.
func (st *State) FindingsTotal() int {
	n := 0
	for _, cr := range st.Results {
		n += len(cr.Findings)
	}
	return n
}

// newID returns a 16-hex-char job ID from crypto/rand.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// validID gates IDs accepted from clients and directory names accepted
// from recovery scans: exactly 16 lowercase hex characters, so a crafted
// job ID can never traverse outside the jobs directory.
func validID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}
