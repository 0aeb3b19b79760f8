package jobs

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dbsource"
	"repro/internal/observe"
)

// Errors specific to database audit jobs, mapped by the HTTP layer onto
// 400 (ErrDatabase: the DSN is unreachable, the driver unknown, a table
// filter names a missing table) and 413 (ErrTooLarge).
var (
	// ErrDatabase wraps submission-time database failures.
	ErrDatabase = errors.New("jobs: database error")
	// ErrTooLarge reports a database whose row-count snapshot exceeds the
	// caller's value cap.
	ErrTooLarge = errors.New("jobs: database exceeds the value cap")
)

// DBSpec pins a whole-database audit at submission time: the connection
// coordinates, the introspected walk (every table.column with its row
// count, in audit order), and the schema hash the executor re-checks
// before every pickup. The pin is the resume guarantee: values are
// re-streamed from the live database on every execution, so a database
// mutated between checkpoint and resume would silently change findings —
// instead the hash mismatch fails the job loudly.
type DBSpec struct {
	Driver string `json:"driver"`
	// DSN is stored verbatim in the spec file. Credentials in a DSN
	// therefore land on disk under the jobs directory — use trust-based
	// auth or a credential-free DSN where that matters.
	DSN        string   `json:"dsn"`
	Tables     []string `json:"tables,omitempty"`
	SchemaHash string   `json:"schema_hash"`
	Units      []DBUnit `json:"units"`
}

// DBUnit is one pinned table.column with its submission-time row count.
type DBUnit struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Rows   int64  `json:"rows"`
}

// Name is the unit's qualified "table.column" column name.
func (u DBUnit) Name() string { return u.Table + "." + u.Column }

// DBRequest parameterizes SubmitDB.
type DBRequest struct {
	// Driver is the database/sql driver name (defaults to the in-tree
	// dbsource.DriverName).
	Driver string
	// DSN is the data source name (required).
	DSN string
	// Tables optionally restricts the audit to these tables.
	Tables []string
	// MinConfidence filters findings as in table submissions.
	MinConfidence float64
	// MaxValues, when > 0, rejects databases whose total row-count
	// snapshot exceeds it (ErrTooLarge) — the DB analogue of the HTTP
	// layer's MaxTableValues cap.
	MaxValues int
}

// SubmitDB validates, introspects, durably persists, and enqueues a
// whole-database audit job. Introspection happens here, synchronously, so
// a bad DSN or table filter fails the submission with ErrDatabase instead
// of a queued job that dies later; the resulting schema snapshot (units,
// row counts, hash) and the name/type-derived semantic-domain hints are
// pinned into the spec. Queue admission shares Submit's backpressure
// contract (ErrQueueFull, ErrClosed).
func (m *Manager) SubmitDB(ctx context.Context, req DBRequest) (*State, error) {
	if req.DSN == "" {
		return nil, fmt.Errorf("%w: empty DSN", ErrDatabase)
	}
	if req.Driver == "" {
		req.Driver = dbsource.DriverName
	}
	src, err := dbsource.NewSource(ctx, dbsource.Config{
		Driver:  req.Driver,
		DSN:     req.DSN,
		Tables:  req.Tables,
		Metrics: m.cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDatabase, err)
	}
	defer src.Close()

	db := &DBSpec{
		Driver:     req.Driver,
		DSN:        req.DSN,
		Tables:     req.Tables,
		SchemaHash: src.SchemaHash(),
	}
	hints := make(map[string]string)
	total := 0
	for i := 0; i < src.Len(); i++ {
		u := src.Unit(i)
		db.Units = append(db.Units, DBUnit{Table: u.Table, Column: u.Column, Rows: u.Rows})
		total += int(u.Rows)
		if u.Hint != "" {
			hints[u.Name()] = u.Hint
		}
	}
	if len(db.Units) == 0 {
		return nil, fmt.Errorf("%w: database has no columns to audit", ErrDatabase)
	}
	if req.MaxValues > 0 && total > req.MaxValues {
		return nil, fmt.Errorf("%w: %d values > cap %d", ErrTooLarge, total, req.MaxValues)
	}
	if len(hints) == 0 {
		hints = nil
	}
	return m.enqueueSpec(ctx, &Spec{DB: db, Hints: hints, MinConfidence: req.MinConfidence})
}

// columnFetcher abstracts where a job's column values come from: table
// jobs carry them in the spec, DB jobs stream them from the database at
// execution time. i indexes Spec.ColumnOrder.
type columnFetcher interface {
	// values returns column i's cell values; an error fails the job.
	values(ctx context.Context, i int) ([]string, error)
	// provenance returns the (source, table) stamped onto column i's
	// findings; empty for sources without one.
	provenance(i int) (source, table string)
	// close releases any held connection; always called after the pickup.
	close()
}

// newFetcher picks the fetcher for a spec. order is the precomputed
// Spec.ColumnOrder. The manager's metric registry rides along so DB page
// reads feed the shared autodetect_db_* families.
func (m *Manager) newFetcher(sp *Spec, order []string) columnFetcher {
	if sp.DB != nil {
		return &dbFetcher{sp: sp, metrics: m.cfg.Metrics}
	}
	return tableFetcher{sp: sp, order: order}
}

// tableFetcher serves values straight out of the spec.
type tableFetcher struct {
	sp    *Spec
	order []string
}

func (f tableFetcher) values(_ context.Context, i int) ([]string, error) {
	return f.sp.Columns[f.order[i]], nil
}
func (f tableFetcher) provenance(int) (string, string) { return "", "" }
func (f tableFetcher) close()                          {}

// dbFetcher re-opens the pinned database lazily on the first fetch of a
// pickup — a job that resumes at its final checkpoint with nothing left
// to do never touches the database at all — and verifies the live schema
// still hashes to the pinned value before serving any values.
type dbFetcher struct {
	sp      *Spec
	metrics *observe.Registry
	src     *dbsource.Source
}

func (f *dbFetcher) values(ctx context.Context, i int) ([]string, error) {
	if f.src == nil {
		src, err := dbsource.NewSource(ctx, dbsource.Config{
			Driver:  f.sp.DB.Driver,
			DSN:     f.sp.DB.DSN,
			Tables:  f.sp.DB.Tables,
			Metrics: f.metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("reopening database: %w", err)
		}
		if src.SchemaHash() != f.sp.DB.SchemaHash {
			hash := src.SchemaHash()
			src.Close()
			return nil, fmt.Errorf("database changed since submission (schema hash %s, pinned %s): refusing to produce findings that mix schema versions", hash, f.sp.DB.SchemaHash)
		}
		f.src = src
	}
	// The hash pin makes live unit i and pinned unit i the same column;
	// check anyway, because serving table A's values as table B's findings
	// is the one corruption worse than failing.
	want := f.sp.DB.Units[i].Name()
	if got := f.src.Unit(i).Name(); got != want {
		return nil, fmt.Errorf("unit %d is %s live but %s pinned despite matching schema hash", i, got, want)
	}
	return f.src.FetchUnit(ctx, i)
}

func (f *dbFetcher) provenance(i int) (string, string) {
	return f.sp.DB.Driver, f.sp.DB.Units[i].Table
}

func (f *dbFetcher) close() {
	if f.src != nil {
		f.src.Close()
		f.src = nil
	}
}
