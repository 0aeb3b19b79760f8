// Package dbsource streams training and audit columns straight out of SQL
// databases. It layers on database/sql: a Dialect supplies the catalog and
// keyset-page query shapes for each engine (SQLite, Postgres, MySQL, plus
// the in-tree pure-Go "admem" driver that keeps tests and CI dependency-
// free), Introspect enumerates tables/columns/declared types, and Source
// walks every table.column as a pipeline.ColumnSource — deterministic
// order, bounded memory per page, stable fingerprint, and per-column
// resume so it composes with the existing checkpoint machinery.
package dbsource

import (
	"context"
	"database/sql"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/corpus"
	"repro/internal/observe"
	"repro/internal/retry"
)

// DefaultPageSize is the keyset page size when Config leaves it zero:
// large enough to amortize round trips, small enough that one page of
// wide values stays comfortably in memory.
const DefaultPageSize = 2048

// Config configures a database Source.
type Config struct {
	// Driver is the database/sql driver name (DriverName, "sqlite3",
	// "postgres", "mysql", ...); it also selects the dialect.
	Driver string
	// DSN is the driver's data source name.
	DSN string
	// Tables, when non-empty, restricts the walk to these tables; naming a
	// table the database lacks is an error.
	Tables []string
	// PageSize bounds rows fetched per keyset page (default
	// DefaultPageSize).
	PageSize int
	// Retry wraps every page and catalog read; the zero value retries
	// transient errors (which satellite work taught to recognize
	// driver.ErrBadConn, connection resets, deadlocks) with capped
	// exponential backoff.
	Retry retry.Policy
	// Metrics, when set, registers and feeds the autodetect_db_* families.
	Metrics *observe.Registry
}

// Source is a pipeline.ColumnSource that walks a database's table.column
// units in deterministic (lexicographic unit-name) order. It is not safe
// for concurrent use, matching the ColumnSource contract.
type Source struct {
	cfg     Config
	db      *sql.DB
	dialect Dialect
	schema  *Schema
	units   []Unit
	hash    string
	obs     *dbObs
	ctx     context.Context
	next    int // index of the unit the next Next() call streams
}

// NewSource opens the database, introspects it, and returns a Source
// positioned at the first unit. The schema snapshot — and therefore the
// fingerprint — is pinned at this moment; a database mutated later fails
// the hash check on resume rather than silently shifting the walk.
func NewSource(ctx context.Context, cfg Config) (*Source, error) {
	if cfg.DSN == "" {
		return nil, fmt.Errorf("dbsource: empty DSN")
	}
	if cfg.Driver == "" {
		cfg.Driver = DriverName
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	d, err := DialectFor(cfg.Driver)
	if err != nil {
		return nil, err
	}
	db, err := sql.Open(cfg.Driver, cfg.DSN)
	if err != nil {
		return nil, fmt.Errorf("dbsource: opening %s database: %w", cfg.Driver, err)
	}
	obs := newDBObs(cfg.Metrics)
	var sch *Schema
	if err := cfg.Retry.Do(ctx, func() error {
		var ierr error
		sch, ierr = Introspect(ctx, db, d, cfg.Tables, obs)
		return ierr
	}); err != nil {
		db.Close()
		return nil, err
	}
	return &Source{
		cfg:     cfg,
		db:      db,
		dialect: d,
		schema:  sch,
		units:   sch.Units(),
		hash:    sch.Hash(),
		obs:     obs,
		ctx:     ctx,
	}, nil
}

// BindContext adopts the pipeline run's context for subsequent reads.
func (s *Source) BindContext(ctx context.Context) { s.ctx = ctx }

// Close releases the database handle.
func (s *Source) Close() error { return s.db.Close() }

// Schema returns the pinned introspection snapshot.
func (s *Source) Schema() *Schema { return s.schema }

// SchemaHash returns the pinned schema hash (see Schema.Hash).
func (s *Source) SchemaHash() string { return s.hash }

// Len is the number of table.column units the walk visits.
func (s *Source) Len() int { return len(s.units) }

// Unit returns the i'th unit in walk order.
func (s *Source) Unit(i int) Unit { return s.units[i] }

// Fingerprint identifies the source for checkpoint compatibility: driver
// plus the schema hash, which already folds in table/column names, types,
// and row counts.
func (s *Source) Fingerprint() string {
	return "db:" + s.cfg.Driver + ":" + s.hash
}

// SkipColumns advances the walk past n units without reading their rows —
// the fast path a resumed pipeline takes instead of re-streaming and
// discarding already-counted columns. It returns how many units were
// actually skipped (fewer than n only when the walk ends first).
func (s *Source) SkipColumns(n uint64) (uint64, error) {
	remaining := uint64(len(s.units) - s.next)
	if n > remaining {
		n = remaining
	}
	s.next += int(n)
	return n, nil
}

// Next streams the next table.column as a corpus column. The column name
// is the qualified "table.column" unit name; Source and Table carry the
// provenance that audit findings surface.
func (s *Source) Next() (*corpus.Column, error) {
	if s.next >= len(s.units) {
		return nil, io.EOF
	}
	u := s.units[s.next]
	values, err := s.FetchUnit(s.ctx, s.next)
	if err != nil {
		return nil, err
	}
	s.next++
	return &corpus.Column{
		Name:   u.Name(),
		Domain: u.Hint,
		Values: values,
		Source: s.cfg.Driver,
		Table:  u.Table,
	}, nil
}

// FetchUnit reads every row of the i'th unit through keyset pages,
// normalized to strings. It does not move the walk cursor, so resumable
// jobs can fetch any unit directly.
func (s *Source) FetchUnit(ctx context.Context, i int) ([]string, error) {
	if i < 0 || i >= len(s.units) {
		return nil, fmt.Errorf("dbsource: unit index %d out of range [0,%d)", i, len(s.units))
	}
	u := s.units[i]
	ctx, done := observe.Span(ctx, "db_fetch_unit")
	defer done()
	observe.SetSpanAttr(ctx, "unit", u.Name())

	query := s.dialect.PageQuery(u.Table, u.Column)
	values := make([]string, 0, u.Rows)
	after := s.dialect.StartKey()
	for {
		var page []string
		var nextKey any
		err := s.cfg.Retry.DoCtx(ctx, func(ctx context.Context) error {
			var perr error
			page, nextKey, perr = s.readPage(ctx, query, after)
			return perr
		})
		if err != nil {
			observe.SetSpanError(ctx, err.Error())
			return nil, fmt.Errorf("dbsource: paging %s: %w", u.Name(), err)
		}
		values = append(values, page...)
		if len(page) < s.cfg.PageSize {
			break
		}
		after = nextKey
	}
	observe.SetSpanAttr(ctx, "rows", strconv.Itoa(len(values)))
	return values, nil
}

// readPage executes one keyset page, returning the normalized values and
// the last row key (the next page's cursor).
func (s *Source) readPage(ctx context.Context, query string, after any) ([]string, any, error) {
	start := time.Now()
	rows, err := s.db.QueryContext(ctx, query, after, int64(s.cfg.PageSize))
	if err != nil {
		return nil, nil, err
	}
	defer rows.Close()
	page := make([]string, 0, s.cfg.PageSize)
	lastKey := after
	for rows.Next() {
		var key, val any
		if err := rows.Scan(&key, &val); err != nil {
			return nil, nil, err
		}
		page = append(page, normalize(val))
		lastKey = normalizeKey(key)
	}
	if err := rows.Err(); err != nil {
		return nil, nil, err
	}
	s.obs.pages.Inc()
	s.obs.rows.Add(float64(len(page)))
	s.obs.pageDur.ObserveExemplar(time.Since(start).Seconds(), observe.TraceIDFrom(ctx))
	return page, lastKey, nil
}

// normalize maps a driver value onto the string the detector sees. NULL
// becomes the empty string — the same representation a missing CSV cell
// has — so a database and its CSV export audit identically.
func normalize(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case []byte:
		return string(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case time.Time:
		return x.UTC().Format(time.RFC3339)
	default:
		return fmt.Sprint(x)
	}
}

// normalizeKey keeps page cursors in driver-bindable types ([]byte keys —
// Postgres ctids scan as []byte — must outlive the Rows that produced
// them, so they are copied to strings).
func normalizeKey(k any) any {
	if b, ok := k.([]byte); ok {
		return string(b)
	}
	return k
}
