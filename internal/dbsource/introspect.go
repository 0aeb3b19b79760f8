package dbsource

import (
	"context"
	"database/sql"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/observe"
)

// ColumnMeta is one column as the catalog describes it.
type ColumnMeta struct {
	Name string
	// DeclaredType is the catalog's type string, dialect-flavored
	// ("VARCHAR(40)", "timestamp with time zone"); may be empty.
	DeclaredType string
	// Hint is the semantic-domain hint derived from name + type via
	// NameHint; empty when the name says nothing.
	Hint string
}

// TableMeta is one table with its row count at introspection time.
type TableMeta struct {
	Name    string
	Rows    int64
	Columns []ColumnMeta
}

// A Unit is one streamable table.column with everything the walker needs.
type Unit struct {
	Table  string
	Column string
	Rows   int64
	Hint   string
}

// Name is the unit's "table.column" identifier — the column name audits
// and findings report.
func (u Unit) Name() string { return u.Table + "." + u.Column }

// Schema is an introspected database: what's in it and in what order we
// walk it.
type Schema struct {
	Driver string
	Tables []TableMeta
}

// Units flattens the schema into its walk order: every table.column,
// sorted lexicographically by unit name. The sort makes a whole-database
// audit's column order identical to a table job keyed by "table.column"
// strings — which is what lets the DB-vs-CSV equivalence property hold
// byte-for-byte.
func (s *Schema) Units() []Unit {
	var units []Unit
	for _, t := range s.Tables {
		for _, c := range t.Columns {
			units = append(units, Unit{Table: t.Name, Column: c.Name, Rows: t.Rows, Hint: c.Hint})
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Name() < units[j].Name() })
	return units
}

// Hash fingerprints the schema: driver, table names, row counts, column
// names and declared types, in walk order. Two introspections of an
// unchanged database hash identically; any DDL or row-count change moves
// it. Resumable jobs pin this hash so a database mutated mid-audit fails
// loudly instead of resuming into silently different findings.
func (s *Schema) Hash() string {
	h := fnv.New64a()
	sep := []byte{0}
	write := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write(sep)
		}
	}
	write(s.Driver)
	for _, t := range s.Tables {
		write(t.Name, strconv.FormatInt(t.Rows, 10))
		for _, c := range t.Columns {
			write(c.Name, c.DeclaredType)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Introspect enumerates the database's tables and columns through the
// dialect's catalog queries. tableFilter, when non-empty, restricts the
// schema to exactly those tables; naming a table the database doesn't
// have is an error (a typo'd filter silently auditing nothing is worse).
func Introspect(ctx context.Context, db *sql.DB, d Dialect, tableFilter []string, obs *dbObs) (*Schema, error) {
	ctx, done := observe.Span(ctx, "db_introspect")
	defer done()
	observe.SetSpanAttr(ctx, "dialect", d.Name())

	names, err := listTables(ctx, db, d)
	if err != nil {
		observe.SetSpanError(ctx, err.Error())
		return nil, err
	}
	if len(tableFilter) > 0 {
		names, err = applyFilter(names, tableFilter)
		if err != nil {
			observe.SetSpanError(ctx, err.Error())
			return nil, err
		}
	}

	sch := &Schema{Driver: d.Name()}
	for _, name := range names {
		t := TableMeta{Name: name}
		if err := db.QueryRowContext(ctx, d.CountQuery(name)).Scan(&t.Rows); err != nil {
			observe.SetSpanError(ctx, err.Error())
			return nil, fmt.Errorf("dbsource: counting %s: %w", name, err)
		}
		t.Columns, err = listColumns(ctx, db, d, name)
		if err != nil {
			observe.SetSpanError(ctx, err.Error())
			return nil, err
		}
		sch.Tables = append(sch.Tables, t)
		obs.tables.Inc()
		obs.columns.Add(float64(len(t.Columns)))
	}
	observe.SetSpanAttr(ctx, "tables", strconv.Itoa(len(sch.Tables)))
	observe.SetSpanAttr(ctx, "schema_hash", sch.Hash())
	return sch, nil
}

func listTables(ctx context.Context, db *sql.DB, d Dialect) ([]string, error) {
	rows, err := db.QueryContext(ctx, d.TablesQuery())
	if err != nil {
		return nil, fmt.Errorf("dbsource: listing tables: %w", err)
	}
	defer rows.Close()
	var names []string
	for rows.Next() {
		var name string
		// Catalogs differ on whether a row count rides along (the mem
		// driver's TABLES verb returns one); scan just the name column.
		dest := []any{&name}
		if cols, _ := rows.Columns(); len(cols) > 1 {
			sink := make([]any, len(cols)-1)
			for i := range sink {
				sink[i] = new(sql.RawBytes)
			}
			dest = append(dest, sink...)
		}
		if err := rows.Scan(dest...); err != nil {
			return nil, fmt.Errorf("dbsource: scanning table name: %w", err)
		}
		names = append(names, name)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("dbsource: listing tables: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

func listColumns(ctx context.Context, db *sql.DB, d Dialect, table string) ([]ColumnMeta, error) {
	rows, err := db.QueryContext(ctx, d.ColumnsQuery(), table)
	if err != nil {
		return nil, fmt.Errorf("dbsource: listing columns of %s: %w", table, err)
	}
	defer rows.Close()
	var cols []ColumnMeta
	for rows.Next() {
		var c ColumnMeta
		var typ sql.NullString
		if err := rows.Scan(&c.Name, &typ); err != nil {
			return nil, fmt.Errorf("dbsource: scanning column of %s: %w", table, err)
		}
		c.DeclaredType = typ.String
		c.Hint = NameHint(c.Name, c.DeclaredType)
		cols = append(cols, c)
	}
	if err := rows.Err(); err != nil {
		return nil, fmt.Errorf("dbsource: listing columns of %s: %w", table, err)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("dbsource: table %s has no columns (dropped mid-introspection?)", table)
	}
	return cols, nil
}

func applyFilter(names, filter []string) ([]string, error) {
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	var out []string
	for _, want := range filter {
		if !have[want] {
			return nil, fmt.Errorf("dbsource: table filter names %q, which the database does not have", want)
		}
		out = append(out, want)
	}
	sort.Strings(out)
	return out, nil
}
