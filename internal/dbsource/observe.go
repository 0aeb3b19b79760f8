package dbsource

import "repro/internal/observe"

// dbObs bundles the subsystem's metric families. Registration is
// idempotent, so every Source sharing a registry shares the counters —
// the families describe the process's database traffic, not one walk's.
type dbObs struct {
	tables  *observe.Counter
	columns *observe.Counter
	rows    *observe.Counter
	pages   *observe.Counter
	pageDur *observe.Histogram
}

func newDBObs(reg *observe.Registry) *dbObs {
	return &dbObs{
		tables: reg.Counter("autodetect_db_tables_total",
			"Tables enumerated by database introspection."),
		columns: reg.Counter("autodetect_db_columns_total",
			"Columns enumerated by database introspection."),
		rows: reg.Counter("autodetect_db_rows_total",
			"Rows streamed out of database columns."),
		pages: reg.Counter("autodetect_db_pages_total",
			"Keyset pages read from database columns."),
		pageDur: reg.Histogram("autodetect_db_page_seconds",
			"Latency of one keyset page read.", observe.DefBuckets),
	}
}
