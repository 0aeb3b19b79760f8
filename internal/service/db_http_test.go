package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dbsource"
	"repro/internal/jobs"
	"repro/internal/observe"
)

// seedServiceDB registers an in-memory database under mem://<name> with
// the dirty generator's columns spread over three tables plus an email
// column carrying planted format errors.
func seedServiceDB(t *testing.T, name string, cols int) int {
	t.Helper()
	c := corpus.Generate(corpus.EntXLSProfile(), cols, 42)
	db := dbsource.NewMemDB()
	tables := map[string][]dbsource.MemCol{}
	for i, col := range c.Columns {
		vals := make([]any, len(col.Values))
		for j, v := range col.Values {
			vals[j] = v
		}
		tbl := fmt.Sprintf("t%d", i%3)
		tables[tbl] = append(tables[tbl], dbsource.MemCol{
			Name:   fmt.Sprintf("%03d_%s", i, strings.ReplaceAll(col.Name, ".", "_")),
			Type:   "TEXT",
			Values: vals,
		})
	}
	tables["t0"] = append(tables["t0"], dbsource.MemCol{
		Name: "email", Type: "TEXT",
		Values: []any{"a@x.com", "b@x.com", "c@x.com", "d@x.com", "e@x.com",
			"not an email", "f@x.com", "g@x.com", "h@x.com", "i@x.com", "j@x.com"},
	})
	total := 0
	for tbl, mc := range tables {
		db.AddTable(tbl, mc...)
		total += len(mc)
	}
	dbsource.Register(name, db)
	return total
}

func newDBJobsServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return newJobsServer(t, func(s *Server, _ *jobs.Config) {
		s.AllowDBAudit = true
	})
}

func TestJobSubmitDBDisabledHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, nil) // AllowDBAudit left false
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"database": map[string]any{"dsn": "mem://whatever"},
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("disabled DB audit -> %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "-db-audit") {
		t.Fatalf("error should name the opt-in flag: %s", body)
	}
}

func TestJobSubmitDBValidationHTTP(t *testing.T) {
	seedServiceDB(t, "svc-validate", 3)
	ts, svc := newDBJobsServer(t)

	// Columns and database are mutually exclusive.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"columns":  map[string][]string{"a": {"x"}},
		"database": map[string]any{"dsn": "mem://svc-validate"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("columns+database -> %d: %s", resp.StatusCode, body)
	}

	// Explicit hints are rejected: database submissions derive them.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"database": map[string]any{"dsn": "mem://svc-validate"},
		"hints":    map[string]string{"t0.email": "email"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("database+hints -> %d: %s", resp.StatusCode, body)
	}

	// Empty DSN and an unknown registry name are both client errors.
	for _, dsn := range []string{"", "mem://svc-no-such-db"} {
		resp, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"database": map[string]any{"dsn": dsn},
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("dsn %q -> %d: %s", dsn, resp.StatusCode, body)
		}
	}

	// The shared MaxTableValues cap covers whole-database audits too.
	svc.MaxTableValues = 5
	resp, body = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"database": map[string]any{"dsn": "mem://svc-validate"},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized database -> %d: %s", resp.StatusCode, body)
	}
}

// TestJobDBLifecycleHTTP drives a whole-database audit end to end over
// HTTP: submit by DSN, poll to done, and check that findings carry
// table.column provenance and the db_* metric families went live.
func TestJobDBLifecycleHTTP(t *testing.T) {
	columns := seedServiceDB(t, "svc-lifecycle", 6)
	ts, _ := newDBJobsServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"database": map[string]any{"dsn": "mem://svc-lifecycle"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ColumnsTotal != columns {
		t.Fatalf("columns_total = %d, want %d", submitted.ColumnsTotal, columns)
	}
	done := waitJobHTTP(t, ts.URL, submitted.ID, "done")
	if done.FindingsTotal == 0 {
		t.Fatal("dirty database produced no findings")
	}

	resp, body = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/results?page_size=%d",
		ts.URL, submitted.ID, maxResultsPageSize))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results -> %d: %s", resp.StatusCode, body)
	}
	var pr jobResultsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	sawDomain := false
	for _, f := range pr.Findings {
		if f.Finding.Source != dbsource.DriverName || f.Finding.Table == "" {
			t.Fatalf("finding missing provenance: %+v", f)
		}
		if !strings.Contains(f.Column, ".") {
			t.Fatalf("column %q is not table-qualified", f.Column)
		}
		if f.Column == "t0.email" && f.Finding.Kind == "domain" {
			sawDomain = true
		}
	}
	if !sawDomain {
		t.Error("expected a schema-hinted domain finding on t0.email")
	}

	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics -> %d", resp.StatusCode)
	}
	for _, fam := range []string{
		"autodetect_db_tables_total",
		"autodetect_db_columns_total",
		"autodetect_db_rows_total",
		"autodetect_db_pages_total",
		"autodetect_db_page_seconds",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing family %q after a database audit", fam)
		}
	}
}

// TestDBAuditSmoke runs a whole-database audit through the full HTTP +
// durable-queue + dbsource stack and asserts the streaming layer observed
// page reads. Latency is logged only; bench/'s audit-batch workload
// measures the job path.
func TestDBAuditSmoke(t *testing.T) {
	columns := seedServiceDB(t, "svc-smoke", 48)
	ts, svc := newDBJobsServer(t)

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"database": map[string]any{"dsn": "mem://svc-smoke"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	done := waitJobHTTP(t, ts.URL, submitted.ID, "done")
	e2e := time.Since(start)

	// Registration is idempotent, so this returns the same histogram the
	// streaming layer observed page reads into.
	pageDur := svc.Registry().Histogram("autodetect_db_page_seconds",
		"Latency of one keyset page read.", observe.DefBuckets)
	if pageDur.Count() == 0 {
		t.Fatal("page-latency histogram saw no observations")
	}
	t.Logf("db job %s: %d columns, %d findings in %.1fms (%d pages, p50 %.2fms p99 %.2fms)",
		submitted.ID, columns, done.FindingsTotal, float64(e2e)/float64(time.Millisecond),
		pageDur.Count(), pageDur.Quantile(0.5)*1000, pageDur.Quantile(0.99)*1000)
}
