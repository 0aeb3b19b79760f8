package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/jobs"
	"repro/internal/semantic"
)

// batchTable builds a dirty multi-column table with unique column names.
func batchTable(cols int) map[string][]string {
	c := corpus.Generate(corpus.EntXLSProfile(), cols, 99)
	out := make(map[string][]string, len(c.Columns))
	for i, col := range c.Columns {
		out[fmt.Sprintf("%03d-%s", i, col.Name)] = col.Values
	}
	return out
}

// newJobsServer boots a server with the batch subsystem mounted. mut may
// adjust the Server and jobs.Config before anything starts.
func newJobsServer(t *testing.T, mut func(*Server, *jobs.Config)) (*httptest.Server, *Server) {
	t.Helper()
	det, sem := trainedModel(t)
	svc := New(det, sem)
	cfg := jobs.Config{
		Dir:     t.TempDir(),
		Workers: 2,
		Model:   svc.Model,
		Metrics: svc.Registry(),
	}
	if mut != nil {
		mut(svc, &cfg)
	}
	mgr, err := jobs.Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Jobs = mgr
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("jobs drain: %v", err)
		}
	})
	return ts, svc
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func doDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// waitJobHTTP polls GET /v1/jobs/{id} until the job reaches want.
func waitJobHTTP(t *testing.T, base, id, want string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := getBody(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		var js jobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatal(err)
		}
		if js.Status == want {
			return js
		}
		if js.Status == string(jobs.StatusFailed) && want != string(jobs.StatusFailed) {
			t.Fatalf("job failed: %s", js.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s", id, want)
	return jobStatus{}
}

func TestJobsDisabledWithoutManager(t *testing.T) {
	s := testServer(t)
	resp, body := getBody(t, s.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "disabled") {
		t.Fatalf("body = %s", body)
	}
}

// TestJobLifecycleHTTP walks the whole quickstart: submit, poll, page
// results, and cross-checks the paged findings against the synchronous
// /v1/check-table scorer — both paths share audit.CheckColumn, so the
// same table must yield byte-identical per-column findings.
func TestJobLifecycleHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	table := batchTable(32)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"columns": table})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID == "" || submitted.ColumnsTotal != len(table) {
		t.Fatalf("submit response: %+v", submitted)
	}

	done := waitJobHTTP(t, ts.URL, submitted.ID, "done")
	if done.Progress != 1 || done.ColumnsDone != len(table) {
		t.Fatalf("done status: %+v", done)
	}
	if done.FindingsTotal == 0 {
		t.Fatal("dirty table produced no findings")
	}

	// The job shows up in the listing.
	resp, body = getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d: %s", resp.StatusCode, body)
	}
	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != submitted.ID {
		t.Fatalf("listing = %+v", list)
	}

	// Page through results with a deliberately small page size.
	byColumn := map[string][]Finding{}
	page, fetched := 0, 0
	for {
		resp, body := getBody(t, fmt.Sprintf("%s/v1/jobs/%s/results?page=%d&page_size=7",
			ts.URL, submitted.ID, page))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results status %d: %s", resp.StatusCode, body)
		}
		var pr jobResultsResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if !pr.Complete || pr.TotalFindings != done.FindingsTotal || pr.PageSize != 7 {
			t.Fatalf("results page %d: %+v", page, pr)
		}
		for _, f := range pr.Findings {
			byColumn[f.Column] = append(byColumn[f.Column], f.Finding)
		}
		fetched += len(pr.Findings)
		if pr.NextPage == nil {
			break
		}
		if *pr.NextPage != page+1 {
			t.Fatalf("next_page = %d after page %d", *pr.NextPage, page)
		}
		page = *pr.NextPage
	}
	if fetched != done.FindingsTotal {
		t.Fatalf("paged %d findings, status reported %d", fetched, done.FindingsTotal)
	}

	// Cross-check against the synchronous endpoint.
	resp, body = postJSON(t, ts.URL+"/v1/check-table", map[string]any{"columns": table})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check-table status %d: %s", resp.StatusCode, body)
	}
	var sync struct {
		Columns map[string][]Finding `json:"columns"`
	}
	if err := json.Unmarshal(body, &sync); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(byColumn)
	b, _ := json.Marshal(sync.Columns)
	if string(a) != string(b) {
		t.Fatalf("batch findings differ from synchronous check-table\nbatch: %s\nsync: %s", a, b)
	}

	// The jobs_* metric families are exported on /metrics.
	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, family := range []string{
		"autodetect_jobs_submitted_total",
		"autodetect_jobs_completed_total",
		"autodetect_jobs_failed_total",
		"autodetect_jobs_queue_depth",
		"autodetect_jobs_running",
		"autodetect_job_seconds",
		"autodetect_job_column_seconds",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	if !strings.Contains(string(body), "autodetect_jobs_submitted_total 1") {
		t.Errorf("submitted counter not incremented:\n%s", grepLines(string(body), "jobs_submitted"))
	}
}

func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestJobResultsPaginationEdges(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"columns": batchTable(8)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	waitJobHTTP(t, ts.URL, submitted.ID, "done")

	// Page far past the end, including pages whose offset page*page_size
	// overflows an int: empty page, no next_page.
	var pr jobResultsResponse
	for _, q := range []string{
		"page=9999",
		"page=9223372036854776&page_size=1000",
		"page=4611686018427387904&page_size=2",
	} {
		resp, body = getBody(t, ts.URL+"/v1/jobs/"+submitted.ID+"/results?"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?%s -> status %d: %s", q, resp.StatusCode, body)
		}
		pr = jobResultsResponse{}
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.Findings) != 0 || pr.NextPage != nil {
			t.Fatalf("?%s past-the-end page: %+v", q, pr)
		}
	}

	// Oversized page_size clamps to the maximum.
	resp, body = getBody(t, ts.URL+"/v1/jobs/"+submitted.ID+"/results?page_size=99999")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.PageSize != maxResultsPageSize {
		t.Fatalf("page_size = %d, want clamp to %d", pr.PageSize, maxResultsPageSize)
	}

	// Garbage paging parameters are a 400.
	for _, q := range []string{"page=-1", "page=abc", "page_size=x"} {
		resp, body = getBody(t, ts.URL+"/v1/jobs/"+submitted.ID+"/results?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s -> status %d: %s", q, resp.StatusCode, body)
		}
	}
}

func TestJobNotFoundHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	for _, path := range []string{
		"/v1/jobs/0123456789abcdef",         // well-formed but unknown
		"/v1/jobs/not-a-valid-id",           // malformed
		"/v1/jobs/0123456789abcdef/results", // results of unknown job
	} {
		resp, body := getBody(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s -> %d: %s", path, resp.StatusCode, body)
		}
	}
	if resp, body := doDelete(t, ts.URL+"/v1/jobs/0123456789abcdef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown -> %d: %s", resp.StatusCode, body)
	}
}

func TestJobSubmitValidationHTTP(t *testing.T) {
	ts, svc := newJobsServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"columns": map[string][]string{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty columns -> %d: %s", resp.StatusCode, body)
	}

	// The MaxTableValues cap guards both the batch and synchronous paths.
	svc.MaxTableValues = 10
	big := map[string]any{"columns": map[string][]string{
		"a": {"1", "2", "3", "4", "5", "6"},
		"b": {"1", "2", "3", "4", "5"},
	}}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job -> %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/check-table", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized check-table -> %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "at most 10") {
		t.Fatalf("cap message should name the limit: %s", body)
	}
}

func TestJobQueueFullHTTP(t *testing.T) {
	det, sem := trainedModel(t)
	release := make(chan struct{})
	ts, svc := newJobsServer(t, func(s *Server, cfg *jobs.Config) {
		cfg.Workers = 1
		cfg.MaxQueued = 1
		cfg.Model = func() (*core.Detector, *semantic.Model) {
			<-release
			return det, sem
		}
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	small := map[string]any{"columns": map[string][]string{"a": {"x", "y"}}}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit -> %d: %s", resp.StatusCode, body)
	}
	// Wait until the single worker has popped the first job so the queue
	// slot frees up; the worker is now blocked inside the model snapshot.
	deadline := time.Now().Add(30 * time.Second)
	for svc.Jobs.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit -> %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit -> %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want \"5\"", got)
	}
	close(release)
}

func TestJobDeleteHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"columns": batchTable(4)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	waitJobHTTP(t, ts.URL, submitted.ID, "done")

	resp, body = doDelete(t, ts.URL+"/v1/jobs/"+submitted.ID)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("deleted")) {
		t.Fatalf("delete done job -> %d: %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, ts.URL+"/v1/jobs/"+submitted.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete -> %d: %s", resp.StatusCode, body)
	}
}

func TestJobCancelRunningHTTP(t *testing.T) {
	det, sem := trainedModel(t)
	release := make(chan struct{})
	ts, _ := newJobsServer(t, func(s *Server, cfg *jobs.Config) {
		cfg.Workers = 1
		cfg.Model = func() (*core.Detector, *semantic.Model) {
			<-release
			return det, sem
		}
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"columns": batchTable(4)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	// The job is wedged in the model snapshot: DELETE must answer 202
	// (cancellation requested) and the job must settle as cancelled.
	resp, body = doDelete(t, ts.URL+"/v1/jobs/"+submitted.ID)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running -> %d: %s", resp.StatusCode, body)
	}
	close(release)
	got := waitJobHTTP(t, ts.URL, submitted.ID, "cancelled")
	if got.Status != "cancelled" {
		t.Fatalf("final status %q", got.Status)
	}
}
