package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBatchSmoke submits one multi-column audit job, polls it to
// completion, and verifies the results endpoint and the jobs_* metric
// families after real traffic. Latency is logged only; bench/'s
// audit-batch workload measures it.
func TestBatchSmoke(t *testing.T) {
	ts, _ := newJobsServer(t, nil)
	table := batchTable(64)

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"columns": table})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var submitted jobStatus
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	done := waitJobHTTP(t, ts.URL, submitted.ID, "done")
	e2e := time.Since(start)

	resp, body = getBody(t, fmt.Sprintf("%s/v1/jobs/%s/results?page_size=%d",
		ts.URL, submitted.ID, maxResultsPageSize))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, body)
	}

	resp, body = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, fam := range []string{
		"autodetect_jobs_submitted_total",
		"autodetect_jobs_completed_total",
		"autodetect_jobs_queue_depth",
		"autodetect_jobs_running",
		"autodetect_job_seconds",
		"autodetect_job_column_seconds",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing family %q after a batch job", fam)
		}
	}
	t.Logf("job %s: %d columns, %d findings in %.1fms (%.0f columns/s)",
		submitted.ID, done.ColumnsTotal, done.FindingsTotal,
		float64(e2e)/float64(time.Millisecond), float64(done.ColumnsTotal)/e2e.Seconds())
}
