// Spreadsheetaudit audits a simulated enterprise spreadsheet corpus the
// way the paper audits Ent-XLS (Section 4): train on clean web tables,
// sweep every column of the audit target, and report the most confident
// findings together with precision against the planted ground truth.
//
// The sweep goes through the serving stack's batch API — the whole
// 2000-column spreadsheet is submitted as one durable job to POST
// /v1/jobs, progress is polled from GET /v1/jobs/{id}, and findings are
// paged from GET /v1/jobs/{id}/results — exactly the flow an operator
// uses against a deployed autodetectd.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/service"
)

func main() {
	// Train on the web profile — a different distribution than the audited
	// spreadsheets, as in the paper's cross-corpus setup.
	train := corpus.Generate(corpus.WebProfile(), 6000, 11)
	cfg := core.DefaultTrainConfig()
	ds := distsup.DefaultConfig()
	ds.PositivePairs, ds.NegativePairs = 10000, 10000
	cfg.DistSup = ds
	res, err := pipeline.Run(context.Background(), pipeline.NewSliceSource(train.Columns), pipeline.Options{Train: cfg})
	if err != nil {
		log.Fatal(err)
	}
	det := res.Detector
	fmt.Printf("model: %d languages, %d bytes\n", len(res.Report.Selected), det.Bytes())

	// The audit target: 2000 enterprise-style columns with ~3% planted
	// errors (mixed phone formats, unit mismatches, stray punctuation...).
	audit := corpus.Generate(corpus.EntXLSProfile(), 2000, 99)
	fmt.Printf("auditing %d columns (%d planted errors) via the batch API...\n\n",
		audit.NumColumns(), audit.DirtyColumns())

	// Boot the serving stack in-process: the same service.Server +
	// jobs.Manager pair autodetectd runs, against a throwaway job dir.
	jobsDir, err := os.MkdirTemp("", "spreadsheetaudit-jobs-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(jobsDir)
	svc := service.New(det, nil)
	svc.MaxTableValues = 0 // the whole corpus goes up as one job
	mgr, err := jobs.Open(context.Background(), jobs.Config{
		Dir:     jobsDir,
		Workers: runtime.NumCPU(),
		Model:   svc.Model,
		Metrics: svc.Registry(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close(context.Background())
	svc.Jobs = mgr
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Column names repeat across a generated corpus; prefix the index so
	// findings map back to their ground-truth column.
	table := make(map[string][]string, len(audit.Columns))
	for i, col := range audit.Columns {
		table[fmt.Sprintf("%04d-%s", i, col.Name)] = col.Values
	}

	// Submit one job at the example's confidence bar, then poll.
	id := submit(ts.URL, table, 0.9)
	start := time.Now()
	for {
		st := getStatus(ts.URL, id)
		if st.Status == "done" {
			fmt.Printf("job %s done: %d columns, %d findings in %s\n",
				id, st.ColumnsDone, st.FindingsTotal, time.Since(start).Round(time.Millisecond))
			break
		}
		if st.Status == "failed" || st.Status == "cancelled" {
			log.Fatalf("job %s: %s (%s)", id, st.Status, st.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Page through the findings and keep each column's top finding,
	// mirroring the paper's one-flag-per-column audit review.
	type hit struct {
		column  string
		finding service.Finding
		planted bool
	}
	var hits []hit
	seen := map[string]bool{}
	for page := 0; ; {
		res := getResults(ts.URL, id, page, 500)
		for _, f := range res.Findings {
			if seen[f.Column] {
				continue
			}
			seen[f.Column] = true
			var idx int
			fmt.Sscanf(f.Column, "%d-", &idx)
			col := audit.Columns[idx]
			planted := false
			for _, di := range col.Dirty {
				if col.Values[di] == f.Value {
					planted = true
				}
			}
			hits = append(hits, hit{f.Column, f.Finding, planted})
		}
		if res.NextPage == nil {
			break
		}
		page = *res.NextPage
	}
	sort.SliceStable(hits, func(i, j int) bool {
		return hits[i].finding.Confidence > hits[j].finding.Confidence
	})

	correct := 0
	for i, h := range hits {
		if h.planted {
			correct++
		}
		if i < 15 {
			fmt.Printf("%2d. [%s] %-22q vs %-22q conf=%.3f planted=%v\n",
				i+1, h.column, h.finding.Value, h.finding.Partner, h.finding.Confidence, h.planted)
		}
	}
	if len(hits) > 0 {
		fmt.Printf("\n%d flagged columns at confidence ≥ 0.9, precision vs planted ground truth: %.3f\n",
			len(hits), float64(correct)/float64(len(hits)))
	} else {
		fmt.Println("no findings above the confidence bar")
	}
}

// Minimal wire types for the batch endpoints.
type jobStatus struct {
	ID            string  `json:"id"`
	Status        string  `json:"status"`
	ColumnsDone   int     `json:"columns_done"`
	FindingsTotal int     `json:"findings_total"`
	Progress      float64 `json:"progress"`
	Error         string  `json:"error,omitempty"`
}

type jobResults struct {
	Findings []struct {
		Column string `json:"column"`
		service.Finding
	} `json:"findings"`
	NextPage *int `json:"next_page,omitempty"`
}

func submit(base string, columns map[string][]string, minConf float64) string {
	body, err := json.Marshal(map[string]any{
		"columns": columns, "min_confidence": minConf,
	})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("submit: status %d: %s", resp.StatusCode, out)
	}
	var st jobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		log.Fatal(err)
	}
	return st.ID
}

func getStatus(base, id string) jobStatus {
	var st jobStatus
	getJSON(base+"/v1/jobs/"+id, &st)
	return st
}

func getResults(base, id string, page, pageSize int) jobResults {
	var res jobResults
	getJSON(fmt.Sprintf("%s/v1/jobs/%s/results?page=%d&page_size=%d", base, id, page, pageSize), &res)
	return res
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatal(err)
	}
}
