package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/semantic"
	"repro/internal/service"
	"repro/internal/stats"
)

// referenceFindings is the value-level detector as a private two-pass count
// over cols (support, then the pairs of each column's first 64 supported
// distinct values) run on one column; internal/semantic's differential
// test holds the same reference against the Leaf-derived model.
func referenceFindings(cols []*corpus.Column) func(values []string) []core.Finding {
	cfg := semantic.DefaultConfig()
	support := map[string]int{}
	for _, col := range cols {
		for _, v := range col.DistinctValues() {
			if len(v) <= cfg.MaxValueLength {
				support[v]++
			}
		}
	}
	occ, pairs := map[string]float64{}, map[[2]string]float64{}
	for _, col := range cols {
		var kept []string
		for _, v := range col.DistinctValues() {
			if support[v] >= cfg.MinSupport {
				kept = append(kept, v)
				occ[v]++
			}
		}
		kept = kept[:min(len(kept), 64)]
		for i, u := range kept {
			for _, v := range kept[i+1:] {
				pairs[[2]string{min(u, v), max(u, v)}]++
			}
		}
	}
	n, t := float64(len(cols)), cfg.Threshold
	return func(values []string) []core.Finding {
		var distinct []core.Distinct
		for _, d := range core.Tabulate(values) {
			if occ[d.Value] > 0 {
				distinct = append(distinct, d)
			}
		}
		if len(distinct) < 3 {
			return nil
		}
		return core.Attribute(distinct, func(i, j int) (float64, bool) {
			u, v := distinct[i].Value, distinct[j].Value
			s := stats.SmoothedNPMI(occ[u], occ[v], pairs[[2]string{min(u, v), max(u, v)}], n, cfg.Smoothing)
			if s > t {
				return 0, false
			}
			return min((t-s)/(t+1), 1), true
		})
	}
}

// TestTrainDirServesReferenceValueFindings: a -train-dir build over a
// written corpus logs the value-level detector on, and /v1/check-column
// serves the semantic findings of the reference count over the corpus as
// the daemon reads it back. Loading the build's model file logs the
// detector off.
func TestTrainDirServesReferenceValueFindings(t *testing.T) {
	dir := t.TempDir()
	written := corpus.Generate(corpus.WebProfile(), 600, 7).Columns
	for i := 0; i < len(written); i += 100 {
		var buf bytes.Buffer
		if err := corpus.WriteCSV(&buf, written[i:i+100]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("t%d.csv", i/100)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := parseArgs([]string{"-train-dir", dir, "-pairs", "300", "-workers", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	load, reloadable := modelSource(c, observe.NewLogger(&logs, observe.LogOptions{JSON: true}))
	if load == nil || !reloadable {
		t.Fatal("-train-dir picked no reloadable model source")
	}
	det, sem, info, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), `"msg":"value-level detector on","supported_values":`) {
		t.Fatalf("build log does not report the value-level detector on:\n%s", logs.String())
	}

	src, err := pipeline.NewDirSourceWith(dir, c.build.DirConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	var read []*corpus.Column
	for {
		col, err := src.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		read = append(read, col)
	}
	src.Close()
	reference := referenceFindings(read)

	srv := httptest.NewServer(service.NewWithInfo(det, sem, info).Handler())
	defer srv.Close()
	panel := [][]string{{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"}}
	for i, col := range read[:200] {
		other := read[(i*7+3)%len(read)].Values
		panel = append(panel, append(col.Values[:len(col.Values)/2:len(col.Values)/2], other[len(other)/2:]...))
	}
	const minConf = 1e-9
	flagged := 0
	for _, col := range panel {
		body, err := json.Marshal(map[string]any{"values": col, "min_confidence": minConf})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/check-column", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Findings []audit.Finding }
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("check-column = %d, %v", resp.StatusCode, err)
		}
		var got, want []audit.Finding
		for _, f := range out.Findings {
			if f.Kind == "semantic" {
				got = append(got, f)
			}
		}
		for _, f := range reference(col) {
			if f.Confidence >= minConf {
				want = append(want, audit.Finding{Value: f.Value, Index: f.Index, Partner: f.Partner, Confidence: f.Confidence, Kind: "semantic"})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("column %q: served semantic findings %+v, reference %+v", col, got, want)
		}
		flagged += len(want)
	}
	if flagged == 0 {
		t.Fatal("vacuous: no panel column produced a semantic finding")
	}

	// The model file of the same build serves no value-level detector, and
	// its load says why.
	var model bytes.Buffer
	if err := det.Save(&model); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, model.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err = parseArgs([]string{"-model", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	logs.Reset()
	load, _ = modelSource(c, observe.NewLogger(&logs, observe.LogOptions{JSON: true}))
	if _, sem, _, err := load(); err != nil || sem != nil {
		t.Fatalf("-model load = %v, %v; want no value model", sem, err)
	}
	if want := `"msg":"value-level detector off","reason":"the model file carries no value statistics"`; !strings.Contains(logs.String(), want) {
		t.Fatalf("model-file load log lacks %s:\n%s", want, logs.String())
	}
}
