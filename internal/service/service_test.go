package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/semantic"
)

var (
	mdlOnce sync.Once
	mdlDet  *core.Detector
	mdlSem  *semantic.Model
	mdlErr  error

	srvOnce sync.Once
	srv     *httptest.Server
)

// trainedModel trains one detector + semantic model shared by every test.
func trainedModel(t *testing.T) (*core.Detector, *semantic.Model) {
	t.Helper()
	mdlOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 3000, 31)
		cfg := core.DefaultTrainConfig()
		cfg.Languages = []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2()}
		ds := distsup.DefaultConfig()
		ds.PositivePairs, ds.NegativePairs = 2500, 2500
		cfg.DistSup = ds
		var res *pipeline.Result
		res, mdlErr = pipeline.Run(context.Background(), pipeline.NewSliceSource(c.Columns), pipeline.Options{Workers: 1, Train: cfg})
		if mdlErr != nil {
			return
		}
		mdlDet = res.Detector
		if mdlErr != nil {
			return
		}
		mdlSem, mdlErr = semantic.Train(c, semantic.DefaultConfig())
	})
	if mdlErr != nil {
		t.Fatal(mdlErr)
	}
	return mdlDet, mdlSem
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	det, sem := trainedModel(t)
	srvOnce.Do(func() {
		srv = httptest.NewServer(New(det, sem).Handler())
	})
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealth(t *testing.T) {
	s := testServer(t)
	resp, err := http.Get(s.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h struct {
		Status    string `json:"status"`
		Languages int    `json:"languages"`
		Semantic  bool   `json:"semantic"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Languages == 0 || !h.Semantic {
		t.Errorf("health = %+v", h)
	}
	// Wrong method.
	if resp, _ := postJSON(t, s.URL+"/v1/health", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/health status %d", resp.StatusCode)
	}
}

func TestCheckColumn(t *testing.T) {
	s := testServer(t)
	resp, body := postJSON(t, s.URL+"/v1/check-column", map[string]any{
		"values": []string{"2011-01-01", "2012-05-14", "2013-11-30", "2011/06/20"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr struct {
		Findings []Finding `json:"findings"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Findings) == 0 || cr.Findings[0].Value != "2011/06/20" {
		t.Errorf("findings = %+v", cr.Findings)
	}
	if cr.Findings[0].Kind != "pattern" {
		t.Errorf("kind = %q", cr.Findings[0].Kind)
	}
	if cr.Findings[0].Suggestion != "2011-06-20" || cr.Findings[0].SuggestionRule != "reformat-date" {
		t.Errorf("suggestion = %q (%q)", cr.Findings[0].Suggestion, cr.Findings[0].SuggestionRule)
	}
}

func TestCheckColumnValidation(t *testing.T) {
	s := testServer(t)
	if resp, _ := postJSON(t, s.URL+"/v1/check-column", map[string]any{"values": []string{}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty values: status %d", resp.StatusCode)
	}
	resp, err := http.Post(s.URL+"/v1/check-column", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: status %d", resp.StatusCode)
	}
	big := make([]string, 10001)
	for i := range big {
		big[i] = "x"
	}
	if resp, _ := postJSON(t, s.URL+"/v1/check-column", map[string]any{"values": big}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized column: status %d", resp.StatusCode)
	}
}

func TestCheckTable(t *testing.T) {
	s := testServer(t)
	resp, body := postJSON(t, s.URL+"/v1/check-table", map[string]any{
		"columns": map[string][]string{
			"date":  {"2011-01-01", "2012-05-14", "2013-11-30", "2011/06/20"},
			"count": {"1", "2", "3", "4"},
		},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var tr struct {
		Columns map[string][]Finding `json:"columns"`
	}
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Columns["date"]) == 0 {
		t.Error("date column finding missing")
	}
	if _, ok := tr.Columns["count"]; ok {
		t.Error("clean column should be absent from response")
	}
	if resp, _ := postJSON(t, s.URL+"/v1/check-table", map[string]any{"columns": map[string][]string{}}); resp.StatusCode != http.StatusBadRequest {
		t.Error("empty table should 400")
	}
}

func TestCheckPair(t *testing.T) {
	s := testServer(t)
	resp, body := postJSON(t, s.URL+"/v1/check-pair", map[string]string{
		"a": "2011-01-01", "b": "2011/01/01",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr pairResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Incompatible || len(pr.ByLanguage) == 0 {
		t.Errorf("pair response = %+v", pr)
	}
	if resp, _ := postJSON(t, s.URL+"/v1/check-pair", map[string]string{"a": "x"}); resp.StatusCode != http.StatusBadRequest {
		t.Error("missing b should 400")
	}
}

func TestSemanticFindingsSurface(t *testing.T) {
	s := testServer(t)
	_, body := postJSON(t, s.URL+"/v1/check-column", map[string]any{
		"values":         []string{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"},
		"min_confidence": 0.05,
	})
	var cr struct {
		Findings []Finding `json:"findings"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	foundSemantic := false
	for _, f := range cr.Findings {
		if f.Kind == "semantic" && f.Value == "Seattle" {
			foundSemantic = true
		}
	}
	if !foundSemantic {
		t.Errorf("semantic finding for Seattle missing: %+v", cr.Findings)
	}
}
