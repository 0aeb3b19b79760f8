package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
)

func buildReport() *Report {
	r := &Report{Title: "Audit of demo.csv", ModelSummary: "4 languages, 1.2MB"}
	r.AddColumn("dates", []string{"2011-01-01", "2011/06/20", "2013-11-30"}, map[int]audit.Finding{
		1: {Partner: "2011-01-01", Confidence: 0.993, Kind: "pattern", Suggestion: "2011-06-20"},
	})
	r.AddColumn("clean", []string{"1", "2", "3"}, nil)
	r.AddColumn("states", []string{"Washington", "Seattle", "Texas"}, map[int]audit.Finding{
		1: {Partner: "Washington", Confidence: 0.42, Kind: "semantic"},
	})
	return r
}

func TestAddColumnAccounting(t *testing.T) {
	r := buildReport()
	if r.TotalColumns != 3 {
		t.Errorf("TotalColumns = %d", r.TotalColumns)
	}
	if r.TotalFindings != 2 {
		t.Errorf("TotalFindings = %d", r.TotalFindings)
	}
	// Clean columns are excluded from rendering.
	if len(r.Columns) != 2 {
		t.Errorf("rendered columns = %d", len(r.Columns))
	}
}

func TestRenderHTML(t *testing.T) {
	r := buildReport()
	r.Generated = time.Date(2018, 6, 10, 12, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Audit of demo.csv",
		"2011/06/20",
		`class="bad"`,
		"conflicts with",
		"pattern, 99%",
		"semantic, 42%",
		"2 finding(s) across 3 column(s)",
		"2018-06-10",
		"suggest “2011-06-20”",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("rendered HTML missing %q", want)
		}
	}
	// Clean column must not appear.
	if strings.Contains(html, "<h2>clean") {
		t.Error("clean column rendered")
	}
}

func TestRenderEscapesHTML(t *testing.T) {
	r := &Report{Title: "<script>alert(1)</script>"}
	r.AddColumn("c", []string{"<b>bold</b>", "x", "y"}, map[int]audit.Finding{
		0: {Partner: "<i>p</i>", Confidence: 1, Kind: "pattern"},
	})
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	if strings.Contains(html, "<script>alert") || strings.Contains(html, "<b>bold</b>") {
		t.Error("HTML not escaped")
	}
	if !strings.Contains(html, "&lt;b&gt;bold&lt;/b&gt;") {
		t.Error("escaped cell value missing")
	}
	// Render stamps a timestamp when unset.
	if r.Generated.IsZero() {
		t.Error("Generated not stamped")
	}
}
