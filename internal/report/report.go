// Package report renders error-detection results as a standalone HTML
// audit report — the "surface findings to a spreadsheet user" half of the
// paper's product framing (Figures 1/2 show exactly such highlighted
// cells).
package report

import (
	"html/template"
	"io"
	"time"

	"repro/internal/audit"
)

// Cell is one rendered table cell.
type Cell struct {
	// Value is the cell text.
	Value string
	// Finding is non-nil when the cell is a suspected error.
	Finding *audit.Finding
}

// Column is one audited column.
type Column struct {
	// Name is the column header.
	Name string
	// Cells are the column's cells in row order.
	Cells []Cell
	// Findings counts flagged cells.
	Findings int
}

// Report is a full audit.
type Report struct {
	// Title heads the report.
	Title string
	// Generated is the report timestamp.
	Generated time.Time
	// ModelSummary describes the detector used.
	ModelSummary string
	// Columns are the audited columns (usually only those with findings).
	Columns []Column
	// TotalColumns and TotalFindings summarize the run.
	TotalColumns, TotalFindings int
}

// AddColumn appends a column built from raw values and a finding lookup
// keyed by row index.
func (r *Report) AddColumn(name string, values []string, findings map[int]audit.Finding) {
	col := Column{Name: name}
	for i, v := range values {
		c := Cell{Value: v}
		if f, ok := findings[i]; ok {
			ff := f
			c.Finding = &ff
			col.Findings++
		}
		col.Cells = append(col.Cells, c)
	}
	r.TotalColumns++
	r.TotalFindings += col.Findings
	if col.Findings > 0 {
		r.Columns = append(r.Columns, col)
	}
}

var tmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"pct": func(x float64) float64 { return x * 100 },
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; }
.summary { color: #555; margin-bottom: 1.5rem; }
.column { margin-bottom: 2rem; }
.column h2 { font-size: 1.05rem; border-bottom: 1px solid #ddd; padding-bottom: .25rem; }
table { border-collapse: collapse; }
td { border: 1px solid #e2e2e2; padding: .25rem .6rem; font-family: ui-monospace, monospace; font-size: .85rem; }
td.bad { background: #fde8e8; border: 2px solid #e02424; }
.why { color: #9b1c1c; font-size: .75rem; font-family: system-ui, sans-serif; }
.conf { color: #555; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<div class="summary">
generated {{.Generated.Format "2006-01-02 15:04:05"}} · model: {{.ModelSummary}} ·
{{.TotalFindings}} finding(s) across {{.TotalColumns}} column(s)
</div>
{{range .Columns}}
<div class="column">
<h2>{{.Name}} — {{.Findings}} finding(s)</h2>
<table>
{{range .Cells}}
<tr>
{{if .Finding}}<td class="bad">{{.Value}}
<div class="why">conflicts with “{{.Finding.Partner}}” <span class="conf">({{.Finding.Kind}}, {{printf "%.0f%%" (pct .Finding.Confidence)}})</span>{{if .Finding.Suggestion}} — suggest “{{.Finding.Suggestion}}”{{end}}</div>
</td>{{else}}<td>{{.Value}}</td>{{end}}
</tr>
{{end}}
</table>
</div>
{{end}}
</body>
</html>
`))

// Render writes the report as standalone HTML.
func (r *Report) Render(w io.Writer) error {
	if r.Generated.IsZero() {
		r.Generated = time.Now()
	}
	return tmpl.Execute(w, r)
}
