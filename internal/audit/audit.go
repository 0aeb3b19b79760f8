// Package audit is the shared column-scoring layer between the
// synchronous serving handlers (internal/service) and the asynchronous
// batch-job executor (internal/jobs). Both paths must produce identical
// findings for identical inputs — the batch API's crash/resume guarantee
// is "byte-identical to an uninterrupted run", and the parallel
// /v1/check-table path is tested against the sequential one — so the
// single source of truth for "score one column against the snapshotted
// model" lives here rather than being duplicated per caller.
package audit

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/observe"
	"repro/internal/repair"
	"repro/internal/semantic"
)

// DefaultMinConfidence is applied when a caller passes minConf <= 0,
// matching the historical /v1/check-column default.
const DefaultMinConfidence = 0.5

// Finding is one flagged cell, JSON-shaped for the HTTP API. It combines
// the pattern-level detection of the paper's core algorithm with the
// optional value-level semantic check and a conservative repair
// suggestion.
type Finding struct {
	Value      string  `json:"value"`
	Index      int     `json:"index"`
	Partner    string  `json:"partner"`
	Confidence float64 `json:"confidence"`
	// Kind is "pattern", "semantic", or "domain" (a schema-hinted
	// semantic-domain format check).
	Kind string `json:"kind"`
	// Suggestion, when non-empty, proposes a repaired value rendered in
	// the column's dominant format; SuggestionRule names the repair.
	Suggestion     string `json:"suggestion,omitempty"`
	SuggestionRule string `json:"suggestion_rule,omitempty"`
	// Source and Table carry the column's provenance (database driver and
	// table for dbsource columns) so batch results say where a bad cell
	// lives, not just its column name. Empty for sources without one.
	Source string `json:"source,omitempty"`
	Table  string `json:"table,omitempty"`
}

// CheckColumn runs the pattern detector and (when sem is non-nil) the
// semantic detector over one column, filtering findings below minConf
// (<= 0 means DefaultMinConfidence) and attaching repair suggestions to
// pattern findings. The pattern and semantic passes are timed as nested
// spans of ctx. The result is deterministic in (det, sem, values,
// minConf): findings come back in detector order, so two runs over the
// same model and column serialize to identical bytes — the property the
// batch-job resume tests assert.
func CheckColumn(ctx context.Context, det *core.Detector, sem *semantic.Model, values []string, minConf float64) []Finding {
	return CheckColumnHinted(ctx, det, sem, values, minConf, "")
}

// CheckColumnHinted is CheckColumn plus an optional semantic-domain hint.
// A non-empty hint — typically derived from database schema metadata, a
// column named email or a DATE-typed column — runs semantic.CheckDomain
// after the pattern and co-occurrence passes and appends its findings
// with Kind "domain". The hint extends the finding set; it never changes
// the unhinted findings, so CheckColumn remains a strict prefix and the
// determinism contract above carries over hint included.
//
// The rows are read once, into the distinct table every check filters;
// repair profiles it only when a pattern finding clears minConf.
func CheckColumnHinted(ctx context.Context, det *core.Detector, sem *semantic.Model, values []string, minConf float64, hint string) []Finding {
	if minConf <= 0 {
		minConf = DefaultMinConfidence
	}
	table := core.Tabulate(values)
	_, endPattern := observe.Span(ctx, "detect_pattern")
	out := appendKind(nil, det.DetectDistinct(table), "pattern", minConf)
	if len(out) > 0 {
		prof := repair.NewProfile(table)
		for i, f := range out {
			if sug, ok := prof.Suggest(f.Value); ok {
				out[i].Suggestion, out[i].SuggestionRule = sug.Proposed, sug.Rule
			}
		}
	}
	endPattern()
	if sem != nil {
		_, endSem := observe.Span(ctx, "detect_semantic")
		out = appendKind(out, sem.DetectDistinct(table), "semantic", minConf)
		endSem()
	}
	if hint != "" {
		_, endDomain := observe.Span(ctx, "detect_domain")
		out = appendKind(out, semantic.CheckDomainDistinct(hint, table), "domain", minConf)
		endDomain()
	}
	return out
}

// appendKind appends the detector findings at or above minConf to out,
// labelled kind.
func appendKind(out []Finding, fs []core.Finding, kind string, minConf float64) []Finding {
	for _, f := range fs {
		if f.Confidence < minConf {
			continue
		}
		out = append(out, Finding{
			Value: f.Value, Index: f.Index, Partner: f.Partner,
			Confidence: f.Confidence, Kind: kind,
		})
	}
	return out
}

// CheckTable scores every column of a table with a bounded worker pool
// (workers <= 1 runs sequentially) and returns only the columns that
// produced findings. Columns are independent, so the result is identical
// to a sequential pass regardless of worker count or scheduling — there
// is a test pinning parallel == sequential.
func CheckTable(ctx context.Context, det *core.Detector, sem *semantic.Model, columns map[string][]string, minConf float64, workers int) map[string][]Finding {
	out := make(map[string][]Finding)
	if workers > len(columns) {
		workers = len(columns)
	}
	if workers <= 1 {
		for name, vs := range columns {
			if fs := CheckColumn(ctx, det, sem, vs, minConf); len(fs) > 0 {
				out[name] = fs
			}
		}
		return out
	}
	names := make(chan string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range names {
				if fs := CheckColumn(ctx, det, sem, columns[name], minConf); len(fs) > 0 {
					mu.Lock()
					out[name] = fs
					mu.Unlock()
				}
			}
		}()
	}
	for name := range columns {
		names <- name
	}
	close(names)
	wg.Wait()
	return out
}
