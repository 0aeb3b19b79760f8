package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/repair"
	"repro/internal/semantic"
)

var (
	mdlOnce sync.Once
	mdlDet  *core.Detector
	mdlSem  *semantic.Model
	mdlErr  error
)

// trainedModel builds one small model for the whole package, the same
// cheap configuration the service tests use.
func trainedModel(t *testing.T) (*core.Detector, *semantic.Model) {
	t.Helper()
	mdlOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 2000, 31)
		cfg := core.DefaultTrainConfig()
		cfg.Languages = []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2()}
		ds := distsup.DefaultConfig()
		ds.PositivePairs, ds.NegativePairs = 2000, 2000
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

// auditTable returns a dirty multi-column table as a check-table-shaped
// map, with names disambiguated (generated column names can repeat).
func auditTable(t *testing.T, cols int) map[string][]string {
	t.Helper()
	c := corpus.Generate(corpus.EntXLSProfile(), cols, 99)
	out := make(map[string][]string, len(c.Columns))
	for i, col := range c.Columns {
		out[fmt.Sprintf("%03d-%s", i, col.Name)] = col.Values
	}
	return out
}

// TestCheckTableParallelMatchesSequential pins the satellite contract:
// the bounded-pool table scorer returns exactly the findings of a
// sequential pass, for several worker counts.
func TestCheckTableParallelMatchesSequential(t *testing.T) {
	det, sem := trainedModel(t)
	table := auditTable(t, 48)
	ctx := context.Background()

	seq := CheckTable(ctx, det, sem, table, 0, 1)
	// json.Marshal sorts map keys, so equal maps serialize to equal bytes.
	want, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("sequential pass produced no findings; test table too clean")
	}
	for _, workers := range []int{2, 4, 8, 64} {
		par := CheckTable(ctx, det, sem, table, 0, workers)
		got, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("workers=%d: parallel findings differ from sequential\nseq: %s\npar: %s",
				workers, want, got)
		}
	}
}

func TestCheckColumnDefaultMinConfidence(t *testing.T) {
	det, sem := trainedModel(t)
	table := auditTable(t, 32)
	ctx := context.Background()
	checked := 0
	for _, values := range table {
		for _, f := range CheckColumn(ctx, det, sem, values, 0) {
			checked++
			if f.Confidence < DefaultMinConfidence {
				t.Fatalf("minConf<=0 must default to %v, got finding at %v",
					DefaultMinConfidence, f.Confidence)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no findings to check")
	}
}

// TestCheckColumnDeterministic is the property the batch-job resume
// guarantee rests on: identical (model, column) inputs serialize to
// identical finding bytes.
func TestCheckColumnDeterministic(t *testing.T) {
	det, sem := trainedModel(t)
	table := auditTable(t, 16)
	ctx := context.Background()
	for name, values := range table {
		a, _ := json.Marshal(CheckColumn(ctx, det, sem, values, 0))
		b, _ := json.Marshal(CheckColumn(ctx, det, sem, values, 0))
		if string(a) != string(b) {
			t.Fatalf("column %s: repeated runs differ:\n%s\n%s", name, a, b)
		}
	}
}

func TestCheckTableSkipsEmptyColumns(t *testing.T) {
	det, sem := trainedModel(t)
	table := map[string][]string{
		"clean": {"alpha", "alpha", "alpha", "alpha"},
	}
	out := CheckTable(context.Background(), det, sem, table, 0, 4)
	if fs, ok := out["clean"]; ok && len(fs) == 0 {
		t.Fatal("CheckTable must omit columns without findings")
	}
}

// referenceCheck is CheckColumnHinted composed from the four public
// per-column calls, each reading the rows itself, with the column
// re-profiled for every suggestion. CheckColumnHinted must equal it.
func referenceCheck(det *core.Detector, sem *semantic.Model, values []string, minConf float64, hint string) []Finding {
	if minConf <= 0 {
		minConf = DefaultMinConfidence
	}
	kinds := []string{"pattern"}
	detected := [][]core.Finding{det.DetectColumn(values)}
	if sem != nil {
		kinds = append(kinds, "semantic")
		detected = append(detected, sem.DetectColumn(values))
	}
	if hint != "" {
		kinds = append(kinds, "domain")
		detected = append(detected, semantic.CheckDomain(hint, values))
	}
	var out []Finding
	for k, fs := range detected {
		for _, f := range fs {
			if f.Confidence < minConf {
				continue
			}
			af := Finding{Value: f.Value, Index: f.Index, Partner: f.Partner, Confidence: f.Confidence, Kind: kinds[k]}
			if kinds[k] == "pattern" {
				if sug, ok := repair.Suggest(values, f.Value); ok {
					af.Suggestion, af.SuggestionRule = sug.Proposed, sug.Rule
				}
			}
			out = append(out, af)
		}
	}
	return out
}

// dateColumn returns rows ISO dates with about 420 distinct values.
func dateColumn(rows int) []string {
	out := make([]string, rows)
	for i := range out {
		out[i] = fmt.Sprintf("20%02d-%02d-%02d", 10+i%10, 1+i%12, 1+i%28)
	}
	return out
}

// TestCheckColumnHintedMatchesComposition holds the one-pass
// CheckColumnHinted to referenceCheck on the audit table and on columns
// crafted for each filter: empty and whitespace-only cells, a column past
// core.MaxDistinct, domain hints, and flagged values that are the first
// of their shape (so the repair profile's tie-break moves).
func TestCheckColumnHintedMatchesComposition(t *testing.T) {
	det, sem := trainedModel(t)
	ctx := context.Background()
	type column struct {
		values []string
		hint   string
	}
	var columns []column
	for _, values := range auditTable(t, 48) {
		columns = append(columns, column{values, ""}, column{values, "date"})
	}
	wide := dateColumn(1000)
	wide[20], wide[950] = "2011/06/20", "June 5, 2013"
	columns = append(columns,
		column{[]string{"2011-01-02", "", "2012-05-14", "", "2013-11-30", "2011/06/20", "", "2014-02-03"}, ""},
		column{[]string{"1200", "  ", "450", " ", "98000", "1,000", "3100", "  "}, ""},
		column{wide, ""},
		column{wide, "date"},
		column{[]string{"2011-06-20", "2011-06-21", "N/A", "2011-06-23", "2011-06-24", "2011-06-25"}, "date"},
		column{[]string{"ann@example.com", "bob@example.com", "425-555-0100", "cy@example.org", "di@example.net"}, "email"},
		column{[]string{"2011/06/20", "2011-06-21", "2011/06/22", "2011-06-23", "2011/06/24"}, ""},
		column{[]string{"Mar 2011", "2011-06-21", "Apr 2012", "2011-06-23", "May 2013"}, "date"},
		column{[]string{"(425) 555-0100", "425-555-0101", "425-555-0102", "(425) 555-0103", "425-555-0104"}, "phone"},
		column{[]string{"Washington", "", "Oregon", "Texas", "Florida", " ", "Ohio", "Seattle", "Nevada", "Utah", "Seattle"}, ""},
	)
	kinds := map[string]int{}
	suggested := 0
	for _, c := range columns {
		for _, minConf := range []float64{0, 0.05} {
			got := CheckColumnHinted(ctx, det, sem, c.values, minConf, c.hint)
			want := referenceCheck(det, sem, c.values, minConf, c.hint)
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			if string(g) != string(w) {
				t.Fatalf("column %q, hint %q, minConf %v:\none pass:  %s\nreference: %s", c.values, c.hint, minConf, g, w)
			}
			for _, f := range got {
				kinds[f.Kind]++
				if f.Suggestion != "" {
					suggested++
				}
			}
		}
	}
	if kinds["pattern"] == 0 || kinds["semantic"] == 0 || kinds["domain"] == 0 || suggested == 0 {
		t.Fatalf("vacuous comparison: findings by kind %v, %d suggestions", kinds, suggested)
	}
}

// TestCheckColumnAllocsPerFinding bounds the allocations of a check with
// findings. Repair profiles the column's distinct values once, so a
// 3,000-row column with two pattern findings stays under two allocations
// a row; re-profiling every row for each finding costs about sixteen.
func TestCheckColumnAllocsPerFinding(t *testing.T) {
	det, sem := trainedModel(t)
	ctx := context.Background()
	values := dateColumn(3000)
	values[20], values[50] = "2011/06/20", "June 5, 2013"
	fs := CheckColumn(ctx, det, sem, values, 0)
	if len(fs) != 2 || fs[0].Kind != "pattern" || fs[1].Kind != "pattern" {
		t.Fatalf("want two pattern findings, got %+v", fs)
	}
	allocs := testing.AllocsPerRun(5, func() { CheckColumn(ctx, det, sem, values, 0) })
	if limit := 2.0 * float64(len(values)); allocs > limit {
		t.Errorf("CheckColumn on %d rows with %d findings made %.0f allocations, want ≤ %.0f", len(values), len(fs), allocs, limit)
	}
}
