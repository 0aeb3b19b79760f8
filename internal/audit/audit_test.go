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
