package baselines

import (
	"bytes"
	"compress/flate"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// compressedSize is the compressor CDM used before it shared one writer
// per column: a fresh BestCompression writer per measurement. It is the
// reference the shared, Reset writer must reproduce.
func compressedSize(s string) int {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return len(s)
	}
	if _, err := w.Write([]byte(s)); err != nil {
		return len(s)
	}
	if err := w.Close(); err != nil {
		return len(s)
	}
	return buf.Len()
}

// TestCDMMatchesPerCallCompressor holds CDM's shared writer to the
// per-call reference on generated WIKI and Ent-XLS columns, dirty ones
// included: every prediction, confidence and order must be the same.
func TestCDMMatchesPerCallCompressor(t *testing.T) {
	flagged := 0
	for _, p := range []corpus.Profile{corpus.WikiProfile(), corpus.EntXLSProfile()} {
		for _, col := range corpus.Generate(p, 50, 3).Columns {
			got := (&CDM{}).Detect(col.Values)
			if want := cdm(col.Values, compressedSize); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s column %q: CDM = %+v, per-call reference = %+v", p.Name, col.Name, got, want)
			}
			flagged += len(got)
		}
	}
	if flagged == 0 {
		t.Fatal("no column produced a prediction; the comparison checked nothing")
	}
}
