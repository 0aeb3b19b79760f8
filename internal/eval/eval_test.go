package eval

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/baselines"
	"repro/internal/corpus"
)

// The experiment suite is expensive to build; share one per test binary.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func sharedSuite(t testing.TB) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite = NewSuite(SmallScale(), 1)
	})
	return suite
}

func TestBuildAutoEval(t *testing.T) {
	p := corpus.WikiProfile()
	p.ErrorRate = 0
	src := corpus.Generate(p, 2000, 3)
	cases, err := BuildAutoEval(src, 100, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	dirty, clean := 0, 0
	for _, c := range cases {
		if c.Dirty() {
			dirty++
			if c.Values[c.DirtyIndex] != c.DirtyValue {
				t.Fatal("DirtyIndex does not point at DirtyValue")
			}
		} else {
			clean++
			if c.DirtyValue != "" {
				t.Fatal("clean case carries a dirty value")
			}
		}
		if len(c.Values) < 4 {
			t.Fatal("case too short")
		}
	}
	if dirty != 100 {
		t.Errorf("dirty cases = %d, want 100", dirty)
	}
	if clean != 200 {
		t.Errorf("clean cases = %d, want 200", clean)
	}
}

func TestBuildAutoEvalErrors(t *testing.T) {
	if _, err := BuildAutoEval(nil, 10, 10, 1); err == nil {
		t.Error("nil corpus should error")
	}
	tiny := &corpus.Corpus{Columns: []*corpus.Column{
		{Values: []string{"a", "b"}}, {Values: []string{"c"}},
	}}
	if _, err := BuildAutoEval(tiny, 10, 10, 1); err == nil {
		t.Error("tiny corpus should error")
	}
}

// perfectDetector names the planted value with confidence 1 on dirty
// cases and stays silent on clean ones (it cheats by looking at labels).
type scriptedDetector struct {
	answers map[int]baselines.Prediction // case index → prediction
	calls   int
}

func (s *scriptedDetector) Name() string { return "scripted" }
func (s *scriptedDetector) Detect(values []string) []baselines.Prediction {
	p, ok := s.answers[s.calls]
	s.calls++
	if !ok {
		return nil
	}
	return []baselines.Prediction{p}
}

func TestEvaluateCasesPrecision(t *testing.T) {
	cases := []Case{
		{Values: []string{"a", "b", "XX"}, DirtyValue: "XX", DirtyIndex: 2},
		{Values: []string{"c", "d"}, DirtyIndex: -1},
		{Values: []string{"e", "f", "YY"}, DirtyValue: "YY", DirtyIndex: 2},
	}
	det := &scriptedDetector{answers: map[int]baselines.Prediction{
		0: {Index: 2, Value: "XX", Confidence: 0.9}, // correct
		1: {Index: 0, Value: "c", Confidence: 0.8},  // false positive (clean case)
		2: {Index: 0, Value: "e", Confidence: 0.7},  // wrong value
	}}
	r := EvaluateCases(det, cases, []int{1, 2, 3})
	if r.PrecisionAt[1] != 1 {
		t.Errorf("p@1 = %v", r.PrecisionAt[1])
	}
	if r.PrecisionAt[2] != 0.5 {
		t.Errorf("p@2 = %v", r.PrecisionAt[2])
	}
	if got := r.PrecisionAt[3]; got < 0.32 || got > 0.34 {
		t.Errorf("p@3 = %v", got)
	}
	if r.Predictions != 3 || r.Correct != 1 {
		t.Errorf("predictions=%d correct=%d", r.Predictions, r.Correct)
	}
}

func TestEvaluateCorpusUsesLabels(t *testing.T) {
	cols := []*corpus.Column{
		{Values: []string{"3-2", "1-0", "4-4", "2-1", "0-0", "5-3", "2-2", "-"}, Dirty: []int{7}},
		{Values: []string{"x", "y"}, Dirty: []int{}},
		{Values: []string{"unlabeled"}}, // skipped
	}
	r := EvaluateCorpus(&baselines.PWheel{}, cols, []int{1})
	if r.Predictions == 0 {
		t.Fatal("expected at least one prediction")
	}
	if r.PrecisionAt[1] != 1 {
		t.Errorf("p@1 = %v; PWheel should catch the placeholder first", r.PrecisionAt[1])
	}
}

func TestEvaluateEmptyPool(t *testing.T) {
	det := &scriptedDetector{answers: map[int]baselines.Prediction{}}
	r := EvaluateCases(det, []Case{{Values: []string{"a", "b"}, DirtyIndex: -1}}, []int{10})
	if r.Predictions != 0 || r.PrecisionAt[10] != 0 {
		t.Errorf("unexpected result %+v", r)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	s := tab.String()
	if !strings.Contains(s, "X — demo") || !strings.Contains(s, "long-header") {
		t.Errorf("rendering broken:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d", len(lines))
	}
	md := tab.Markdown()
	for _, want := range []string{"**X — demo**", "| a | long-header |", "|---|---|", "| 333 | 4 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestSuiteSmokeTable3 exercises corpus generation without training.
func TestSuiteSmokeTable3(t *testing.T) {
	s := sharedSuite(t)
	tab := s.Table3()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 3 rows = %d", len(tab.Rows))
	}
	if tab.Rows[3][2] != "441" {
		t.Errorf("CSV suite should report 441 columns, got %v", tab.Rows[3])
	}
}

// TestSuiteAllArtifacts regenerates every table and figure at the small
// scale and sanity-checks structure: every artifact renders, has rows, and
// numeric cells parse.
func TestSuiteAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	s := sharedSuite(t)
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"Table 3": false, "Figure 4a": false, "Figure 4b": false, "Table 4": false,
		"Figure 5": false, "Figure 6": false, "Figure 7": false,
		"Figure 8a": false, "Figure 8b": false, "Figure 8c": false,
		"Table 5": false, "Figure 17a": false, "Figure 17b": false,
		"Ablation ST/DT": false,
	}
	for _, tab := range tables {
		if _, ok := want[tab.ID]; !ok {
			t.Errorf("unexpected artifact %q", tab.ID)
			continue
		}
		want[tab.ID] = true
		if len(tab.Rows) == 0 || len(tab.Header) == 0 {
			t.Errorf("%s: empty table", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: ragged row %v", tab.ID, row)
			}
		}
		if tab.String() == "" || tab.Markdown() == "" {
			t.Errorf("%s: rendering failed", tab.ID)
		}
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("artifact %q missing from All()", id)
		}
	}
}

// TestSuiteHeadlineShape runs the expensive experiments once (shared
// suite) and checks the paper's qualitative claims hold: Auto-Detect tops
// Figure 4a, and precision degrades as the dirty:clean ratio drops.
func TestSuiteHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	s := sharedSuite(t)
	f4a, err := s.Figure4a()
	if err != nil {
		t.Fatal(err)
	}
	if f4a.Rows[0][0] != "Auto-Detect" {
		t.Fatalf("first row should be Auto-Detect: %v", f4a.Rows[0])
	}
	// Auto-Detect's p@smallest-k should be at least 0.9 and at least as
	// good as every baseline.
	cell := func(row []string, i int) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("row %v, cell %d: %v", row, i, err)
		}
		return v
	}
	k := s.Scale.CorpusKs[0]
	adP := cell(f4a.Rows[0], 1)
	if adP < 0.9 {
		t.Errorf("Auto-Detect p@%d = %.3f on WIKI", k, adP)
	}
	for _, row := range f4a.Rows[1:] {
		if p := cell(row, 1); p > adP {
			t.Errorf("%s p@%d = %.3f beats Auto-Detect's %.3f on WIKI", row[0], k, p, adP)
		}
	}

	f5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// Find Auto-Detect rows at 1:1 and 1:10; the 1:1 precision at the
	// largest k should not be below the 1:10 one.
	var p11, p110 []string
	for _, row := range f5.Rows {
		if row[1] == "Auto-Detect" {
			if row[0] == "1:1" {
				p11 = row
			}
			if row[0] == "1:10" {
				p110 = row
			}
		}
	}
	if p11 == nil || p110 == nil {
		t.Fatal("missing Auto-Detect rows in Figure 5")
	}
	if a, b := cell(p11, len(p11)-1), cell(p110, len(p110)-1); a < b {
		t.Errorf("precision should not improve as clean columns are added: 1:1=%.3f < 1:10=%.3f", a, b)
	}
}
