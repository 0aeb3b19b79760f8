package semantic

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
)

var (
	semOnce  sync.Once
	semModel *Model
	semErr   error
)

func sharedModel(t *testing.T) *Model {
	t.Helper()
	semOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 6000, 21)
		semModel, semErr = Train(c, DefaultConfig())
	})
	if semErr != nil {
		t.Fatal(semErr)
	}
	return semModel
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Error("nil corpus should error")
	}
	if _, err := Train(&corpus.Corpus{}, DefaultConfig()); err == nil {
		t.Error("empty corpus should error")
	}
	// A corpus of all-unique values has nothing above support.
	c := &corpus.Corpus{Columns: []*corpus.Column{
		{Values: []string{"aaa1", "bbb2"}}, {Values: []string{"ccc3", "ddd4"}},
	}}
	if _, err := Train(c, DefaultConfig()); err == nil {
		t.Error("unsupported corpus should error")
	}
}

func TestSupport(t *testing.T) {
	m := sharedModel(t)
	if _, ok := m.NPMI("Washington", "Seattle"); !ok {
		t.Fatal("common values should be supported")
	}
	if _, ok := m.NPMI("Washington", "zzz-never-seen"); ok {
		t.Error("unseen value supported")
	}
	if m.SupportedValues() < 100 {
		t.Errorf("only %d supported values", m.SupportedValues())
	}
}

func TestValueLevelNPMI(t *testing.T) {
	m := sharedModel(t)
	states, ok := m.NPMI("Washington", "Oregon")
	if !ok {
		t.Fatal("states should be supported")
	}
	mixed, ok := m.NPMI("Washington", "Seattle")
	if !ok {
		t.Fatal("city should be supported")
	}
	if states <= 0 {
		t.Errorf("NPMI(Washington, Oregon) = %v, want > 0 (states co-occur)", states)
	}
	if mixed >= states {
		t.Errorf("state-city NPMI %v should be below state-state %v", mixed, states)
	}
	if s, _ := m.NPMI("Washington", "Washington"); s != 1 {
		t.Error("identical values should score 1")
	}
	if _, ok := m.NPMI("Washington", "zzz-never-seen"); ok {
		t.Error("unsupported value should report !ok")
	}
}

// TestDetectsSemanticMixing: "Seattle" among states is invisible to
// pattern-level detection (identical `\U\l+` shapes) but must be caught at
// the value level.
func TestDetectsSemanticMixing(t *testing.T) {
	m := sharedModel(t)
	col := []string{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"}
	findings := m.DetectColumn(col)
	if len(findings) == 0 {
		t.Fatal("no findings on the mixed column")
	}
	if findings[0].Value != "Seattle" {
		t.Errorf("top finding = %q (%.2f vs %q), want Seattle",
			findings[0].Value, findings[0].Confidence, findings[0].Partner)
	}
	if findings[0].Index != 5 {
		t.Errorf("index = %d", findings[0].Index)
	}
}

func TestCleanColumnsQuiet(t *testing.T) {
	m := sharedModel(t)
	clean := [][]string{
		{"Washington", "Oregon", "Texas", "Florida", "Ohio"},
		{"Seattle", "Boston", "Denver", "Austin", "Miami"},
	}
	for _, col := range clean {
		for _, f := range m.DetectColumn(col) {
			if f.Confidence > 0.5 {
				t.Errorf("flagged %q in clean column %v (%.2f)", f.Value, col, f.Confidence)
			}
		}
	}
}

func TestDetectColumnDegenerate(t *testing.T) {
	m := sharedModel(t)
	if m.DetectColumn(nil) != nil {
		t.Error("nil column")
	}
	if m.DetectColumn([]string{"Washington", "Oregon"}) != nil {
		t.Error("two supported values are not enough for a verdict")
	}
	// Columns of unsupported values yield nothing.
	if m.DetectColumn([]string{"q1x", "q2x", "q3x", "q4x"}) != nil {
		t.Error("unsupported column should be silent")
	}
}

// TestDetectColumnRowOrderInvariant: reversing a column's rows changes
// neither which values are flagged nor, beyond floating-point summation
// order, their confidence.
func TestDetectColumnRowOrderInvariant(t *testing.T) {
	m := sharedModel(t)
	cols := [][]string{
		{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"},
		{"Seattle", "Boston", "Texas", "Denver", "Boston", "Austin", "Ohio", "Miami"},
	}
	for _, col := range corpus.Generate(corpus.WebProfile(), 400, 5).Columns {
		cols = append(cols, col.Values)
	}
	flagged := 0
	for _, col := range cols {
		rev := make([]string, len(col))
		for i, v := range col {
			rev[len(col)-1-i] = v
		}
		want := map[string]float64{}
		for _, f := range m.DetectColumn(col) {
			want[f.Value] = f.Confidence
		}
		got := m.DetectColumn(rev)
		if len(got) != len(want) {
			t.Errorf("column %q: %d findings forward, %d reversed", col, len(want), len(got))
		}
		for _, f := range got {
			c, ok := want[f.Value]
			if !ok {
				t.Errorf("column %q: %q flagged only when reversed", col, f.Value)
			} else if math.Abs(c-f.Confidence) > 1e-9 {
				t.Errorf("column %q: %q confidence %v forward, %v reversed", col, f.Value, c, f.Confidence)
			}
		}
		flagged += len(want)
	}
	if flagged == 0 {
		t.Fatal("vacuous: no column produced a finding")
	}
}

// TestTrainZeroConfigIsDefault: Train fills every zero Config field from
// DefaultConfig, so a zero Config trains the default model.
func TestTrainZeroConfigIsDefault(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 2000, 21)
	zero, err := Train(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Train(c, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := []string{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"}
	for _, u := range col {
		for _, v := range col {
			z, zok := zero.NPMI(u, v)
			d, dok := def.NPMI(u, v)
			if z != d || zok != dok {
				t.Fatalf("NPMI(%q, %q): zero Config %v, %t; DefaultConfig %v, %t", u, v, z, zok, d, dok)
			}
		}
	}
	got, want := zero.DetectColumn(col), def.DetectColumn(col)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("DetectColumn: zero Config %+v, DefaultConfig %+v", got, want)
	}
}
