package core

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// fixtureCalibrations builds two deterministic calibrated languages from a
// tiny hand-made corpus: the crude language (sees separators) and L1
// (sees only symbols), calibrated against hand-made training pairs.
func fixtureCalibrations(t testing.TB) []*Calibration {
	t.Helper()
	mk := func(lang pattern.Language) *stats.LanguageStats {
		ls := stats.NewLanguageStats(lang, 0.1)
		for i := 0; i < 40; i++ {
			ls.AddColumn([]string{"2011-01-01", "2012-03-04", "1999-12-31"})
			ls.AddColumn([]string{"2011/01/01", "2012/03/04"})
			ls.AddColumn([]string{"2011-01-01", "1999", "2005"})
			ls.AddColumn([]string{"July-01", "March-02", "April-03"})
		}
		return ls
	}
	ex := func(u, v string, neg bool) distsup.Example {
		return distsup.Example{
			U: u, V: v,
			URuns: pattern.Encode(u), VRuns: pattern.Encode(v),
			Incompatible: neg,
		}
	}
	data := &distsup.Data{Examples: []distsup.Example{
		ex("2011-01-01", "2012-03-04", false),
		ex("2011-01-01", "1999", false),
		ex("1999", "2005", false),
		ex("July-01", "March-02", false),
		ex("2011-01-01", "2011/01/01", true),
		ex("2012-03-04", "2011/01/01", true),
		ex("1999", "2011/01/01", true),
		ex("July-01", "2011/01/01", true),
		ex("July-01", "1999", true),
	}}
	var cals []*Calibration
	for _, lang := range []pattern.Language{pattern.Crude(), pattern.L2()} {
		cal, err := Calibrate(mk(lang), data, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		cals = append(cals, cal)
	}
	return cals
}

func TestFixtureCalibrationsFire(t *testing.T) {
	cals := fixtureCalibrations(t)
	for _, cal := range cals {
		if cal.Theta < -1 {
			t.Fatalf("language %v never fires (θ=%v, coverage=%d)",
				cal.Stats.Language(), cal.Theta, cal.CoverageCount())
		}
	}
	// Crude sees the separator difference.
	crude := cals[0]
	s := crude.Stats.NPMIValues("2011-01-01", "2011/01/01")
	if !crude.Covers(s) {
		t.Errorf("crude should fire on mixed separators (score %v, θ %v)", s, crude.Theta)
	}
	// L2 cannot: both generalize identically.
	l2 := cals[1]
	if got := l2.Stats.NPMIValues("2011-01-01", "2011/01/01"); got != 1 {
		t.Errorf("L2 should see identical patterns, NPMI = %v", got)
	}
}

func TestMaxConfidenceUnionSemantics(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	// One language firing suffices.
	ps := det.ScorePair("2011-01-01", "2011/01/01")
	if !ps.Flagged {
		t.Fatalf("union semantics broken: %+v", ps)
	}
	fires := 0
	for _, l := range ps.ByLanguage {
		if l.Fires {
			fires++
		}
	}
	if fires == 0 {
		t.Fatal("no language fired")
	}
	// Confidence equals the max precision among firing languages.
	want := 0.0
	for _, l := range ps.ByLanguage {
		if l.Fires && l.Precision > want {
			want = l.Precision
		}
	}
	if ps.Confidence != want {
		t.Errorf("confidence %v, want max firing precision %v", ps.Confidence, want)
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(nil); err == nil {
		t.Error("empty ensemble should error")
	}
}

func TestDetectColumnMaxDistinctCap(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	// 60 distinct values past the cap; must not blow up and must stay
	// within the cap.
	values := make([]string, MaxDistinct+60)
	for i := range values {
		values[i] = strconv.Itoa(1000 + i)
	}
	findings := det.DetectColumn(values)
	if len(findings) > MaxDistinct {
		t.Errorf("cap ignored: %d findings", len(findings))
	}
	for _, f := range findings {
		if f.Index >= MaxDistinct {
			t.Errorf("value past the cap scored: %+v", f)
		}
	}
}

// TestDetectColumnIgnoresEmptyCells: CSV extraction pads ragged columns
// with empty cells; those are missing data and must never be flagged or
// used as conflict partners.
func TestDetectColumnIgnoresEmptyCells(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	values := []string{"2011-01-01", "", "2012-03-04", "", "", "1999-12-31"}
	for _, f := range det.DetectColumn(values) {
		if f.Value == "" || f.Partner == "" {
			t.Fatalf("empty cell surfaced in finding %+v", f)
		}
	}
	// All-empty and empty-plus-one columns are silent.
	if got := det.DetectColumn([]string{"", "", ""}); got != nil {
		t.Error("all-empty column should yield nothing")
	}
}

func TestDetectColumnWeightsByCount(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	// The minority slash date conflicts with six rows of dash dates; the
	// majority values conflict with only one row.
	values := []string{
		"2011-01-01", "2012-03-04", "1999-12-31", "2013-05-06", "2014-07-08",
		"2015-09-10", "2011/01/01",
	}
	findings := det.DetectColumn(values)
	if len(findings) == 0 || findings[0].Value != "2011/01/01" {
		t.Fatalf("findings = %+v", findings)
	}
	top := findings[0]
	var majority *Finding
	for i := range findings {
		if findings[i].Value == "2011-01-01" {
			majority = &findings[i]
		}
	}
	if majority != nil && majority.Confidence >= top.Confidence {
		t.Errorf("majority value %v should score below minority %v", majority, top)
	}
	if top.Index != 6 {
		t.Errorf("top index = %d", top.Index)
	}
}

// TestDetectColumnAllocsLinear: scoring a column allocates per distinct
// value, never per value pair.
func TestDetectColumnAllocsLinear(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	values := make([]string, 0, n)
	for i := 0; len(values) < n; i++ {
		sep := "-"
		if i%10 == 9 {
			sep = "/"
		}
		values = append(values, fmt.Sprintf("20%02d%s%02d%s%02d", i%30, sep, 1+i%12, sep, 1+i/12))
	}
	if got := len(Scored(Tabulate(values))); got != n {
		t.Fatalf("column has %d distinct values, want %d", got, n)
	}
	if len(det.DetectColumn(values)) == 0 {
		t.Fatal("no findings: the column should mix date formats")
	}
	allocs := testing.AllocsPerRun(5, func() { det.DetectColumn(values) })
	// n(n−1)/2 = 4,950 pairs; a per-pair allocation would blow this bound.
	if limit := 10.0 * n; allocs > limit {
		t.Errorf("DetectColumn on %d distinct values made %.0f allocations, want ≤ %.0f", n, allocs, limit)
	}
}
