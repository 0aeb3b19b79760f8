package core

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// refPipeline runs the corpus stages of training in memory: one
// stats.Builder over every column, distant supervision over the whole
// corpus. Production builds count through internal/pipeline, which this
// package cannot import; cfg must carry every field (DefaultTrainConfig).
// Like the pipeline, it counts one representative per partition class of
// the candidates.
func refPipeline(c *corpus.Corpus, cfg TrainConfig) (*Pipeline, error) {
	langs := pattern.Representatives(candidates(cfg))
	b := stats.NewBuilder(langs, cfg.Smoothing)
	for _, col := range c.Columns {
		b.AddColumn(col.Values)
	}
	data, err := distsup.Generate(c, cfg.DistSup)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Languages: langs, Stats: b.Stats(), Data: data}, nil
}

// refTrain calibrates and selects over refPipeline's products.
func refTrain(c *corpus.Corpus, cfg TrainConfig) (*Detector, *TrainReport, error) {
	p, err := refPipeline(c, cfg)
	if err != nil {
		return nil, nil, err
	}
	cands, err := p.Calibrate(context.Background(), cfg.TargetPrecision, 0)
	if err != nil {
		return nil, nil, err
	}
	det, rep, err := BuildDetector(cands, cfg.MemoryBudget, cfg.SketchRatio)
	if err != nil {
		return nil, nil, err
	}
	rep.CandidateLanguages = len(candidates(cfg))
	rep.CountedLanguages = len(p.Languages)
	rep.TrainingExamples = len(p.Data.Examples)
	return det, rep, nil
}

// candidates is cfg's candidate space: its languages, or all 144.
func candidates(cfg TrainConfig) []pattern.Language {
	if cfg.Languages == nil {
		return pattern.All()
	}
	return cfg.Languages
}

// Heavy fixtures are trained once and shared: training over the full
// candidate space (its 50 partition classes) is the expensive step.
var (
	fullOnce sync.Once
	fullDet  *Detector
	fullRep  *TrainReport
	fullErr  error

	tinyOnce sync.Once
	tinyDet  *Detector
	tinyErr  error
)

// fullDetector trains on a WEB-profile corpus with the complete candidate
// space — the configuration every behavioural test shares.
func fullDetector(t testing.TB) (*Detector, *TrainReport) {
	t.Helper()
	fullOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 6000, 7)
		cfg := DefaultTrainConfig()
		cfg.DistSup.PositivePairs = 5000
		cfg.DistSup.NegativePairs = 5000
		fullDet, fullRep, fullErr = refTrain(c, cfg)
	})
	if fullErr != nil {
		t.Fatal(fullErr)
	}
	return fullDet, fullRep
}

// tinyDetector trains with a three-language candidate set for cheap
// plumbing tests.
func tinyDetector(t testing.TB) *Detector {
	t.Helper()
	tinyOnce.Do(func() {
		c := corpus.Generate(corpus.WebProfile(), 2000, 7)
		cfg := DefaultTrainConfig()
		cfg.Languages = []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2()}
		cfg.DistSup.PositivePairs = 1500
		cfg.DistSup.NegativePairs = 1500
		tinyDet, _, tinyErr = refTrain(c, cfg)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyDet
}

func TestTrainSelectsEnsemble(t *testing.T) {
	det, rep := fullDetector(t)
	if rep.CandidateLanguages != 144 {
		t.Errorf("candidates = %d, want 144", rep.CandidateLanguages)
	}
	if rep.CountedLanguages != 50 {
		t.Errorf("counted = %d, want 50", rep.CountedLanguages)
	}
	if len(rep.Selected) < 2 {
		t.Errorf("selected only %d languages: %v", len(rep.Selected), rep.Selected)
	}
	if rep.Coverage == 0 {
		t.Error("zero training coverage")
	}
	if det.Bytes() > 64<<20 {
		t.Errorf("model exceeds budget: %d bytes", det.Bytes())
	}
	if rep.TrainingExamples < 9000 {
		t.Errorf("training examples = %d", rep.TrainingExamples)
	}
}

// TestMotivatingColumns reproduces the introduction's Col-1/Col-2/Col-3
// discussion: comma-separated thousands and floats among integers are NOT
// errors (global statistics say they co-occur), while a 50-50 mix of two
// date formats IS an error regardless of the local distribution.
func TestMotivatingColumns(t *testing.T) {
	det, _ := fullDetector(t)

	// Col-1: {0, 1, ..., 999, 1,000} — MDL would flag "1,000"; we must not.
	col1 := make([]string, 0, 40)
	for i := 0; i < 39; i++ {
		col1 = append(col1, strconv.Itoa(i*25))
	}
	col1 = append(col1, "1,000")
	for _, f := range det.DetectColumn(col1) {
		if f.Value == "1,000" && f.Confidence > 0.5 {
			t.Errorf("flagged compatible comma-separated integer with confidence %.2f (partner %q)",
				f.Confidence, f.Partner)
		}
	}

	// Col-2: mostly integers plus "1.99" — also not an error.
	col2 := []string{"0", "1", "2", "5", "12", "25", "40", "77", "99", "1.99"}
	for _, f := range det.DetectColumn(col2) {
		if f.Value == "1.99" && f.Confidence > 0.5 {
			t.Errorf("flagged compatible float among integers with confidence %.2f", f.Confidence)
		}
	}

	// Col-3: 50-50 mix of "2011-01-xx" and "2011/01/xx" — every pair across
	// the two formats is incompatible; the detector must flag the mix.
	var col3 []string
	for d := 1; d <= 6; d++ {
		col3 = append(col3, "2011-01-0"+strconv.Itoa(d))
		col3 = append(col3, "2011/01/0"+strconv.Itoa(d))
	}
	findings := det.DetectColumn(col3)
	flagged := false
	for _, f := range findings {
		if f.Confidence > 0.5 {
			flagged = true
			break
		}
	}
	if !flagged {
		t.Error("failed to flag the 50-50 mixed date formats of Col-3")
	}
}

func TestDetectColumnPlantedError(t *testing.T) {
	det, _ := fullDetector(t)
	cases := []struct {
		values []string
		dirty  string
	}{
		{[]string{"2011-01-01", "2012-05-14", "2013-11-30", "2014-02-07", "2011/06/20"}, "2011/06/20"},
		{[]string{"3-2", "1-0", "4-4", "2-1", "0-0", "-"}, "-"},
		{[]string{"1963", "2008", "1976", "1999", "2013."}, "2013."},
		{[]string{"72 kg", "81 kg", "64 kg", "154 lbs", "90 kg"}, "154 lbs"},
	}
	for _, c := range cases {
		findings := det.DetectColumn(c.values)
		if len(findings) == 0 {
			t.Errorf("no findings for %v", c.values)
			continue
		}
		if findings[0].Value != c.dirty {
			t.Errorf("top finding for %v is %q (%.2f), want %q",
				c.values, findings[0].Value, findings[0].Confidence, c.dirty)
		}
	}
}

func TestDetectColumnCleanColumnsQuiet(t *testing.T) {
	det, _ := fullDetector(t)
	clean := [][]string{
		{"2011-01-01", "2012-05-14", "2013-11-30", "2014-02-07"},
		{"1", "15", "230", "4,500", "99"},
		{"Alice Smith", "Bob Jones", "Carol Chen"},
		{"42%", "7%", "99%", "13.5%"},
	}
	for _, values := range clean {
		for _, f := range det.DetectColumn(values) {
			if f.Confidence > 0.8 {
				t.Errorf("high-confidence finding %q (%.2f) in clean column %v",
					f.Value, f.Confidence, values)
			}
		}
	}
}

func TestDetectColumnDegenerate(t *testing.T) {
	det := tinyDetector(t)
	if got := det.DetectColumn(nil); got != nil {
		t.Error("nil column should yield no findings")
	}
	if got := det.DetectColumn([]string{"only"}); got != nil {
		t.Error("single value should yield no findings")
	}
	if got := det.DetectColumn([]string{"same", "same", "same"}); got != nil {
		t.Error("constant column should yield no findings")
	}
}

func TestScorePairSymmetry(t *testing.T) {
	det := tinyDetector(t)
	a := det.ScorePair("2011-01-01", "2011/01/01")
	b := det.ScorePair("2011/01/01", "2011-01-01")
	if a.Confidence != b.Confidence || a.Flagged != b.Flagged {
		t.Error("ScorePair is not symmetric")
	}
	if len(a.ByLanguage) != len(det.Languages()) {
		t.Errorf("ByLanguage has %d entries, want %d", len(a.ByLanguage), len(det.Languages()))
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	det := tinyDetector(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Languages()) != len(det.Languages()) {
		t.Fatal("language count differs")
	}
	pairs := [][2]string{
		{"2011-01-01", "2011/01/01"},
		{"100", "1,000"},
		{"3-2", "-"},
		{"a@b.com", "12:30"},
	}
	for _, p := range pairs {
		a, b := det.ScorePair(p[0], p[1]), back.ScorePair(p[0], p[1])
		if a.Confidence != b.Confidence || a.Flagged != b.Flagged {
			t.Errorf("pair %v scored differently after round trip: %+v vs %+v", p, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a model")); err == nil {
		t.Error("garbage should not load")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("empty input should not load")
	}
}

func TestTrainWithSketchCompression(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 4000, 7)
	cfg := DefaultTrainConfig()
	cfg.DistSup.PositivePairs = 3000
	cfg.DistSup.NegativePairs = 3000
	// A representative sixteen-language subset keeps the test fast.
	all := pattern.All()
	for i := 0; i < len(all); i += 5 {
		cfg.Languages = append(cfg.Languages, all[i])
	}
	cfg.SketchRatio = 0.1
	det, _, err := refTrain(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := det.ScorePair("2011-01-01", "2011/01/01")
	if !ps.Flagged {
		t.Errorf("sketch-compressed detector lost the mixed-date signal (conf %.2f)", ps.Confidence)
	}
	clean := det.ScorePair("2011-01-01", "2012-09-30")
	if clean.Flagged {
		t.Error("sketch-compressed detector flags identical-format dates")
	}
}

func BenchmarkScorePair(b *testing.B) {
	det, _ := fullDetector(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = det.ScorePair("2011-01-01", "2011/01/01")
	}
}

func BenchmarkDetectColumn(b *testing.B) {
	det, _ := fullDetector(b)
	col := []string{"2011-01-01", "2012-05-14", "2013-11-30", "2014-02-07", "2011/06/20",
		"2015-03-12", "2016-08-01", "2017-09-22", "2018-10-05", "2019-12-31"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = det.DetectColumn(col)
	}
}
