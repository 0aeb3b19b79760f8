package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/semantic"
	"repro/internal/stats"
)

// testTrainConfig keeps the candidate space small enough for fast tests:
// every 5th language of the 144, modest training-pair counts.
func testTrainConfig() core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	all := pattern.All()
	for i := 0; i < len(all); i += 5 {
		cfg.Languages = append(cfg.Languages, all[i])
	}
	ds := distsup.DefaultConfig()
	ds.PositivePairs, ds.NegativePairs = 1500, 1500
	cfg.DistSup = ds
	return cfg
}

var probePairs = [][2]string{
	{"2011-01-01", "2011/01/01"},
	{"2011-01-01", "2012-09-30"},
	{"1,000", "100"},
	{"3-2", "-"},
}

// referenceTrain trains in memory, without the streaming fan-out: one
// stats.Builder over the whole corpus, distant supervision over every
// column, then per-language calibration and selection.
func referenceTrain(t *testing.T, c *corpus.Corpus, cfg core.TrainConfig) (*core.Detector, *core.TrainReport) {
	t.Helper()
	b := stats.NewBuilder(cfg.Languages, cfg.Smoothing)
	for _, col := range c.Columns {
		b.AddColumn(col.Values)
	}
	data, err := distsup.Generate(c, cfg.DistSup)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]*core.Calibration, len(b.Stats()))
	for i, ls := range b.Stats() {
		if cands[i], err = core.Calibrate(ls, data, cfg.TargetPrecision); err != nil {
			t.Fatal(err)
		}
	}
	det, rep, err := core.BuildDetector(cands, cfg.MemoryBudget, cfg.SketchRatio)
	if err != nil {
		t.Fatal(err)
	}
	rep.TrainingExamples = len(data.Examples)
	return det, rep
}

// TestRunMatchesInMemoryReference: the streaming pipeline must make the
// same detection decisions as an in-memory reference build — same
// selected languages, same thresholds, same pair verdicts — and worker
// count must not change the serialized model by a single byte.
func TestRunMatchesInMemoryReference(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 1200, 23)
	cfg := testTrainConfig()

	ref, refRep := referenceTrain(t, c, cfg)

	run := func(workers int) *Result {
		t.Helper()
		res, err := Run(context.Background(), NewSliceSource(c.Columns), Options{
			Workers: workers,
			Train:   cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)

	if r1.Columns != uint64(len(c.Columns)) {
		t.Errorf("pipeline counted %d columns, corpus has %d", r1.Columns, len(c.Columns))
	}
	if r1.Values != uint64(c.NumValues()) {
		t.Errorf("pipeline counted %d values, corpus has %d", r1.Values, c.NumValues())
	}
	if got, want := r1.Report.CandidateLanguages, len(cfg.Languages); got != want {
		t.Errorf("report names %d candidate languages, want %d", got, want)
	}
	if got, want := r1.Report.CountedLanguages, len(pattern.Representatives(cfg.Languages)); got != want || want >= len(cfg.Languages) {
		t.Errorf("report counted %d languages, want %d of %d", got, want, len(cfg.Languages))
	}
	if len(r1.Report.Selected) != len(refRep.Selected) {
		t.Fatalf("selected %v vs reference %v", r1.Report.Selected, refRep.Selected)
	}
	for i := range refRep.Selected {
		if r1.Report.Selected[i] != refRep.Selected[i] {
			t.Fatalf("language %d differs: %v vs %v", i, r1.Report.Selected[i], refRep.Selected[i])
		}
	}
	if r1.Report.Coverage != refRep.Coverage {
		t.Errorf("coverage %d vs reference %d", r1.Report.Coverage, refRep.Coverage)
	}
	if r1.Report.TrainingExamples != refRep.TrainingExamples {
		t.Errorf("training examples %d vs reference %d", r1.Report.TrainingExamples, refRep.TrainingExamples)
	}
	for i, cal := range r1.Detector.Languages() {
		if want := ref.Languages()[i].Theta; cal.Theta != want {
			t.Errorf("theta differs for %v: %v vs %v", cal.Stats.Language(), cal.Theta, want)
		}
	}
	for _, p := range probePairs {
		x, y := r1.Detector.ScorePair(p[0], p[1]), ref.ScorePair(p[0], p[1])
		if x.Flagged != y.Flagged || x.Confidence != y.Confidence {
			t.Errorf("pair %v: pipeline %+v vs reference %+v", p, x, y)
		}
	}

	var b1, b4 bytes.Buffer
	if err := r1.Detector.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r4.Detector.Save(&b4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b4.Bytes()) {
		t.Error("workers=1 and workers=4 produced different model bytes")
	}
}

// cancelAfter wraps a source and cancels a context once n columns have
// been delivered, simulating an interrupt mid-count.
type cancelAfter struct {
	src    ColumnSource
	n      int
	cancel context.CancelFunc
	count  int
}

func (c *cancelAfter) Next() (*corpus.Column, error) {
	if c.count == c.n {
		c.cancel()
	}
	c.count++
	return c.src.Next()
}

func (c *cancelAfter) Fingerprint() string { return c.src.Fingerprint() }

func TestRunCancellation(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 400, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, &cancelAfter{src: NewSliceSource(c.Columns), n: 120, cancel: cancel}, Options{
		Workers: 2,
		Train:   testTrainConfig(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCheckpointResume is the crash/recovery contract: kill a build
// mid-count, resume it from the checkpoint, and the final model must be
// byte-identical to an uninterrupted build.
func TestRunCheckpointResume(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 600, 31)
	cfg := testTrainConfig()
	ckdir := t.TempDir()
	opts := Options{
		Workers:         2,
		Train:           cfg,
		SampleColumns:   150, // exercise reservoir persistence, not just stats
		CheckpointDir:   ckdir,
		CheckpointEvery: 130,
	}

	// Interrupted build.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, &cancelAfter{src: NewSliceSource(c.Columns), n: 300, cancel: cancel}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	shards := listCheckpoints(ckdir)
	if len(shards) == 0 || len(shards) > keepLastCheckpoints {
		t.Fatalf("after interrupt: %d checkpoint files, want 1..%d (keep-K pruning)",
			len(shards), keepLastCheckpoints)
	}

	// Resume.
	resumed, err := Run(context.Background(), NewSliceSource(c.Columns), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedColumns == 0 {
		t.Error("resume did not restore any columns from the checkpoint")
	}
	if resumed.Columns != uint64(len(c.Columns)) {
		t.Errorf("resumed build covered %d columns, want %d", resumed.Columns, len(c.Columns))
	}
	if left := listCheckpoints(ckdir); len(left) != 0 {
		t.Errorf("successful build left %d checkpoint files behind", len(left))
	}

	// Uninterrupted reference with identical options (fresh checkpoint dir).
	ref := opts
	ref.CheckpointDir = t.TempDir()
	uninterrupted, err := Run(context.Background(), NewSliceSource(c.Columns), ref)
	if err != nil {
		t.Fatal(err)
	}

	var got, want bytes.Buffer
	if err := resumed.Detector.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := uninterrupted.Detector.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("resumed model differs from uninterrupted model")
	}
}

// TestRunRejectsForeignCheckpoint: resuming over a different corpus or
// configuration must fail loudly, not silently restart.
func TestRunRejectsForeignCheckpoint(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 300, 8)
	cfg := testTrainConfig()
	ckdir := t.TempDir()
	opts := Options{Train: cfg, CheckpointDir: ckdir, CheckpointEvery: 80}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, &cancelAfter{src: NewSliceSource(c.Columns), n: 150, cancel: cancel}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	other := corpus.Generate(corpus.WebProfile(), 280, 9)
	if _, err := Run(context.Background(), NewSliceSource(other.Columns), opts); err == nil {
		t.Fatal("resume over a different corpus should fail")
	}
}

func TestRunProgressAndStages(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 300, 3)
	var reports []Progress
	res, err := Run(context.Background(), NewSliceSource(c.Columns), Options{
		Workers:  2,
		Train:    testTrainConfig(),
		Progress: func(p Progress) { reports = append(reports, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Stage]bool{}
	for _, p := range reports {
		seen[p.Stage] = true
		if p.Workers != 2 {
			t.Fatalf("progress reported %d workers, want 2", p.Workers)
		}
	}
	for _, s := range []Stage{StageCount, StageDistsup, StageCalibrate, StageSelect} {
		if !seen[s] {
			t.Errorf("no progress report for stage %s", s)
		}
	}
	timed := map[Stage]bool{}
	for _, st := range res.Stages {
		timed[st.Stage] = true
	}
	for _, s := range []Stage{StageCount, StageMerge, StageDistsup, StageCalibrate, StageSelect} {
		if !timed[s] {
			t.Errorf("no timing recorded for stage %s", s)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("zero elapsed time")
	}
	var buf bytes.Buffer
	WriteProgress(&buf, reports[len(reports)-1])
	if buf.Len() == 0 {
		t.Error("WriteProgress produced no output")
	}
}

// TestCountPartialSharesRunFanOut: CountPartial counts through Run's loop
// but keeps its own contract at the edges. An empty source is a valid
// zero-column partial that still encodes and merges, while Run refuses
// it; a cancelled count returns the context error and no partial.
func TestCountPartialSharesRunFanOut(t *testing.T) {
	opts := Options{Workers: 2, Train: testTrainConfig()}
	empty, err := CountPartial(context.Background(), NewSliceSource(nil), opts)
	if err != nil {
		t.Fatalf("empty source: %v", err)
	}
	if empty.Columns != 0 || empty.Values != 0 || empty.SampleSize() != 0 {
		t.Errorf("empty partial counted %d columns, %d values, %d sampled", empty.Columns, empty.Values, empty.SampleSize())
	}
	if want := len(pattern.Representatives(opts.Train.Languages)); len(empty.stats) != want {
		t.Fatalf("empty partial covers %d languages, want %d", len(empty.stats), want)
	}
	var buf bytes.Buffer
	if err := EncodePartial(&buf, empty); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePartial(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cols := corpus.Generate(corpus.WebProfile(), 60, 9).Columns
	full, err := CountPartial(context.Background(), NewSliceSource(cols), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Merge(full); err != nil {
		t.Fatalf("merging into a decoded empty partial: %v", err)
	}
	if back.Columns != uint64(len(cols)) {
		t.Errorf("merged partial has %d columns, want %d", back.Columns, len(cols))
	}
	if _, err := Run(context.Background(), NewSliceSource(nil), opts); err == nil || !strings.Contains(err.Error(), "source yielded no columns") {
		t.Errorf("Run on an empty source: err = %v, want \"source yielded no columns\"", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := CountPartial(ctx, &cancelAfter{src: NewSliceSource(cols), n: 20, cancel: cancel}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count: err = %v, want context.Canceled", err)
	}
	if p != nil {
		t.Error("cancelled count returned a partial")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Error("nil source should error")
	}
	if _, err := Run(context.Background(), NewSliceSource(nil), Options{Train: testTrainConfig()}); err == nil {
		t.Error("empty source should error")
	}
}

// TestRunValueModelNeedsLeaf: a build returns the value-level model exactly
// when Leaf is among its counted languages, and then the model Train
// builds over the same corpus.
func TestRunValueModelNeedsLeaf(t *testing.T) {
	c := corpus.Generate(corpus.WebProfile(), 400, 23)
	run := func(langs []pattern.Language) *Result {
		t.Helper()
		cfg := testTrainConfig()
		cfg.Languages = langs
		res, err := Run(context.Background(), NewSliceSource(c.Columns), Options{Workers: 2, Train: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	langs := testTrainConfig().Languages
	if langs[0] != pattern.Leaf() {
		t.Fatalf("the test candidates start with %v, not Leaf", langs[0])
	}
	if res := run(langs[1:]); res.Semantic != nil {
		t.Error("a build without Leaf returned a value model")
	}
	want, err := semantic.Train(c, semantic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := run(langs).Semantic
	if got == nil || got.SupportedValues() != want.SupportedValues() || got.SupportedPairs() != want.SupportedPairs() {
		t.Fatalf("value model %+v, want %d values and %d pairs as Train", got, want.SupportedValues(), want.SupportedPairs())
	}
}
