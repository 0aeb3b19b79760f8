// Package autodetect is a Go implementation of Auto-Detect (Huang & He,
// "Auto-Detect: Data-Driven Error Detection in Tables", SIGMOD 2018):
// statistics-based single-column error detection driven by pattern
// co-occurrence over large table corpora.
//
// A Model is trained offline on a corpus of (mostly clean) table columns:
//
//	model, err := autodetect.Train(columns, autodetect.DefaultConfig())
//
// and then flags values in new columns that are globally incompatible with
// the rest of the column:
//
//	for _, f := range model.DetectColumn(col) {
//	    fmt.Printf("%q conflicts with %q (confidence %.2f)\n",
//	        f.Value, f.Partner, f.Confidence)
//	}
//
// Unlike local pattern-outlier methods, the verdicts come from global
// co-occurrence statistics: "1,000" among plain integers is fine (the two
// formats co-occur throughout real tables), while a stray "2011/01/01"
// among "2011-01-02"-style dates is flagged even in a 50-50 mix.
package autodetect

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/pipeline"
)

// Config parameterizes training.
type Config struct {
	// TargetPrecision is the precision requirement P each selected
	// language is calibrated to (default 0.95, the paper's setting).
	TargetPrecision float64
	// MemoryBudget bounds the statistics footprint in bytes (default 64MB).
	MemoryBudget int
	// Smoothing is the Jelinek–Mercer factor f (default 0.1).
	Smoothing float64
	// TrainingPairs sizes the distant-supervision training set: this many
	// compatible and this many incompatible pairs (default 50000 each).
	TrainingPairs int
	// SketchRatio, in (0,1), compresses co-occurrence dictionaries to this
	// fraction of their exact size using count-min sketches. 0 keeps exact
	// dictionaries.
	SketchRatio float64
	// Seed drives all sampling (default 1).
	Seed int64
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	tc := core.DefaultTrainConfig()
	return Config{
		TargetPrecision: tc.TargetPrecision,
		MemoryBudget:    tc.MemoryBudget,
		Smoothing:       tc.Smoothing,
		TrainingPairs:   tc.DistSup.PositivePairs,
		Seed:            tc.DistSup.Seed,
	}
}

// Finding is one suspected error in a column: the suspect Value, the row
// Index of its first occurrence, the Partner it conflicts with most
// confidently, and the estimated precision of the call as Confidence.
type Finding = core.Finding

// PairVerdict is the verdict on a single value pair.
type PairVerdict struct {
	// Incompatible is true when any calibrated language fires at its
	// precision-calibrated threshold.
	Incompatible bool
	// Confidence is the estimated precision of the incompatibility call.
	Confidence float64
}

// Model is a trained Auto-Detect detector.
type Model struct {
	det    *core.Detector
	report *core.TrainReport
}

// Train builds a model from a corpus of table columns. Each column is a
// slice of cell values; the corpus is assumed to be mostly clean (the
// paper measures 93–98% clean columns in the web corpora it trains on).
// Training needs at least a few hundred columns to produce usable
// statistics; a few thousand or more is recommended.
func Train(columns [][]string, cfg Config) (*Model, error) {
	if len(columns) < 10 {
		return nil, errors.New("autodetect: need at least 10 training columns")
	}
	c := &corpus.Corpus{Name: "user"}
	for i, col := range columns {
		c.Columns = append(c.Columns, &corpus.Column{
			Name:   fmt.Sprintf("col%d", i),
			Values: col,
		})
	}
	return trainOn(c, cfg)
}

func trainOn(c *corpus.Corpus, cfg Config) (*Model, error) {
	tc := core.DefaultTrainConfig()
	if cfg.TargetPrecision > 0 {
		tc.TargetPrecision = cfg.TargetPrecision
	}
	if cfg.MemoryBudget > 0 {
		tc.MemoryBudget = cfg.MemoryBudget
	}
	if cfg.Smoothing > 0 {
		tc.Smoothing = cfg.Smoothing
	}
	tc.SketchRatio = cfg.SketchRatio
	if cfg.TrainingPairs > 0 {
		tc.DistSup.PositivePairs = cfg.TrainingPairs
		tc.DistSup.NegativePairs = cfg.TrainingPairs
	}
	if cfg.Seed != 0 {
		tc.DistSup.Seed = cfg.Seed
	}
	// One worker keeps a single copy of each language's statistics; the
	// uncapped sample draws training pairs from every column.
	res, err := pipeline.Run(context.Background(), pipeline.NewSliceSource(c.Columns), pipeline.Options{
		Workers: 1,
		Train:   tc,
	})
	if err != nil {
		return nil, err
	}
	return &Model{det: res.Detector, report: res.Report}, nil
}

// DetectColumn returns the suspected errors of a column, ranked by
// descending confidence. A nil or single-valued column yields nothing.
func (m *Model) DetectColumn(values []string) []Finding {
	return m.det.DetectColumn(values)
}

// ScorePair scores a single pair of values for compatibility.
func (m *Model) ScorePair(a, b string) PairVerdict {
	ps := m.det.ScorePair(a, b)
	return PairVerdict{Incompatible: ps.Flagged, Confidence: ps.Confidence}
}

// Languages returns a human-readable description of the selected
// generalization languages.
func (m *Model) Languages() []string {
	out := make([]string, 0, len(m.det.Languages()))
	for _, c := range m.det.Languages() {
		out = append(out, c.Stats.Language().String())
	}
	return out
}

// Bytes returns the in-memory footprint of the model's statistics.
func (m *Model) Bytes() int { return m.det.Bytes() }

// Stats summarizes the training run.
func (m *Model) Stats() string {
	if m.report == nil {
		return fmt.Sprintf("%d languages, %s", len(m.det.Languages()), byteSize(m.det.Bytes()))
	}
	return fmt.Sprintf("%d/%d languages selected, %s statistics, %d training pairs, coverage %d",
		len(m.report.Selected), m.report.CandidateLanguages,
		byteSize(m.det.Bytes()), m.report.TrainingExamples, m.report.Coverage)
}

func byteSize(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Save serializes the model in the integrity-checked v2 format (length
// header + CRC64 trailer). Sketch-compressed models cannot be saved;
// train with SketchRatio 0, save, and compress after loading if needed.
func (m *Model) Save(w io.Writer) error { return m.det.Save(w) }

// Load deserializes a model produced by Save, verifying its checksum.
// Corrupted or truncated inputs fail with an error wrapping
// core.ErrCorruptModel; legacy v1 files load without integrity checks.
func Load(r io.Reader) (*Model, error) {
	det, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Model{det: det}, nil
}

// CorpusProfile names a built-in synthetic corpus profile.
type CorpusProfile string

// Built-in corpus profiles, mirroring the paper's training and test
// corpora (Section 4.1).
const (
	// ProfileWeb is the broad web-table training profile.
	ProfileWeb CorpusProfile = "web"
	// ProfileSpreadsheet is the public-spreadsheet training profile.
	ProfileSpreadsheet CorpusProfile = "spreadsheet"
	// ProfileWiki is the Wikipedia-flavoured test profile.
	ProfileWiki CorpusProfile = "wiki"
	// ProfileEnterprise is the enterprise-spreadsheet test profile.
	ProfileEnterprise CorpusProfile = "enterprise"
)

// GenerateColumns produces n synthetic table columns under a built-in
// profile — a stand-in for the web-scale corpora the paper trains on,
// useful for examples and for bootstrapping a model without data.
func GenerateColumns(profile CorpusProfile, n int, seed int64) ([][]string, error) {
	var p corpus.Profile
	switch profile {
	case ProfileWeb:
		p = corpus.WebProfile()
	case ProfileSpreadsheet:
		p = corpus.PubXLSProfile()
	case ProfileWiki:
		p = corpus.WikiProfile()
		p.ErrorRate = 0
		p.Labeled = false
	case ProfileEnterprise:
		p = corpus.EntXLSProfile()
		p.ErrorRate = 0
		p.Labeled = false
	default:
		return nil, fmt.Errorf("autodetect: unknown profile %q", profile)
	}
	c := corpus.Generate(p, n, seed)
	out := make([][]string, len(c.Columns))
	for i, col := range c.Columns {
		out[i] = col.Values
	}
	return out, nil
}

// Languages144 returns the names of the full candidate language space, in
// ID order — mainly useful for documentation and debugging.
func Languages144() []string {
	all := pattern.All()
	out := make([]string, len(all))
	for i, l := range all {
		out[i] = l.String()
	}
	return out
}
