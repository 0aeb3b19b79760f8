// Package semantic implements value-level error detection — the extension
// the paper names as future work ("detecting errors in semantic data
// values", Section 6). Pattern-level generalization cannot see that
// "Seattle" does not belong in a column of US states: every value is
// `\U\l+`. But raw value co-occurrence can (Section 2.1 develops NPMI at
// the value level before generalizing): "Washington" and "Oregon" co-occur
// in thousands of columns, "Washington" and "Seattle" far more rarely
// relative to their popularity.
//
// Raw values are the patterns of the Leaf language, which performs no
// generalization, so the value-level model is the corpus statistics of
// Leaf that every pipeline build already counts, pruned to the values
// above a support threshold to keep memory bounded. Columns dominated by
// unsupported values yield no verdicts (the pattern-level detector handles
// those).
package semantic

import (
	"cmp"
	"errors"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Config tunes the value-level model.
type Config struct {
	// MinSupport keeps only values occurring in at least this many columns
	// (default 5).
	MinSupport int
	// MaxValueLength ignores longer values (default 40 bytes).
	MaxValueLength int
	// Smoothing is the Jelinek–Mercer factor (default 0.01).
	Smoothing float64
	// Threshold flags pairs with NPMI at or below it (default −0.25).
	Threshold float64
}

// DefaultConfig returns the default value-level settings; FromLeaf and
// Train fill a zero field of their Config from here. Smoothing is far
// lighter than the pattern-level default: value marginals are small, so
// Jelinek–Mercer blending at f = 0.1 would lift genuinely disjoint value
// pairs well above any usable threshold.
func DefaultConfig() Config {
	return Config{MinSupport: 5, MaxValueLength: 40, Smoothing: 0.01, Threshold: -0.25}
}

// Model answers value-level NPMI from pruned Leaf statistics: every
// pattern is a supported value.
type Model struct {
	threshold float64
	ls        *stats.LanguageStats
}

// FromLeaf builds the model from Leaf statistics: it keeps the values in
// at least cfg.MinSupport columns and at most cfg.MaxValueLength bytes
// long, their co-occurrence counts and N, at cfg.Smoothing. Zero (or, for
// the two sizes, negative) fields of cfg take their DefaultConfig values.
// A corpus where no value reaches the support threshold yields a model
// with no supported values, which flags nothing.
func FromLeaf(leaf *stats.LanguageStats, cfg Config) (*Model, error) {
	if leaf == nil || leaf.Language().ID != pattern.Leaf().ID {
		return nil, errors.New("semantic: the value-level model needs Leaf statistics")
	}
	def := DefaultConfig()
	cfg.MinSupport = cmp.Or(max(cfg.MinSupport, 0), def.MinSupport)
	cfg.MaxValueLength = cmp.Or(max(cfg.MaxValueLength, 0), def.MaxValueLength)
	cfg.Smoothing = cmp.Or(cfg.Smoothing, def.Smoothing)
	cfg.Threshold = cmp.Or(cfg.Threshold, def.Threshold)
	ls, err := leaf.Prune(func(v string, count uint64) bool {
		return count >= uint64(cfg.MinSupport) && len(v) <= cfg.MaxValueLength
	})
	if err != nil {
		return nil, err
	}
	ls.SetSmoothing(cfg.Smoothing)
	return &Model{threshold: cfg.Threshold, ls: ls}, nil
}

// Train counts the corpus under Leaf, with the kernel pipeline workers
// run, and builds the model from that count (FromLeaf).
func Train(c *corpus.Corpus, cfg Config) (*Model, error) {
	if c == nil || len(c.Columns) == 0 {
		return nil, errors.New("semantic: empty corpus")
	}
	b := stats.NewBuilder([]pattern.Language{pattern.Leaf()}, 0)
	for _, col := range c.Columns {
		b.AddColumn(col.Values)
	}
	m, err := FromLeaf(b.Stats()[0], cfg)
	if err != nil {
		return nil, err
	}
	if m.SupportedValues() == 0 {
		return nil, errors.New("semantic: no value meets the support threshold")
	}
	return m, nil
}

// SupportedValues returns the number of values the model tracks.
func (m *Model) SupportedValues() int { return m.ls.DistinctPatterns() }

// SupportedPairs returns the number of co-occurring supported value pairs
// the model stores.
func (m *Model) SupportedPairs() int { return m.ls.PairStoreEntries() }

// NPMI returns the value-level NPMI of two supported values; ok is false
// when either value lacks support.
func (m *Model) NPMI(v1, v2 string) (npmi float64, ok bool) {
	if v1 == v2 {
		return 1, true
	}
	id1, ok1 := m.ls.PatternID(v1)
	id2, ok2 := m.ls.PatternID(v2)
	if !ok1 || !ok2 {
		return 0, false
	}
	return m.ls.NPMIByID(id1, id2), true
}

// DetectColumn is DetectDistinct over the column's distinct table.
func (m *Model) DetectColumn(values []string) []core.Finding {
	return m.DetectDistinct(core.Tabulate(values))
}

// DetectDistinct flags the supported values of a column's distinct table
// (core.Tabulate) that are value-level incompatible with its other
// supported values. Partner is the supported value a finding conflicts
// with most; Confidence derives from the NPMI margin below the threshold,
// count-weighted over the value's partners (core.Attribute). Findings are
// ranked by descending confidence; columns with fewer than three supported
// distinct values yield nothing.
func (m *Model) DetectDistinct(table []core.Distinct) []core.Finding {
	var distinct []core.Distinct
	var ids []uint32
	for _, d := range table {
		if id, ok := m.ls.PatternID(d.Value); ok {
			distinct = append(distinct, d)
			ids = append(ids, id)
		}
	}
	if len(distinct) < 3 {
		return nil
	}
	t := m.threshold
	return core.Attribute(distinct, func(i, j int) (float64, bool) {
		s := m.ls.NPMIByID(ids[i], ids[j])
		if s > t {
			return 0, false
		}
		// Confidence from the margin below the threshold.
		return min((t-s)/(t+1), 1), true
	})
}
