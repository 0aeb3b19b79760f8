// Package semantic implements value-level error detection — the extension
// the paper names as future work ("detecting errors in semantic data
// values", Section 6). Pattern-level generalization cannot see that
// "Seattle" does not belong in a column of US states: every value is
// `\U\l+`. But raw value co-occurrence can (Section 2.1 develops NPMI at
// the value level before generalizing): "Washington" and "Oregon" co-occur
// in thousands of columns, "Washington" and "Seattle" far more rarely
// relative to their popularity.
//
// To keep memory bounded without generalization, the model only keeps
// values above a support threshold; columns dominated by unsupported
// values yield no verdicts (the pattern-level detector handles those).
package semantic

import (
	"errors"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/stats"
)

// Config tunes value-level training.
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

// DefaultConfig returns the default value-level settings; Train fills a
// zero field of its Config from here. Smoothing is far lighter than the
// pattern-level default: value marginals are small, so Jelinek–Mercer
// blending at f = 0.1 would lift genuinely disjoint value pairs well above
// any usable threshold.
func DefaultConfig() Config {
	return Config{MinSupport: 5, MaxValueLength: 40, Smoothing: 0.01, Threshold: -0.25}
}

// Model holds value-level co-occurrence statistics.
type Model struct {
	cfg Config
	n   uint64
	ids map[string]uint32
	occ []uint32
	prs *stats.MapPairStore
}

// Train builds the model from a corpus, keeping only supported values.
// Zero (or, for the two sizes, negative) fields of cfg take their
// DefaultConfig values.
func Train(c *corpus.Corpus, cfg Config) (*Model, error) {
	if c == nil || len(c.Columns) == 0 {
		return nil, errors.New("semantic: empty corpus")
	}
	def := DefaultConfig()
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = def.MinSupport
	}
	if cfg.MaxValueLength <= 0 {
		cfg.MaxValueLength = def.MaxValueLength
	}
	if cfg.Smoothing == 0 {
		cfg.Smoothing = def.Smoothing
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = def.Threshold
	}

	// Pass 1: column-level value support.
	support := map[string]int{}
	for _, col := range c.Columns {
		for _, v := range col.DistinctValues() {
			if len(v) <= cfg.MaxValueLength {
				support[v]++
			}
		}
	}
	m := &Model{cfg: cfg, ids: map[string]uint32{}, prs: stats.NewMapPairStore()}
	for v, s := range support {
		if s >= cfg.MinSupport {
			m.ids[v] = uint32(len(m.occ))
			m.occ = append(m.occ, 0)
		}
	}
	if len(m.ids) == 0 {
		return nil, errors.New("semantic: no value meets the support threshold")
	}

	// Pass 2: occurrence and co-occurrence over supported values.
	for _, col := range c.Columns {
		m.n++
		var ids []uint32
		for _, v := range col.DistinctValues() {
			if id, ok := m.ids[v]; ok {
				ids = append(ids, id)
				m.occ[id]++
			}
		}
		if len(ids) > 64 {
			ids = ids[:64]
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				m.prs.Add(ids[i], ids[j], 1)
			}
		}
	}
	return m, nil
}

// Supported reports whether the model has statistics for the value.
func (m *Model) Supported(v string) bool {
	_, ok := m.ids[v]
	return ok
}

// SupportedValues returns the number of values the model tracks.
func (m *Model) SupportedValues() int { return len(m.ids) }

// NPMI returns the value-level NPMI of two supported values; ok is false
// when either value lacks support.
func (m *Model) NPMI(v1, v2 string) (npmi float64, ok bool) {
	if v1 == v2 {
		return 1, true
	}
	id1, ok1 := m.ids[v1]
	id2, ok2 := m.ids[v2]
	if !ok1 || !ok2 || m.n == 0 {
		return 0, false
	}
	return m.npmi(id1, id2), true
}

// npmi is NPMI over two distinct value IDs of a model with n > 0.
func (m *Model) npmi(id1, id2 uint32) float64 {
	c12 := float64(m.prs.Get(id1, id2))
	return stats.SmoothedNPMI(float64(m.occ[id1]), float64(m.occ[id2]), c12, float64(m.n), m.cfg.Smoothing)
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
		if id, ok := m.ids[d.Value]; ok {
			distinct = append(distinct, d)
			ids = append(ids, id)
		}
	}
	if len(distinct) < 3 || m.n == 0 {
		return nil
	}
	t := m.cfg.Threshold
	return core.Attribute(distinct, func(i, j int) (float64, bool) {
		s := m.npmi(ids[i], ids[j])
		if s > t {
			return 0, false
		}
		// Confidence from the margin below the threshold.
		return min((t-s)/(t+1), 1), true
	})
}
