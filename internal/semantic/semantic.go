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
	"math"
	"sort"

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
	// Smoothing is the Jelinek–Mercer factor (default 0.1).
	Smoothing float64
	// Threshold flags pairs with NPMI at or below it (default −0.3).
	Threshold float64
}

// DefaultConfig returns the default value-level settings. Smoothing is far
// lighter than the pattern-level default: value marginals are small, so
// Jelinek–Mercer blending at f = 0.1 would lift genuinely disjoint value
// pairs well above any usable threshold.
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
func Train(c *corpus.Corpus, cfg Config) (*Model, error) {
	if c == nil || len(c.Columns) == 0 {
		return nil, errors.New("semantic: empty corpus")
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = 5
	}
	if cfg.MaxValueLength <= 0 {
		cfg.MaxValueLength = 40
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = -0.3
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
	c1 := float64(m.occ[id1])
	c2 := float64(m.occ[id2])
	c12 := float64(m.prs.Get(id1, id2))
	n := float64(m.n)
	f := m.cfg.Smoothing
	c12s := (1-f)*c12 + f*c1*c2/n
	if c12s <= 0 {
		return -1, true
	}
	p12 := c12s / n
	pmi := math.Log(p12 / ((c1 / n) * (c2 / n)))
	denom := -math.Log(p12)
	if denom <= 0 {
		return 1, true
	}
	v := pmi / denom
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	return v, true
}

// DetectColumn flags supported values that are value-level incompatible
// with the column's other supported values. Partner is the supported value
// a finding conflicts with most; Confidence derives from the NPMI margin
// below the threshold. Findings are ranked by
// descending confidence; columns with fewer than three supported distinct
// values yield nothing.
func (m *Model) DetectColumn(values []string) []core.Finding {
	type dv struct {
		value        string
		count, first int
	}
	var distinct []dv
	index := map[string]int{}
	for i, v := range values {
		if j, ok := index[v]; ok {
			distinct[j].count++
			continue
		}
		if !m.Supported(v) {
			continue
		}
		index[v] = len(distinct)
		distinct = append(distinct, dv{v, 1, i})
	}
	if len(distinct) < 3 {
		return nil
	}
	n := len(distinct)
	confSum := make([]float64, n)
	weight := make([]float64, n)
	bestConf := make([]float64, n)
	bestPartner := make([]int, n)
	for i := range bestPartner {
		bestPartner[i] = -1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s, ok := m.NPMI(distinct[i].value, distinct[j].value)
			if !ok {
				continue
			}
			weight[i] += float64(distinct[j].count)
			weight[j] += float64(distinct[i].count)
			if s > m.cfg.Threshold {
				continue
			}
			// Confidence from the margin below the threshold.
			conf := (m.cfg.Threshold - s) / (m.cfg.Threshold + 1)
			if conf > 1 {
				conf = 1
			}
			confSum[i] += conf * float64(distinct[j].count)
			confSum[j] += conf * float64(distinct[i].count)
			if conf > bestConf[i] {
				bestConf[i], bestPartner[i] = conf, j
			}
			if conf > bestConf[j] {
				bestConf[j], bestPartner[j] = conf, i
			}
		}
	}
	var out []core.Finding
	for i := 0; i < n; i++ {
		if bestPartner[i] < 0 || weight[i] == 0 {
			continue
		}
		out = append(out, core.Finding{
			Value:      distinct[i].value,
			Index:      distinct[i].first,
			Partner:    distinct[bestPartner[i]].value,
			Confidence: confSum[i] / weight[i],
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}
