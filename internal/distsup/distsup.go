// Package distsup implements the distant-supervision training data
// generation of Auto-Detect (Section 3.1, Appendix F). Instead of human
// labels, it derives compatible value pairs T+ from corpus columns whose
// values are statistically verified compatible under the crude
// generalization G(), and incompatible pairs T− by mixing a value from one
// verified-compatible column into another, pruning mixes that are
// accidentally compatible.
package distsup

import (
	"errors"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Example is one labeled training pair.
type Example struct {
	// U and V are the raw values of the pair.
	U, V string
	// URuns and VRuns are the category-run encodings of U and V,
	// precomputed so calibration can generalize them under many languages
	// cheaply.
	URuns, VRuns pattern.Runs
	// Incompatible is true for T− examples.
	Incompatible bool
}

// Config parameterizes training-data generation.
type Config struct {
	// PositivePairs and NegativePairs are the target sizes of T+ and T−.
	PositivePairs, NegativePairs int
	// Seed drives all sampling.
	Seed int64
}

// The paper's distant-supervision constants (Appendix F).
const (
	// compatThreshold is the minimum crude-NPMI between all value pairs of
	// a column for the column to join the verified-compatible set C+.
	compatThreshold = 0
	// pruneThreshold drops candidate negatives (u, v) whose crude-NPMI is
	// at or above it, since such mixes may be compatible by coincidence.
	pruneThreshold = -0.3
	// pairsPerColumn bounds how many pairs one column contributes.
	pairsPerColumn = 8
	// maxDistinct skips columns with more distinct values than this when
	// verifying compatibility (O(k²) check).
	maxDistinct = 40
)

// DefaultConfig returns the paper's settings at a laptop-friendly scale.
func DefaultConfig() Config {
	return Config{
		PositivePairs: 50000,
		NegativePairs: 50000,
		Seed:          1,
	}
}

// Data is the generated training set plus provenance counters.
type Data struct {
	// Examples is T = T+ ∪ T−, shuffled.
	Examples []Example
	// CompatColumns is |C+|, the number of verified-compatible columns.
	CompatColumns int
	// PrunedNegatives counts candidate T− mixes dropped by the −0.3 rule.
	PrunedNegatives int
}

// Positives and Negatives return |T+| and |T−|.
func (d *Data) Positives() int {
	n := 0
	for _, e := range d.Examples {
		if !e.Incompatible {
			n++
		}
	}
	return n
}

// Negatives returns the number of incompatible examples.
func (d *Data) Negatives() int { return len(d.Examples) - d.Positives() }

// Generate builds T from the corpus. The crude statistics used for the
// compatibility checks are computed internally in one pass.
func Generate(c *corpus.Corpus, cfg Config) (*Data, error) {
	if c == nil || len(c.Columns) < 2 {
		return nil, errors.New("distsup: need a corpus with at least two columns")
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Pass 1: crude co-occurrence statistics over the whole corpus.
	crude, cache := CrudeCount(c)

	// Pass 2: find C+, the statistically-compatible columns.
	var compat []int
	for i := range cache {
		vs := cache[i]
		if len(vs.Values) < 2 || len(vs.Values) > maxDistinct {
			continue
		}
		if Compatible(crude, vs.Patterns) {
			compat = append(compat, i)
		}
	}
	if len(compat) < 2 {
		return nil, errors.New("distsup: corpus yields fewer than two compatible columns")
	}

	d := &Data{CompatColumns: len(compat)}

	// T+: pairs sampled within compatible columns.
	for len(d.Examples) < cfg.PositivePairs {
		cc := cache[compat[r.Intn(len(compat))]]
		for p := 0; p < pairsPerColumn && len(d.Examples) < cfg.PositivePairs; p++ {
			i, j := r.Intn(len(cc.Values)), r.Intn(len(cc.Values))
			if i == j {
				continue
			}
			d.Examples = append(d.Examples, Example{
				U: cc.Values[i], V: cc.Values[j],
				URuns: pattern.Encode(cc.Values[i]), VRuns: pattern.Encode(cc.Values[j]),
			})
		}
	}

	// T−: mix a value u from one compatible column into another compatible
	// column C2, dropping mixes where u looks compatible with any value of
	// C2 under the crude statistics (Appendix F's −0.3 pruning).
	negatives := 0
	attempts := 0
	maxAttempts := cfg.NegativePairs * 50
	for negatives < cfg.NegativePairs && attempts < maxAttempts {
		attempts++
		c1 := cache[compat[r.Intn(len(compat))]]
		c2 := cache[compat[r.Intn(len(compat))]]
		ui := r.Intn(len(c1.Values))
		u, up := c1.Values[ui], c1.Patterns[ui]
		if TooSimilar(crude, up, c2.Patterns, pruneThreshold) {
			d.PrunedNegatives++
			continue
		}
		uRuns := pattern.Encode(u)
		for p := 0; p < pairsPerColumn && negatives < cfg.NegativePairs; p++ {
			v := c2.Values[r.Intn(len(c2.Values))]
			d.Examples = append(d.Examples, Example{
				U: u, V: v,
				URuns: uRuns, VRuns: pattern.Encode(v),
				Incompatible: true,
			})
			negatives++
		}
	}
	if negatives == 0 {
		return nil, errors.New("distsup: could not generate any incompatible pairs")
	}

	r.Shuffle(len(d.Examples), func(i, j int) {
		d.Examples[i], d.Examples[j] = d.Examples[j], d.Examples[i]
	})
	return d, nil
}

// Column is one corpus column's distinct values and their crude patterns.
type Column struct {
	Values, Patterns []string
}

// CrudeCount counts the corpus under the crude language, unsmoothed: the
// Appendix F thresholds (0 for C+ membership, −0.3 for negative pruning)
// are calibrated against raw NPMI, where a never-co-occurring pair scores
// exactly −1. It returns the statistics and every column's distinct
// values with their crude patterns.
func CrudeCount(c *corpus.Corpus) (*stats.LanguageStats, []Column) {
	g := pattern.Crude()
	crude := stats.NewLanguageStats(g, 0)
	cols := make([]Column, len(c.Columns))
	for i, col := range c.Columns {
		vs := col.DistinctValues()
		ps := make([]string, len(vs))
		for j, v := range vs {
			ps[j] = g.Generalize(v)
		}
		cols[i] = Column{Values: vs, Patterns: ps}
		crude.AddColumn(vs)
	}
	return crude, cols
}

// Compatible reports whether every pattern pair of a column has crude
// NPMI above compatThreshold: the column's membership of C+.
func Compatible(crude *stats.LanguageStats, patterns []string) bool {
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			if patterns[i] == patterns[j] {
				continue
			}
			if crude.NPMI(patterns[i], patterns[j]) <= compatThreshold {
				return false
			}
		}
	}
	return true
}

// TooSimilar reports whether u's crude pattern is compatible (NPMI at or
// above the prune threshold) with any pattern of the target column.
func TooSimilar(crude *stats.LanguageStats, up string, patterns []string, prune float64) bool {
	for _, p := range patterns {
		if up == p {
			return true
		}
		if crude.NPMI(up, p) >= prune {
			return true
		}
	}
	return false
}
