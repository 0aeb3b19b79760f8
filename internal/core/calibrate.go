package core

import (
	"cmp"
	"errors"
	"slices"
	"sort"

	"repro/internal/distsup"
	"repro/internal/stats"
)

// Calibration is the trained state of one generalization language: its
// corpus statistics, the NPMI scores it assigns to the distant-supervision
// training set, the static threshold θk meeting the target precision
// (Equation 8), and the set H−k of incompatible training examples it covers
// at that threshold.
type Calibration struct {
	// Stats are the language's corpus statistics.
	Stats *stats.LanguageStats

	// Theta is the static threshold θk: pairs scoring ≤ Theta are predicted
	// incompatible. A value below −1 means the language cannot reach the
	// target precision on any prefix and never fires.
	Theta float64

	// TargetPrecision is the precision requirement P used to derive Theta.
	TargetPrecision float64

	// SizeOverride, when positive, replaces the statistics footprint
	// reported by Bytes. Used by tests and what-if ablations.
	SizeOverride int

	// scores are the training scores sorted ascending, with prefixNeg[i]
	// counting incompatible examples among scores[0..i]. Together they form
	// the empirical precision curve Pk(s).
	scores    []float64
	prefixNeg []int

	// coverage marks which T− examples (indexed in training order) score
	// ≤ Theta: the H−k set of the selection objective.
	coverage *Bitset
	// posCovered counts T+ examples scoring ≤ Theta (false positives of
	// the language at its threshold).
	posCovered int
}

// NoFireTheta is the sentinel threshold of a language that never fires.
const NoFireTheta = -2

// Calibrate scores every training example under the language, derives the
// largest threshold whose every prefix meets the target precision
// (Equation 8), and records coverage. The data must contain at least one
// incompatible example.
func Calibrate(ls *stats.LanguageStats, data *distsup.Data, targetPrecision float64) (*Calibration, error) {
	if len(data.Examples) == 0 {
		return nil, errors.New("core: empty training data")
	}
	if targetPrecision <= 0 || targetPrecision > 1 {
		return nil, errors.New("core: target precision must be in (0,1]")
	}
	scores := make([]float64, len(data.Examples))
	negs := make([]bool, len(data.Examples))
	for i, e := range data.Examples {
		// Leave-one-out: the pair's source columns are inside the corpus
		// statistics; discount them so sparse languages cannot separate
		// T+ from T− via their own contribution.
		scores[i] = ls.NPMIRunsLOO(e.URuns, e.VRuns, !e.Incompatible)
		negs[i] = e.Incompatible
	}
	c, err := calibrateScores(scores, negs, targetPrecision)
	if err != nil {
		return nil, err
	}
	c.Stats = ls
	return c, nil
}

// calibrateScores derives the Equation 8 threshold, the empirical
// precision curve and the H−k coverage set from raw per-example scores.
// negs[i] marks incompatible (T−) examples; the i-th negative (in input
// order) occupies bit i of the coverage set.
func calibrateScores(scores []float64, negs []bool, targetPrecision float64) (*Calibration, error) {
	type scored struct {
		s      float64
		neg    bool
		negIdx int
	}
	rows := make([]scored, len(scores))
	negTotal := 0
	for i, s := range scores {
		rows[i] = scored{s: s, neg: negs[i], negIdx: -1}
		if negs[i] {
			rows[i].negIdx = negTotal
			negTotal++
		}
	}
	if negTotal == 0 {
		return nil, errors.New("core: training data has no incompatible examples")
	}
	slices.SortStableFunc(rows, func(a, b scored) int { return cmp.Compare(a.s, b.s) })

	c := &Calibration{
		TargetPrecision: targetPrecision,
		Theta:           NoFireTheta,
		scores:          make([]float64, len(rows)),
		prefixNeg:       make([]int, len(rows)),
		coverage:        NewBitset(negTotal),
	}
	neg := 0
	for i, r := range rows {
		if r.neg {
			neg++
		}
		c.scores[i] = r.s
		c.prefixNeg[i] = neg
	}

	// Equation 8 as instantiated by Example 4 / Table 2:
	// θk = max{ s < 0 : precision(s) ≥ P }. Candidate thresholds are
	// restricted to negative NPMI scores — incompatibility means negative
	// correlation (Section 2.1), so a language must never fire on
	// non-negatively correlated pairs regardless of precision. This is the
	// unique reading under which all three thresholds of the paper's
	// worked example (−0.5, −0.6, −0.5) come out.
	for i := 0; i < len(rows); {
		j := i
		for j+1 < len(rows) && c.scores[j+1] == c.scores[i] {
			j++
		}
		if c.scores[i] >= 0 {
			break
		}
		if precision := float64(c.prefixNeg[j]) / float64(j+1); precision >= targetPrecision {
			c.Theta = c.scores[i]
		}
		i = j + 1
	}

	if c.Theta >= -1 {
		for _, r := range rows {
			if r.s > c.Theta {
				break
			}
			if r.neg {
				c.coverage.Set(r.negIdx)
			} else {
				c.posCovered++
			}
		}
	}
	return c, nil
}

// PrecisionAt returns the empirical precision Pk(s) of predicting
// incompatibility for every training pair scoring ≤ s: the confidence the
// detector assigns to a prediction with score s (Appendix B).
func (c *Calibration) PrecisionAt(s float64) float64 {
	// Largest index with scores[idx] ≤ s.
	idx := sort.Search(len(c.scores), func(i int) bool { return c.scores[i] > s }) - 1
	if idx < 0 {
		// More extreme than anything seen in training: at least as precise
		// as the smallest observed prefix.
		if len(c.prefixNeg) > 0 && c.prefixNeg[0] == 1 {
			return 1
		}
		return 0
	}
	return float64(c.prefixNeg[idx]) / float64(idx+1)
}

// Covers reports whether the language fires on score s (s ≤ θk).
func (c *Calibration) Covers(s float64) bool { return c.Theta >= -1 && s <= c.Theta }

// Coverage returns H−k as a bitset over T− indices. The caller must not
// modify it.
func (c *Calibration) Coverage() *Bitset { return c.coverage }

// CoverageCount returns |H−k|.
func (c *Calibration) CoverageCount() int { return c.coverage.Count() }

// FalsePositives returns |H+k|, the compatible training pairs the language
// flags at its threshold.
func (c *Calibration) FalsePositives() int { return c.posCovered }

// Bytes returns the memory footprint of the language's statistics — the
// size(L) of the selection problem.
func (c *Calibration) Bytes() int {
	if c.SizeOverride > 0 {
		return c.SizeOverride
	}
	if c.Stats == nil {
		return 0
	}
	return c.Stats.Bytes()
}

// TrainingPrecision returns the precision the language achieves at θk on
// the training set.
func (c *Calibration) TrainingPrecision() float64 {
	covered := c.coverage.Count() + c.posCovered
	if covered == 0 {
		return 1
	}
	return float64(c.coverage.Count()) / float64(covered)
}
