// Package baselines implements the ten single-column error detection
// baselines that the Auto-Detect paper compares against (Section 4.2):
// fixed-regex type detection (F-Regex), Potter's Wheel MDL pattern
// inference (PWheel), dBoost tuple expansion, the Linear deviation
// detector of Arning et al. and its pattern variant (LinearP), the
// compression-based dissimilarity measure (CDM), entropy local search
// (LSA), support vector data description (SVDD), distance-based outliers
// (DBOD), the local outlier factor (LOF), and the Union ensemble.
//
// Every method implements Detector: given a column it returns per-value
// error predictions with confidences in [0,1], ranked descending, so the
// evaluation harness can pool predictions across columns for precision@k.
package baselines

import (
	"sort"

	"repro/internal/core"
)

// Prediction is one suspected error in a column.
type Prediction struct {
	// Index is the row of the suspected value's first occurrence.
	Index int
	// Value is the suspected erroneous value.
	Value string
	// Confidence in [0,1] ranks predictions across columns.
	Confidence float64
}

// Detector is a single-column error detection method.
type Detector interface {
	// Name returns the method's display name used in the paper's figures.
	Name() string
	// Detect returns suspected errors ranked by descending confidence.
	// Clean columns should return nothing or only low-confidence entries.
	Detect(values []string) []Prediction
}

// distinct collapses a column to its distinct values with counts and first
// occurrence, preserving first-seen order. Empty cells are missing data,
// not values, and are skipped.
func distinct(values []string) []core.Distinct {
	return core.NonEmpty(core.Tabulate(values))
}

// rank sorts predictions by descending confidence (stable) and drops
// non-positive ones.
func rank(ps []Prediction) []Prediction {
	out := ps[:0]
	for _, p := range ps {
		if p.Confidence > 0 {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Confidence > out[j].Confidence })
	return out
}

// clamp01 clips x into [0,1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
