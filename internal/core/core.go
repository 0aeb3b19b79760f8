// Package core implements the Auto-Detect algorithm (Huang & He, SIGMOD
// 2018): distant-supervision calibration of generalization languages
// against a table corpus, precision-constrained threshold derivation
// (Equation 8), memory-budgeted greedy language selection (Algorithm 1),
// and the ensemble detector with max-confidence aggregation (Appendix B).
package core

import (
	"context"
	"fmt"

	"repro/internal/distsup"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// TrainConfig parameterizes end-to-end training.
type TrainConfig struct {
	// Languages are the candidate generalization languages; nil means the
	// full 144-language candidate space. internal/pipeline counts one
	// representative per partition class of them (pattern.Representatives).
	Languages []pattern.Language
	// TargetPrecision is the precision requirement P (paper default 0.95).
	TargetPrecision float64
	// MemoryBudget is the statistics budget M in bytes.
	MemoryBudget int
	// Smoothing is the Jelinek–Mercer factor f (paper default 0.1).
	Smoothing float64
	// DistSup configures training-pair generation; zero value uses
	// distsup.DefaultConfig.
	DistSup distsup.Config
	// SketchRatio, when in (0,1), compresses each selected language's
	// co-occurrence store to that fraction of its exact size using a
	// count-min sketch (Section 3.4). 0 or 1 keeps exact dictionaries.
	SketchRatio float64
}

// DefaultTrainConfig returns the paper's defaults at laptop scale. It is
// the one place they are written down: internal/pipeline fills zero
// fields of its Options.Train from it.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		TargetPrecision: 0.95,
		MemoryBudget:    64 << 20,
		Smoothing:       stats.DefaultSmoothing,
		DistSup:         distsup.DefaultConfig(),
	}
}

// TrainReport summarizes a training run.
type TrainReport struct {
	// CandidateLanguages is the size of the candidate space considered.
	CandidateLanguages int
	// CountedLanguages is how many candidates were counted and calibrated:
	// one per partition class (50 of the 144).
	CountedLanguages int
	// TrainingExamples is |T| = |T+| + |T−|.
	TrainingExamples int
	// CompatColumns is |C+|.
	CompatColumns int
	// Selected lists the chosen languages.
	Selected []pattern.Language
	// SelectedBytes is the statistics footprint of the selection.
	SelectedBytes int
	// Coverage is |∪ H−k| on the training negatives.
	Coverage int
	// UsedSingleton reports whether Algorithm 1 fell back to the best
	// single language.
	UsedSingleton bool
}

// Pipeline holds the reusable products of the expensive training stages —
// per-language corpus statistics and distant-supervision training data —
// so parameter sweeps (memory budgets, smoothing factors, sketch ratios,
// precision targets) can recalibrate and reselect without another corpus
// pass. internal/pipeline counts a corpus into one (Partial.Prepare).
type Pipeline struct {
	// Languages are the candidate languages, parallel to Stats.
	Languages []pattern.Language
	// Stats are the per-language corpus statistics.
	Stats []*stats.LanguageStats
	// Data is the distant-supervision training set.
	Data *distsup.Data
}

// Calibrate derives thresholds, precision curves and coverage for every
// candidate language at the given precision target, on up to workers
// goroutines (workers ≤ 0 means one per CPU). Each candidate lands at its
// language's index, so the result does not depend on workers.
func (p *Pipeline) Calibrate(ctx context.Context, targetPrecision float64, workers int) ([]*Calibration, error) {
	cands := make([]*Calibration, len(p.Stats))
	err := stats.ForEachLanguage(len(p.Stats), workers, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cal, err := Calibrate(p.Stats[i], p.Data, targetPrecision)
		if err != nil {
			return fmt.Errorf("core: calibrating %v: %w", p.Stats[i].Language(), err)
		}
		cands[i] = cal
		return nil
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, fmt.Errorf("core: interrupted during calibration: %w", ctxErr)
	}
	if err != nil {
		return nil, err
	}
	return cands, nil
}

// SetSmoothing changes the Jelinek–Mercer factor on every candidate's
// statistics (used by the Figure 17a smoothing sweep; recalibrate after).
func (p *Pipeline) SetSmoothing(f float64) {
	for _, ls := range p.Stats {
		ls.SetSmoothing(f)
	}
}

// BuildDetector selects languages under the memory budget from calibrated
// candidates, optionally compresses the selected statistics with a
// count-min sketch, and assembles the detector.
func BuildDetector(cands []*Calibration, memoryBudget int, sketchRatio float64) (*Detector, *TrainReport, error) {
	sel, err := SelectGreedy(cands, memoryBudget)
	if err != nil {
		return nil, nil, err
	}
	chosen := sel.Chosen
	if sketchRatio > 0 && sketchRatio < 1 {
		// Compress copies so the exact calibrations stay reusable.
		compressed := make([]*Calibration, len(chosen))
		for i, cal := range chosen {
			sk, err := cal.Stats.SketchCopy(sketchRatio, 4)
			if err != nil {
				return nil, nil, fmt.Errorf("core: compressing statistics: %w", err)
			}
			cc := *cal
			cc.Stats = sk
			compressed[i] = &cc
		}
		chosen = compressed
	}
	det, err := NewDetector(chosen)
	if err != nil {
		return nil, nil, err
	}
	report := &TrainReport{
		SelectedBytes: sel.Bytes,
		Coverage:      sel.Coverage,
		UsedSingleton: sel.UsedSingleton,
	}
	for _, cal := range chosen {
		report.Selected = append(report.Selected, cal.Stats.Language())
	}
	if sketchRatio > 0 && sketchRatio < 1 {
		report.SelectedBytes = det.Bytes()
	}
	return det, report, nil
}
