// Package eval implements the evaluation machinery of the Auto-Detect
// paper: the automatic test-case generation protocol of Section 4.4 (mix
// one verified-incompatible value into a verified-clean column, at
// dirty:clean ratios of 1:1, 1:5 and 1:10), pooled precision@k over ranked
// predictions, and the experiment runners behind every table and figure of
// the evaluation section.
package eval

import (
	"errors"
	"math/rand"
	"sort"

	"repro/internal/baselines"
	"repro/internal/corpus"
	"repro/internal/distsup"
)

// Case is one evaluation column.
type Case struct {
	// Values are the column cells.
	Values []string
	// DirtyValue is the planted incompatible value ("" for clean cases).
	DirtyValue string
	// DirtyIndex is the planted value's row (−1 for clean cases).
	DirtyIndex int
}

// Dirty reports whether the case contains a planted error.
func (c *Case) Dirty() bool { return c.DirtyIndex >= 0 }

// BuildAutoEval implements the Section 4.4 protocol against a test corpus:
// verified-compatible columns (under unsmoothed crude NPMI) become the
// clean pool; dirty cases are built by inserting a value u from one clean
// column into another clean column C2, requiring u to be crude-incompatible
// (NPMI < −0.3) with every value of C2. It returns nDirty dirty cases and
// nClean clean cases.
func BuildAutoEval(c *corpus.Corpus, nDirty, nClean int, seed int64) ([]Case, error) {
	if c == nil || len(c.Columns) < 4 {
		return nil, errors.New("eval: test corpus too small")
	}
	r := rand.New(rand.NewSource(seed))
	crude, cache := distsup.CrudeCount(c)
	var clean []int
	for i, cc := range cache {
		if len(cc.Values) >= 4 && len(cc.Values) <= 60 && distsup.Compatible(crude, cc.Patterns) {
			clean = append(clean, i)
		}
	}
	if len(clean) < 4 {
		return nil, errors.New("eval: too few verified-clean columns")
	}

	var cases []Case
	attempts := 0
	for len(cases) < nDirty && attempts < nDirty*200 {
		attempts++
		c1 := cache[clean[r.Intn(len(clean))]]
		c2 := cache[clean[r.Intn(len(clean))]]
		ui := r.Intn(len(c1.Values))
		if distsup.TooSimilar(crude, c1.Patterns[ui], c2.Patterns, -0.3) {
			continue
		}
		u := c1.Values[ui]
		values := make([]string, 0, len(c2.Values)+1)
		values = append(values, c2.Values...)
		pos := r.Intn(len(values) + 1)
		values = append(values, "")
		copy(values[pos+1:], values[pos:])
		values[pos] = u
		cases = append(cases, Case{Values: values, DirtyValue: u, DirtyIndex: pos})
	}
	if len(cases) == 0 {
		return nil, errors.New("eval: could not build any dirty cases")
	}
	for i := 0; i < nClean; i++ {
		cc := cache[clean[r.Intn(len(clean))]]
		values := make([]string, len(cc.Values))
		copy(values, cc.Values)
		cases = append(cases, Case{Values: values, DirtyIndex: -1})
	}
	r.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases, nil
}

// PooledPrediction is one ranked prediction across the whole test set.
type PooledPrediction struct {
	// Case indexes the originating case.
	Case int
	// Value is the predicted erroneous value.
	Value string
	// Confidence ranks the prediction.
	Confidence float64
	// Correct is true when the prediction hits the planted/labeled error.
	Correct bool
}

// Result is one method's pooled evaluation.
type Result struct {
	// Method is the detector's display name.
	Method string
	// PrecisionAt maps each requested k to precision@k.
	PrecisionAt map[int]float64
	// Predictions is the number of pooled predictions.
	Predictions int
	// Correct is the number of correct pooled predictions.
	Correct int
}

// EvaluateCases runs the detector over generated cases, pooling each
// case's single most confident prediction and computing precision@k for
// each requested k. A prediction on a clean case is a false positive; a
// prediction on a dirty case is correct iff it names the planted value.
func EvaluateCases(det baselines.Detector, cases []Case, ks []int) Result {
	var pool []PooledPrediction
	for ci := range cases {
		preds := det.Detect(cases[ci].Values)
		if len(preds) == 0 {
			continue
		}
		top := preds[0]
		pool = append(pool, PooledPrediction{
			Case:       ci,
			Value:      top.Value,
			Confidence: top.Confidence,
			Correct:    cases[ci].Dirty() && top.Value == cases[ci].DirtyValue,
		})
	}
	return summarize(det.Name(), pool, ks)
}

// EvaluateCorpus runs the detector over a labeled corpus (columns with
// non-nil Dirty), pooling each column's top prediction; a prediction is
// correct iff it names a labeled dirty cell.
func EvaluateCorpus(det baselines.Detector, cols []*corpus.Column, ks []int) Result {
	return scoreLabeled(det.Name(), cols, detectLabeled(det, cols), ks)
}

// detectLabeled runs det over the labeled columns of cols; preds[i] is
// column i's predictions, nil for an unlabeled column.
func detectLabeled(det baselines.Detector, cols []*corpus.Column) (preds [][]baselines.Prediction) {
	preds = make([][]baselines.Prediction, len(cols))
	for ci, col := range cols {
		if col.Dirty != nil {
			preds[ci] = det.Detect(col.Values)
		}
	}
	return preds
}

// scoreLabeled is EvaluateCorpus over saved predictions, preds[i] being
// column i's.
func scoreLabeled(name string, cols []*corpus.Column, preds [][]baselines.Prediction, ks []int) Result {
	var pool []PooledPrediction
	for ci, col := range cols {
		if col.Dirty == nil || len(preds[ci]) == 0 {
			continue
		}
		top := preds[ci][0]
		correct := false
		for _, di := range col.Dirty {
			if col.Values[di] == top.Value {
				correct = true
				break
			}
		}
		pool = append(pool, PooledPrediction{
			Case:       ci,
			Value:      top.Value,
			Confidence: top.Confidence,
			Correct:    correct,
		})
	}
	return summarize(name, pool, ks)
}

// summarize sorts the pool by confidence and computes precision@k.
func summarize(name string, pool []PooledPrediction, ks []int) Result {
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Confidence > pool[j].Confidence })
	res := Result{Method: name, PrecisionAt: make(map[int]float64, len(ks)), Predictions: len(pool)}
	for _, p := range pool {
		if p.Correct {
			res.Correct++
		}
	}
	for _, k := range ks {
		kk := k
		if kk > len(pool) {
			kk = len(pool)
		}
		if kk == 0 {
			res.PrecisionAt[k] = 0
			continue
		}
		correct := 0
		for _, p := range pool[:kk] {
			if p.Correct {
				correct++
			}
		}
		res.PrecisionAt[k] = float64(correct) / float64(kk)
	}
	return res
}
