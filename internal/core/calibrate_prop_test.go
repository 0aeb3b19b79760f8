package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestCalibrationInvariants: for random score/label assignments, the
// derived threshold and coverage must satisfy the Definition 5 contract.
func TestCalibrationInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%60) + 5
		target := 0.5 + float64(pRaw%50)/100 // P ∈ [0.5, 0.99]
		r := rand.New(rand.NewSource(seed))
		scores := make([]float64, n)
		negs := make([]bool, n)
		hasNeg := false
		for i := range scores {
			scores[i] = r.Float64()*2 - 1
			negs[i] = r.Intn(2) == 0
			hasNeg = hasNeg || negs[i]
		}
		if !hasNeg {
			negs[0] = true
		}
		cal, err := calibrateScores(scores, negs, target)
		if err != nil {
			return false
		}

		// Invariant 1: a firing threshold is strictly negative.
		if cal.Theta >= 0 && cal.Theta != NoFireTheta {
			return false
		}
		// Invariant 2: if the language fires, its training precision at θ
		// meets the target.
		if cal.Theta >= -1 {
			neg, tot := 0, 0
			for i, s := range scores {
				if s <= cal.Theta {
					tot++
					if negs[i] {
						neg++
					}
				}
			}
			if tot == 0 || float64(neg)/float64(tot) < target {
				return false
			}
			// Invariant 3: coverage counts exactly the negatives at or
			// below θ.
			if cal.CoverageCount() != neg {
				return false
			}
			if cal.FalsePositives() != tot-neg {
				return false
			}
		} else if cal.CoverageCount() != 0 {
			return false
		}
		// Invariant 4: the precision curve is a valid prefix ratio at every
		// training score.
		for _, s := range scores {
			p := cal.PrecisionAt(s)
			if p < 0 || p > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSelectionInvariants: greedy selection respects the budget and never
// reports more coverage than the union of its members.
func TestSelectionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nNeg := r.Intn(50) + 10
		nCands := r.Intn(8) + 2
		cands := make([]*Calibration, nCands)
		for i := range cands {
			scores := make([]float64, nNeg*2)
			negs := make([]bool, nNeg*2)
			for j := range scores {
				scores[j] = r.Float64()*2 - 1
				negs[j] = j < nNeg
			}
			cal, err := calibrateScores(scores, negs, 0.6)
			if err != nil {
				return false
			}
			cal.SizeOverride = r.Intn(1000) + 1
			cands[i] = cal
		}
		budget := r.Intn(3000) + 500
		sel, err := SelectGreedy(cands, budget)
		if err != nil {
			return true // nothing selectable is legal
		}
		if sel.Bytes > budget {
			return false
		}
		union := NewBitset(cands[0].Coverage().Len())
		total := 0
		for _, c := range sel.Chosen {
			union.Or(c.Coverage())
			total += c.Bytes()
		}
		return sel.Coverage == union.Count() && sel.Bytes == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// calibrateReference is Equation 8 over a sort.SliceStable ordering, the
// sort calibrateScores used before slices.SortStableFunc: the sorted
// scores, the prefix counts of negatives, θ, and the T− indices covered.
func calibrateReference(scores []float64, negs []bool, target float64) (sorted []float64, prefix []int, theta float64, covered []int, pos int) {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	negIdx := make([]int, len(scores))
	for i, n := 0, 0; i < len(scores); i++ {
		if negs[i] {
			negIdx[i] = n
			n++
		}
	}
	theta = NoFireTheta
	neg := 0
	for k, i := range idx {
		sorted = append(sorted, scores[i])
		if negs[i] {
			neg++
		}
		prefix = append(prefix, neg)
		// A tie group's threshold is judged at its last member.
		last := k+1 == len(idx) || scores[idx[k+1]] != scores[i]
		if last && scores[i] < 0 && float64(neg)/float64(k+1) >= target {
			theta = scores[i]
		}
	}
	for _, i := range idx {
		if theta < -1 || scores[i] > theta {
			break
		}
		if negs[i] {
			covered = append(covered, negIdx[i])
		} else {
			pos++
		}
	}
	return sorted, prefix, theta, covered, pos
}

// TestCalibrateScoresMatchesStableSortReference: on tie-heavy scores
// (mostly −1, 0 and 1, as sparse languages produce), θ, the precision
// curve and the coverage set equal the sort.SliceStable reference.
func TestCalibrateScoresMatchesStableSortReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ties := []float64{-1, -1, -1, 0, 0, 1, 1, -0.5, -0.25}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(400)
		scores := make([]float64, n)
		negs := make([]bool, n)
		for i := range scores {
			if r.Intn(4) == 0 {
				scores[i] = r.Float64()*2 - 1
			} else {
				scores[i] = ties[r.Intn(len(ties))]
			}
			negs[i] = r.Intn(3) > 0
		}
		negs[r.Intn(n)] = true
		target := []float64{0.5, 0.8, 0.95, 1}[trial%4]

		cal, err := calibrateScores(scores, negs, target)
		if err != nil {
			t.Fatal(err)
		}
		sorted, prefix, theta, covered, pos := calibrateReference(scores, negs, target)
		if cal.Theta != theta {
			t.Fatalf("trial %d: θ = %v, reference %v", trial, cal.Theta, theta)
		}
		if !slices.Equal(cal.scores, sorted) || !slices.Equal(cal.prefixNeg, prefix) {
			t.Fatalf("trial %d: precision curve differs from the reference", trial)
		}
		for _, s := range append(slices.Clone(ties), -2, 2) {
			k := sort.Search(len(sorted), func(i int) bool { return sorted[i] > s }) - 1
			if k >= 0 {
				if got, want := cal.PrecisionAt(s), float64(prefix[k])/float64(k+1); got != want {
					t.Fatalf("trial %d: P(%v) = %v, reference %v", trial, s, got, want)
				}
			}
		}
		if cal.CoverageCount() != len(covered) || cal.FalsePositives() != pos {
			t.Fatalf("trial %d: coverage %d and false positives %d, reference %d and %d",
				trial, cal.CoverageCount(), cal.FalsePositives(), len(covered), pos)
		}
		for _, i := range covered {
			if !cal.Coverage().Get(i) {
				t.Fatalf("trial %d: T− example %d not covered", trial, i)
			}
		}
	}
}
