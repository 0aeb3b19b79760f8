package baselines

import "repro/internal/pattern"

// Linear implements the linear-complexity deviation detection framework of
// Arning, Agrawal & Raghavan (KDD 1996): scan the values while maintaining
// a regex-like description of everything seen so far (here: the per-
// position union of observed characters plus the observed length range),
// and score each value by how much adding it broadens the description —
// its dissimilarity. As the paper observes, the character-level
// generalization is too coarse-grained, so Linear performs poorly; the
// LinearP variant below first generalizes values into class patterns.
type Linear struct{}

// Name implements Detector.
func (*Linear) Name() string { return "Linear" }

// Detect implements Detector.
func (*Linear) Detect(values []string) []Prediction {
	return linearDetect(values, func(v string) string { return v })
}

// LinearP is Linear applied to generalization-tree patterns (digits → \D,
// letters → \L, symbols verbatim), which substantially improves it.
type LinearP struct{}

// Name implements Detector.
func (*LinearP) Name() string { return "LinearP" }

// Detect implements Detector.
func (*LinearP) Detect(values []string) []Prediction {
	g := pattern.Crude()
	return linearDetect(values, g.Generalize)
}

// linearDetect scores each distinct value by its leave-one-out broadening
// of the column description: positions whose character set it alone
// contributes, and a length outside the range of the rest.
func linearDetect(values []string, xform func(string) string) []Prediction {
	dvs := distinct(values)
	if len(dvs) < 3 {
		return nil
	}
	keys := make([]string, len(dvs))
	maxLen := 0
	for i, dv := range dvs {
		keys[i] = xform(dv.Value)
		if len(keys[i]) > maxLen {
			maxLen = len(keys[i])
		}
	}
	// charSupport[p][c] = total count of values whose position p holds
	// byte c; lenSupport[l] = total count of values with length l.
	charSupport := make([]map[byte]int, maxLen)
	for p := range charSupport {
		charSupport[p] = map[byte]int{}
	}
	lenSupport := map[int]int{}
	for i, dv := range dvs {
		k := keys[i]
		lenSupport[len(k)] += dv.Count
		for p := 0; p < len(k); p++ {
			charSupport[p][k[p]] += dv.Count
		}
	}

	total := 0
	for _, dv := range dvs {
		total += dv.Count
	}
	var out []Prediction
	for i, dv := range dvs {
		k := keys[i]
		// Dissimilarity: description breadth attributable to this value
		// alone, normalized by its length.
		broaden := 0
		for p := 0; p < len(k); p++ {
			if charSupport[p][k[p]] == dv.Count {
				broaden++
			}
		}
		if lenSupport[len(k)] == dv.Count {
			broaden += 2
		}
		if broaden == 0 {
			continue
		}
		norm := float64(len(k) + 2)
		score := float64(broaden) / norm
		// Rare values that broaden the description a lot are suspects.
		rarity := 1 - float64(dv.Count)/float64(total)
		out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: clamp01(score * rarity)})
	}
	return rank(out)
}
