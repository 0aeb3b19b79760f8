package baselines

import (
	"bytes"
	"compress/flate"
	"strings"

	"repro/internal/pattern"
)

// CDM implements the compression-based dissimilarity measure of Keogh,
// Lonardi & Ratanamahatana (KDD 2004): CDM(x, y) = C(xy) / (C(x) + C(y)),
// where C is the compressed size under an off-the-shelf compressor. Values
// are first generalized into class patterns (as the paper's adaptation
// describes); each value is scored by the CDM distance between its pattern
// and the concatenation of the other values' patterns.
type CDM struct{}

// Name implements Detector.
func (*CDM) Name() string { return "CDM" }

// compressedSize returns the flate-compressed byte size of s.
func compressedSize(s string) int {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		return len(s)
	}
	if _, err := w.Write([]byte(s)); err != nil {
		return len(s)
	}
	if err := w.Close(); err != nil {
		return len(s)
	}
	return buf.Len()
}

// Detect implements Detector.
func (*CDM) Detect(values []string) []Prediction {
	dvs := distinct(values)
	if len(dvs) < 3 {
		return nil
	}
	g := pattern.Crude()
	pats := make([]string, len(dvs))
	for i, dv := range dvs {
		pats[i] = g.Generalize(dv.Value)
	}
	var out []Prediction
	for i, dv := range dvs {
		var rest strings.Builder
		for j, p := range pats {
			if j == i {
				continue
			}
			rest.WriteString(p)
			rest.WriteByte('\n')
		}
		// Conditional compression cost C(x·y) − C(x): how many new bytes
		// the value's pattern adds given the rest of the column. A pattern
		// already present compresses to almost nothing; a structurally
		// novel one pays for itself. (The raw CDM ratio C(xy)/(C(x)+C(y))
		// is dominated by flate's fixed per-stream overhead at these tiny
		// sizes, so the conditional form is used for ranking.)
		cx := compressedSize(rest.String())
		cxy := compressedSize(rest.String() + pats[i] + "\n")
		added := cxy - cx
		if added <= 0 {
			continue
		}
		score := float64(added) / float64(len(pats[i])+4)
		rarity := 1 - float64(dv.Count)/float64(len(values))
		out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: clamp01(score * rarity)})
	}
	return rank(out)
}
