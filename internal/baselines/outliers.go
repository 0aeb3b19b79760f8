package baselines

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/textdist"
)

// pairwiseDistances computes the pattern-alignment distance matrix over the
// distinct values.
func pairwiseDistances(dvs []core.Distinct) [][]float64 {
	toks := make([][]textdist.Symbol, len(dvs))
	for i, dv := range dvs {
		toks[i] = textdist.Tokenize(dv.Value)
	}
	d := make([][]float64, len(dvs))
	for i := range d {
		d[i] = make([]float64, len(dvs))
	}
	for i := 0; i < len(dvs); i++ {
		for j := i + 1; j < len(dvs); j++ {
			n := len(toks[i])
			if len(toks[j]) > n {
				n = len(toks[j])
			}
			dist := 0.0
			if n > 0 {
				dist = textdist.SymbolDistance(toks[i], toks[j]) / float64(n)
			}
			d[i][j] = dist
			d[j][i] = dist
		}
	}
	return d
}

// SVDD implements the support vector data description baseline (Tax &
// Duin): describe the column by a ball around a center; values outside the
// ball are outliers ranked by their distance beyond the radius. We use the
// count-weighted medoid as center and the distance quantile covering the
// bulk of the data as radius, with the alignment-style pattern distance.
type SVDD struct {
	// RadiusQuantile is the count-weighted quantile of center distances
	// used as the ball radius (default 0.8).
	RadiusQuantile float64
}

// Name implements Detector.
func (*SVDD) Name() string { return "SVDD" }

// Detect implements Detector.
func (s *SVDD) Detect(values []string) []Prediction {
	q := s.RadiusQuantile
	if q == 0 {
		q = 0.8
	}
	dvs := distinct(values)
	if len(dvs) < 3 {
		return nil
	}
	d := pairwiseDistances(dvs)

	// Count-weighted medoid: minimizes total distance to all rows.
	center := 0
	best := math.Inf(1)
	for i := range dvs {
		sum := 0.0
		for j, dv := range dvs {
			sum += d[i][j] * float64(dv.Count)
		}
		if sum < best {
			best = sum
			center = i
		}
	}
	// Radius: the q-quantile of (count-weighted) center distances.
	type cd struct {
		dist  float64
		count int
	}
	cds := make([]cd, len(dvs))
	total := 0
	for i, dv := range dvs {
		cds[i] = cd{d[center][i], dv.Count}
		total += dv.Count
	}
	sort.Slice(cds, func(i, j int) bool { return cds[i].dist < cds[j].dist })
	radius := 0.0
	cum := 0
	for _, c := range cds {
		cum += c.count
		radius = c.dist
		if float64(cum) >= q*float64(total) {
			break
		}
	}

	var out []Prediction
	for i, dv := range dvs {
		if excess := d[center][i] - radius; excess > 1e-9 {
			out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: clamp01(excess)})
		}
	}
	return rank(out)
}

// DBOD implements distance-based outlier detection (Knorr & Ng): a value
// is an outlier if the distance to its nearest neighbor exceeds a
// threshold D; outliers are ranked by that distance.
type DBOD struct {
	// D is the nearest-neighbor distance threshold (default 0.3).
	D float64
}

// Name implements Detector.
func (*DBOD) Name() string { return "DBOD" }

// Detect implements Detector.
func (db *DBOD) Detect(values []string) []Prediction {
	threshold := db.D
	if threshold == 0 {
		threshold = 0.3
	}
	dvs := distinct(values)
	if len(dvs) < 3 {
		return nil
	}
	d := pairwiseDistances(dvs)
	var out []Prediction
	for i, dv := range dvs {
		nn := math.Inf(1)
		for j := range dvs {
			if j != i && d[i][j] < nn {
				nn = d[i][j]
			}
		}
		if nn > threshold {
			out = append(out, Prediction{Index: dv.First, Value: dv.Value, Confidence: clamp01(nn)})
		}
	}
	return rank(out)
}

// LOF implements the local outlier factor (Breunig et al., SIGMOD 2000)
// over the pattern distance space, with k weighted by value counts.
type LOF struct {
	// K is the neighborhood size (default 3).
	K int
	// Threshold is the minimum LOF to report (default 1.5).
	Threshold float64
}

// Name implements Detector.
func (*LOF) Name() string { return "LOF" }

// Detect implements Detector.
func (l *LOF) Detect(values []string) []Prediction {
	k := l.K
	if k == 0 {
		k = 3
	}
	thresh := l.Threshold
	if thresh == 0 {
		thresh = 1.5
	}
	dvs := distinct(values)
	if len(dvs) < k+2 {
		return nil
	}
	d := pairwiseDistances(dvs)
	n := len(dvs)
	const eps = 1e-6 // identical patterns have distance 0; keep lrd finite

	// k-distance and neighborhoods.
	kdist := make([]float64, n)
	neigh := make([][]int, n)
	for i := 0; i < n; i++ {
		idx := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return d[i][idx[a]] < d[i][idx[b]] })
		kk := k
		if kk > len(idx) {
			kk = len(idx)
		}
		kdist[i] = d[i][idx[kk-1]]
		// Include all ties at the k-distance.
		for kk < len(idx) && d[i][idx[kk]] == kdist[i] {
			kk++
		}
		neigh[i] = idx[:kk]
	}
	// Local reachability density.
	lrd := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, j := range neigh[i] {
			reach := d[i][j]
			if kdist[j] > reach {
				reach = kdist[j]
			}
			sum += reach
		}
		lrd[i] = float64(len(neigh[i])) / (sum + eps)
	}
	var out []Prediction
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, j := range neigh[i] {
			sum += lrd[j]
		}
		lof := sum / (float64(len(neigh[i])) * lrd[i])
		if lof > thresh {
			// Squash LOF ∈ (thresh, ∞) into (0, 1).
			out = append(out, Prediction{
				Index: dvs[i].First, Value: dvs[i].Value,
				Confidence: clamp01((lof - 1) / (lof + 1)),
			})
		}
	}
	return rank(out)
}
