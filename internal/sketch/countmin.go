// Package sketch implements the count-min (CM) sketch of Cormode and
// Muthukrishnan, used by Auto-Detect (Section 3.4) to compress per-language
// pattern co-occurrence dictionaries by orders of magnitude while
// guaranteeing that estimates never under-count and over-count by at most
// εN with probability 1−δ.
package sketch

import (
	"errors"
	"math"
	"sort"
)

// CountMin is a count-min sketch over uint64 keys. The zero value is not
// usable; construct with New.
//
// Estimates satisfy v̂(k) ≥ v(k), and v̂(k) ≤ v(k) + εN with probability at
// least 1−δ at width ⌈e/ε⌉ and depth ⌈ln(1/δ)⌉, where N is the sum of all
// inserted values.
type CountMin struct {
	width int
	depth int
	rows  [][]uint32
	total uint64
	seeds []uint64
}

// New returns a sketch with the given width (columns) and depth (hash
// rows).
func New(width, depth int) (*CountMin, error) {
	if width < 1 || depth < 1 {
		return nil, errors.New("sketch: width and depth must be positive")
	}
	cm := &CountMin{
		width: width,
		depth: depth,
		rows:  make([][]uint32, depth),
		seeds: make([]uint64, depth),
	}
	// Deterministic, pairwise-distinct odd seeds for the Kirsch–Mitzenmacher
	// double-hashing scheme.
	s := uint64(0x9e3779b97f4a7c15)
	for i := range cm.seeds {
		s = splitmix64(s)
		cm.seeds[i] = s | 1
		cm.rows[i] = make([]uint32, width)
	}
	return cm, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// index returns the bucket for key in hash row i.
func (cm *CountMin) index(key uint64, i int) int {
	h := splitmix64(key ^ cm.seeds[i])
	return int(h % uint64(cm.width))
}

// Add increments key's count by n in every hash row.
func (cm *CountMin) Add(key uint64, n uint32) {
	cm.total += uint64(n)
	for i := 0; i < cm.depth; i++ {
		cm.rows[i][cm.index(key, i)] += n
	}
}

// Estimate returns the estimated count for key: the minimum over hash rows.
// The estimate never under-counts.
//
// Estimates feed the package probe counters (see HotPath): total
// estimates, plus a collision tick when the rows disagree — the cheap
// in-band signal that the sketch is carrying collision noise for this
// key. A bare Estimate costs only tens of nanoseconds, so even one
// uncontended atomic add per call is measurable; instead calls are
// sampled 1-in-hotSample on the key's low bits (keys are hashes, so the
// bits are uniform) and each sampled call adds hotSample, keeping the
// counters unbiased while the amortized cost rounds to zero.
func (cm *CountMin) Estimate(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	max := uint64(0)
	for i := 0; i < cm.depth; i++ {
		c := uint64(cm.rows[i][cm.index(key, i)])
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if key&(hotSample-1) == 0 {
		hotEstimates.Add(uintptr(key>>hotSampleBits), hotSample)
		if max != min {
			hotCollisions.Add(uintptr(key>>hotSampleBits), hotSample)
		}
	}
	return min
}

// EstimateCorrected returns a collision-debiased estimate (count-mean-min,
// Deng & Rafiei): each row's counter is reduced by the expected collision
// noise (total − counter)/(width − 1) and the median of the corrected rows
// is taken, clamped into [0, Estimate(key)]. Unlike Estimate it can
// under-count, but keys that were never inserted estimate near zero even
// in heavily loaded sketches — which is what NPMI computations over sparse
// co-occurrence counts need.
func (cm *CountMin) EstimateCorrected(key uint64) uint64 {
	upper := cm.Estimate(key)
	if upper == 0 || cm.width <= 1 {
		return upper
	}
	corrected := make([]float64, cm.depth)
	for i := 0; i < cm.depth; i++ {
		c := float64(cm.rows[i][cm.index(key, i)])
		noise := (float64(cm.total) - c) / float64(cm.width-1)
		corrected[i] = c - noise
	}
	sort.Float64s(corrected)
	var med float64
	if cm.depth%2 == 1 {
		med = corrected[cm.depth/2]
	} else {
		med = (corrected[cm.depth/2-1] + corrected[cm.depth/2]) / 2
	}
	if med < 0 {
		return 0
	}
	if v := uint64(med + 0.5); v < upper {
		return v
	}
	return upper
}

// Total returns the sum of all added values (N in the ε-bound).
func (cm *CountMin) Total() uint64 { return cm.total }

// Bytes returns the in-memory footprint of the counter array in bytes.
func (cm *CountMin) Bytes() int { return cm.width * cm.depth * 4 }
