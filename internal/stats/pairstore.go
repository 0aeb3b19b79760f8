// Package stats maintains per-language corpus statistics for Auto-Detect:
// pattern occurrence counts c(p), pattern co-occurrence counts c(p1,p2),
// and the (normalized) point-wise mutual information computation of
// Section 2.1 with the Jelinek–Mercer smoothing of Section 3.3. The
// co-occurrence dictionary can be backed either by an exact hash map or by
// a count-min sketch (Section 3.4) to trade memory for bounded
// over-estimation.
package stats

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/envelope"
	"repro/internal/sketch"
)

// PairKey packs an unordered pattern-ID pair into a single uint64 key with
// the smaller ID in the high bits, so (a,b) and (b,a) share a key.
func PairKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// PairStore is a dictionary from unordered pattern-ID pairs to
// co-occurrence counts.
type PairStore interface {
	// Add increments the count of the pair by n.
	Add(a, b uint32, n uint32)
	// Get returns the (possibly estimated) count of the pair.
	Get(a, b uint32) uint64
	// Bytes returns the approximate in-memory footprint of the store.
	Bytes() int
	// Entries returns the number of stored entries, or -1 if unknown
	// (sketch-backed stores do not track distinct keys).
	Entries() int
}

// MapPairStore is an exact PairStore backed by a hash map.
type MapPairStore struct {
	m map[uint64]uint32
}

// newMapPairStore returns an empty exact pair store.
func newMapPairStore() *MapPairStore {
	return &MapPairStore{m: make(map[uint64]uint32)}
}

// Add implements PairStore.
func (s *MapPairStore) Add(a, b uint32, n uint32) {
	s.m[PairKey(a, b)] += n
}

// Get implements PairStore.
func (s *MapPairStore) Get(a, b uint32) uint64 {
	return uint64(s.m[PairKey(a, b)])
}

// Bytes implements PairStore. Go map entries for (uint64 → uint32) cost
// roughly 20 bytes including bucket overhead.
func (s *MapPairStore) Bytes() int { return len(s.m) * 20 }

// Entries implements PairStore.
func (s *MapPairStore) Entries() int { return len(s.m) }

// binarySize is the length of the store's encoding: an entry count, then
// 12 bytes per entry.
func (s *MapPairStore) binarySize() int { return 8 + 12*len(s.m) }

// appendBinary appends the store's encoding to buf: the entry count, then
// each (u64 key, u32 count) in ascending key order. Entries are collected
// with their counts and sorted by key, so encoding needs no second lookup
// per key.
func (s *MapPairStore) appendBinary(buf []byte) []byte {
	type entry struct {
		key uint64
		n   uint32
	}
	entries := make([]entry, 0, len(s.m))
	for k, v := range s.m {
		entries = append(entries, entry{k, v})
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = le.AppendUint64(buf, e.key)
		buf = le.AppendUint32(buf, e.n)
	}
	return buf
}

// decodePairs reads what appendBinary wrote for statistics holding the
// given number of patterns. Every key must name two distinct known patterns
// (a < b < patterns) and keys must strictly ascend, as appendBinary writes
// them: a key past the pattern table would index out of range when the
// statistics are merged or canonicalized, and a repeated key would
// silently collapse in the map.
func decodePairs(d *envelope.Decoder, patterns int) (*MapPairStore, error) {
	n := d.Count(8 + 4)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("stats: pair store: %w", err)
	}
	m := make(map[uint64]uint32, n)
	var prev uint64
	for i := 0; i < n; i++ {
		k, v := d.U64(), d.U32()
		if a, b := k>>32, k&0xffffffff; a >= b || b >= uint64(patterns) || (i > 0 && k <= prev) {
			return nil, fmt.Errorf("stats: pair entry %d: key (%d,%d) breaks ascending order or a < b < %d", i, a, b, patterns)
		}
		m[k] = v
		prev = k
	}
	return &MapPairStore{m: m}, nil
}

// SketchPairStore is a PairStore backed by a count-min sketch. Counts are
// never under-estimated, and over-estimation is bounded by the sketch
// dimensions; on the power-law distributed co-occurrence counts observed in
// real table corpora the practical error is small (Section 3.4).
type SketchPairStore struct {
	cm *sketch.CountMin
}

// NewSketchPairStore returns a sketch-backed pair store with the given
// dimensions. Reads go through the count-mean-min correction, whose
// collision-noise model assumes additive rows — which is why the sketch
// has no conservative update: it would systematically under-count here,
// turning compatible pairs into false positives.
func NewSketchPairStore(width, depth int) (*SketchPairStore, error) {
	cm, err := sketch.New(width, depth)
	if err != nil {
		return nil, err
	}
	return &SketchPairStore{cm: cm}, nil
}

// CompressPairStore builds a sketch-backed store holding the contents of an
// exact store, dimensioned to use approximately ratio (0 < ratio ≤ 1) of
// the exact store's memory, with the given depth. This mirrors the paper's
// experiment of compressing co-occurrence data to 1%/10% of its original
// size (Figure 8a).
func CompressPairStore(exact *MapPairStore, ratio float64, depth int) (*SketchPairStore, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, errors.New("stats: ratio must be in (0,1]")
	}
	if depth < 1 {
		depth = 4
	}
	width := int(float64(exact.Bytes()) * ratio / float64(depth*4))
	if width < 16 {
		width = 16
	}
	s, err := NewSketchPairStore(width, depth)
	if err != nil {
		return nil, err
	}
	for k, v := range exact.m {
		s.cm.Add(k, v)
	}
	return s, nil
}

// Add implements PairStore.
func (s *SketchPairStore) Add(a, b uint32, n uint32) { s.cm.Add(PairKey(a, b), n) }

// Get implements PairStore.
func (s *SketchPairStore) Get(a, b uint32) uint64 { return s.cm.EstimateCorrected(PairKey(a, b)) }

// Bytes implements PairStore.
func (s *SketchPairStore) Bytes() int { return s.cm.Bytes() }

// Entries implements PairStore.
func (s *SketchPairStore) Entries() int { return -1 }
