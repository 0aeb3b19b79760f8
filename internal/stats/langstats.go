package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/envelope"
	"repro/internal/pattern"
)

// LanguageStats holds the corpus statistics of one generalization language:
// how many columns each pattern occurs in, and how many columns each pair
// of patterns co-occurs in. NPMI queries (Section 2.1) are answered from
// these counts with Jelinek–Mercer smoothing (Section 3.3).
type LanguageStats struct {
	lang pattern.Language
	n    uint64 // number of columns observed
	// byString maps each pattern (Language.AppendRuns) to its ID, which is
	// its index in patterns and occ.
	byString  map[string]uint32
	patterns  []string
	occ       []uint32
	pairs     PairStore
	smoothing float64

	// maxPatternsPerColumn caps the number of distinct patterns of a single
	// column that contribute pairs, bounding the O(k²) pair update for
	// pathologically diverse columns. 0 means no cap.
	maxPatternsPerColumn int
}

// DefaultSmoothing is the paper's default Jelinek–Mercer factor f = 0.1.
const DefaultSmoothing = 0.1

// NewLanguageStats returns empty statistics for lang with an exact pair
// store and the given smoothing factor f ∈ [0,1].
func NewLanguageStats(lang pattern.Language, smoothing float64) *LanguageStats {
	return &LanguageStats{
		lang:                 lang,
		byString:             make(map[string]uint32),
		pairs:                newMapPairStore(),
		smoothing:            smoothing,
		maxPatternsPerColumn: 64,
	}
}

// Language returns the generalization language these statistics belong to.
func (ls *LanguageStats) Language() pattern.Language { return ls.lang }

// Columns returns N, the number of columns observed.
func (ls *LanguageStats) Columns() uint64 { return ls.n }

// DistinctPatterns returns the number of distinct patterns observed.
func (ls *LanguageStats) DistinctPatterns() int { return len(ls.patterns) }

// SetSmoothing sets the Jelinek–Mercer factor f used by NPMI queries.
func (ls *LanguageStats) SetSmoothing(f float64) { ls.smoothing = f }

// Smoothing returns the current Jelinek–Mercer factor.
func (ls *LanguageStats) Smoothing() float64 { return ls.smoothing }

// patternBuf is the stack buffer a value's pattern is rendered into for a
// lookup; a longer pattern spills to the heap.
const patternBuf = 128

// internRuns returns the stable ID of the pattern of rs, allocating one
// (and the pattern string, once per distinct pattern) if new.
func (ls *LanguageStats) internRuns(rs pattern.Runs) uint32 {
	var buf [patternBuf]byte
	p := ls.lang.AppendRuns(buf[:0], rs)
	if id, ok := ls.byString[string(p)]; ok {
		return id
	}
	return ls.internPattern(string(p))
}

// internPattern is internRuns for an already-rendered pattern string; used
// when merging shards, whose patterns arrive rendered.
func (ls *LanguageStats) internPattern(p string) uint32 {
	if id, ok := ls.byString[p]; ok {
		return id
	}
	id := uint32(len(ls.patterns))
	ls.byString[p] = id
	ls.patterns = append(ls.patterns, p)
	ls.occ = append(ls.occ, 0)
	return id
}

// checkIDs verifies that the index holds exactly one entry per pattern: a
// pattern table from outside the program, such as a decoded model or
// shard, may repeat a pattern. It costs O(1) unless the check fails, when
// it finds the repeated pattern for the error.
func (ls *LanguageStats) checkIDs() error {
	if len(ls.byString) == len(ls.patterns) {
		return nil
	}
	for id, p := range ls.patterns {
		if ls.byString[p] != uint32(id) {
			return fmt.Errorf("stats: language %v: duplicate pattern %q", ls.lang, p)
		}
	}
	return fmt.Errorf("stats: language %v: index holds %d entries for %d patterns", ls.lang, len(ls.byString), len(ls.patterns))
}

// satAdd32 adds saturating at the uint32 cap, so merging many shards of a
// web-scale corpus can never wrap a counter.
func satAdd32(a, b uint32) uint32 {
	if s := uint64(a) + uint64(b); s <= math.MaxUint32 {
		return uint32(s)
	}
	return math.MaxUint32
}

// Merge folds another shard's statistics for the same language into the
// receiver: column counts, occurrence counts and pair co-occurrence counts
// are added, with the other shard's pattern IDs remapped onto the
// receiver's interning. Counts after merging equal those of a single-shard
// build over the concatenated column streams, whatever the sharding.
// Both stores must be exact (merge before sketch compression); the other
// shard is not modified.
func (ls *LanguageStats) Merge(other *LanguageStats) error {
	if other == nil {
		return errors.New("stats: cannot merge nil statistics")
	}
	if ls.lang.ID != other.lang.ID {
		return errors.New("stats: cannot merge statistics of different languages")
	}
	exact, ok := ls.pairs.(*MapPairStore)
	if !ok {
		return errors.New("stats: merge target pair store is not exact")
	}
	otherExact, ok := other.pairs.(*MapPairStore)
	if !ok {
		return errors.New("stats: merge source pair store is not exact")
	}
	ls.n += other.n
	if len(ls.patterns) == 0 && len(exact.m) == 0 {
		// Merging into an empty store keeps the source's IDs: copy its
		// tables whole instead of re-interning entry by entry.
		ls.byString = maps.Clone(other.byString)
		ls.patterns = slices.Clone(other.patterns)
		ls.occ = slices.Clone(other.occ)
		exact.m = maps.Clone(otherExact.m)
		return ls.checkIDs()
	}
	idMap := make([]uint32, len(other.patterns))
	for i, p := range other.patterns {
		id := ls.internPattern(p)
		ls.occ[id] = satAdd32(ls.occ[id], other.occ[i])
		idMap[i] = id
	}
	for k, v := range otherExact.m {
		a := idMap[uint32(k>>32)]
		b := idMap[uint32(k&0xffffffff)]
		exact.Add(a, b, v)
	}
	return ls.checkIDs()
}

// Canonicalize renumbers pattern IDs into lexicographic pattern order and
// rewrites the occurrence table and pair store accordingly. After merging
// shards — whose interleaving-dependent interning order is otherwise
// nondeterministic — canonicalizing makes the statistics, and everything
// serialized from them, byte-for-byte reproducible for a given corpus
// regardless of shard count, worker scheduling, or checkpoint/resume
// boundaries. Requires an exact pair store.
func (ls *LanguageStats) Canonicalize() error {
	exact, ok := ls.pairs.(*MapPairStore)
	if !ok {
		return errors.New("stats: canonicalize requires an exact pair store")
	}
	order := make([]uint32, len(ls.patterns))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(ls.patterns[a], ls.patterns[b]) })
	perm := make([]uint32, len(order)) // old ID → new ID
	patterns := make([]string, len(order))
	occ := make([]uint32, len(order))
	for newID, oldID := range order {
		perm[oldID] = uint32(newID)
		patterns[newID] = ls.patterns[oldID]
		occ[newID] = ls.occ[oldID]
	}
	ls.patterns, ls.occ = patterns, occ
	ls.byString = make(map[string]uint32, len(patterns))
	for id, p := range patterns {
		ls.byString[p] = uint32(id)
	}
	// perm is a bijection, so remapped keys stay distinct: plain stores
	// into a map presized to the entry count.
	remapped := make(map[uint64]uint32, len(exact.m))
	for k, v := range exact.m {
		remapped[PairKey(perm[uint32(k>>32)], perm[uint32(k&0xffffffff)])] = v
	}
	ls.pairs = &MapPairStore{m: remapped}
	return ls.checkIDs()
}

// AddColumnRuns records one corpus column given the category-run encodings
// of its distinct values. Identical patterns within the column are counted
// once (occurrence and co-occurrence are at column granularity).
func (ls *LanguageStats) AddColumnRuns(values []pattern.Runs) {
	ls.n++
	seen := make(map[uint32]struct{}, 4)
	var idList []uint32
	for _, rs := range values {
		id := ls.internRuns(rs)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		idList = append(idList, id)
		ls.occ[id]++
	}
	if ls.maxPatternsPerColumn > 0 && len(idList) > ls.maxPatternsPerColumn {
		idList = idList[:ls.maxPatternsPerColumn]
	}
	for i := 0; i < len(idList); i++ {
		for j := i + 1; j < len(idList); j++ {
			ls.pairs.Add(idList[i], idList[j], 1)
		}
	}
}

// AddColumn records one corpus column given its distinct values as strings.
func (ls *LanguageStats) AddColumn(values []string) {
	runs := make([]pattern.Runs, len(values))
	for i, v := range values {
		runs[i] = pattern.Encode(v)
	}
	ls.AddColumnRuns(runs)
}

// PatternCount returns c(p), the number of columns containing pattern p.
func (ls *LanguageStats) PatternCount(p string) uint64 {
	id, ok := ls.byString[p]
	if !ok {
		return 0
	}
	return uint64(ls.occ[id])
}

// pairCountByID returns c(p1,p2) for interned pattern IDs, clamped by the
// marginals (a sketch may over-estimate, but co-occurrence can never exceed
// either pattern's own column count).
func (ls *LanguageStats) pairCountByID(id1, id2 uint32) uint64 {
	if id1 == id2 {
		return 0
	}
	c := ls.pairs.Get(id1, id2)
	if m := uint64(ls.occ[id1]); c > m {
		c = m
	}
	if m := uint64(ls.occ[id2]); c > m {
		c = m
	}
	return c
}

// PairCount returns c(p1,p2), the (possibly sketch-estimated) number of
// columns containing both patterns.
func (ls *LanguageStats) PairCount(p1, p2 string) uint64 {
	id1, ok1 := ls.byString[p1]
	id2, ok2 := ls.byString[p2]
	if !ok1 || !ok2 {
		return 0
	}
	return ls.pairCountByID(id1, id2)
}

// NPMIValues generalizes two raw values under the language and returns
// their pattern-level NPMI.
func (ls *LanguageStats) NPMIValues(v1, v2 string) float64 {
	return ls.NPMIRuns(pattern.Encode(v1), pattern.Encode(v2))
}

// lookupRuns renders the patterns of two category-run encoded values into
// stack buffers and looks both up; same reports that the patterns are
// identical, in which case neither is looked up.
func (ls *LanguageStats) lookupRuns(r1, r2 pattern.Runs) (id1, id2 uint32, ok1, ok2, same bool) {
	var b1, b2 [patternBuf]byte
	p1 := ls.lang.AppendRuns(b1[:0], r1)
	p2 := ls.lang.AppendRuns(b2[:0], r2)
	if string(p1) == string(p2) {
		return 0, 0, false, false, true
	}
	id1, ok1 = ls.byString[string(p1)]
	id2, ok2 = ls.byString[string(p2)]
	return id1, id2, ok1, ok2, false
}

// NPMIRuns generalizes two category-run encoded values and returns their
// pattern-level NPMI, equal to NPMI over their rendered patterns. This is
// the hot path used during calibration and detection; it renders into
// stack buffers and allocates nothing for patterns of ordinary length.
func (ls *LanguageStats) NPMIRuns(r1, r2 pattern.Runs) float64 {
	id1, id2, ok1, ok2, same := ls.lookupRuns(r1, r2)
	switch {
	case same:
		return 1
	case ls.n == 0:
		return 0
	case !ok1 || !ok2:
		return -1 // an unseen pattern: zero co-occurrence, smoothed or not
	}
	return ls.NPMIByID(id1, id2)
}

// NPMIRunsLOO is NPMIRuns with leave-one-out discounting for
// distant-supervision calibration: the training pair's own source columns
// are part of the corpus statistics, so each marginal is reduced by one
// column and — when both values come from the same column (a T+ pair) —
// the co-occurrence count is reduced by one as well. Without this, sparse
// languages separate T+ from T− perfectly via the self-contribution
// (c12 ≥ 1 for every same-column pair) and calibrate to spuriously
// aggressive thresholds.
func (ls *LanguageStats) NPMIRunsLOO(r1, r2 pattern.Runs, sameColumn bool) float64 {
	id1, id2, ok1, ok2, same := ls.lookupRuns(r1, r2)
	if same {
		return 1
	}
	if ls.n == 0 {
		return 0
	}
	var c1, c2, c12 float64
	if ok1 {
		c1 = float64(ls.occ[id1]) - 1
	}
	if ok2 {
		c2 = float64(ls.occ[id2]) - 1
	}
	if ok1 && ok2 {
		c12 = float64(ls.pairCountByID(id1, id2))
		if sameColumn {
			c12--
		}
	}
	if c1 < 0 {
		c1 = 0
	}
	if c2 < 0 {
		c2 = 0
	}
	if c12 < 0 {
		c12 = 0
	}
	if c12 > c1 {
		c12 = c1
	}
	if c12 > c2 {
		c12 = c2
	}
	return SmoothedNPMI(c1, c2, c12, float64(ls.n), ls.smoothing)
}

// NPMI returns the normalized point-wise mutual information of two patterns
// (Equation 2), smoothed per Equation 10, clamped to [−1, 1]. Identical
// patterns are perfectly compatible (NPMI = 1, which also follows from the
// formula when the pattern has been observed). A pair whose smoothed
// co-occurrence is zero returns −1.
func (ls *LanguageStats) NPMI(p1, p2 string) float64 {
	if p1 == p2 {
		return 1
	}
	if ls.n == 0 {
		return 0
	}
	id1, ok1 := ls.byString[p1]
	id2, ok2 := ls.byString[p2]
	if !ok1 || !ok2 {
		return -1 // an unseen pattern: zero co-occurrence, smoothed or not
	}
	return ls.NPMIByID(id1, id2)
}

// PatternID returns the ID of an observed pattern, for NPMIByID.
func (ls *LanguageStats) PatternID(p string) (uint32, bool) {
	id, ok := ls.byString[p]
	return id, ok
}

// NPMIByID is NPMI over the IDs of two observed patterns (PatternID),
// without NPMI's two string lookups per pair.
func (ls *LanguageStats) NPMIByID(id1, id2 uint32) float64 {
	if id1 == id2 {
		return 1
	}
	return SmoothedNPMI(float64(ls.occ[id1]), float64(ls.occ[id2]), float64(ls.pairCountByID(id1, id2)), float64(ls.n), ls.smoothing)
}

// Prune returns statistics holding only the patterns keep accepts, given
// each pattern and its count c(p): their occurrence counts, the
// co-occurrence counts among them, and the receiver's N and smoothing.
// Kept patterns keep their relative ID order, so pruning canonical
// statistics yields canonical statistics. Requires an exact pair store;
// the receiver is not modified.
func (ls *LanguageStats) Prune(keep func(p string, count uint64) bool) (*LanguageStats, error) {
	exact, ok := ls.pairs.(*MapPairStore)
	if !ok {
		return nil, errors.New("stats: prune requires an exact pair store")
	}
	out := NewLanguageStats(ls.lang, ls.smoothing)
	out.n = ls.n
	const dropped = math.MaxUint32
	perm := make([]uint32, len(ls.patterns)) // old ID → new ID, or dropped
	for id, p := range ls.patterns {
		perm[id] = dropped
		if keep(p, uint64(ls.occ[id])) {
			perm[id] = out.internPattern(p)
			out.occ[perm[id]] = ls.occ[id]
		}
	}
	pairs := out.pairs.(*MapPairStore)
	for k, v := range exact.m {
		if a, b := perm[uint32(k>>32)], perm[uint32(k&0xffffffff)]; a != dropped && b != dropped {
			pairs.m[PairKey(a, b)] = v
		}
	}
	return out, nil
}

// SmoothedNPMI is NPMI (Equation 2) over raw counts: c1 and c2 columns
// hold each item, c12 hold both, of n > 0. The co-occurrence is smoothed
// per Equation 10 with Jelinek–Mercer factor f, blending c12 with its
// expectation under independence, c1·c2/n. A pair whose smoothed
// co-occurrence is zero scores −1, and the result is clamped to [−1, 1].
// Pattern-level and value-level statistics share it.
func SmoothedNPMI(c1, c2, c12, n, f float64) float64 {
	c12s := (1-f)*c12 + f*c1*c2/n
	if c12s <= 0 {
		return -1
	}
	p12 := c12s / n
	pp1 := c1 / n
	pp2 := c2 / n
	pmi := math.Log(p12 / (pp1 * pp2))
	denom := -math.Log(p12)
	if denom <= 0 {
		// p12 ≥ 1 can only arise from estimation noise; the pair co-occurs
		// in essentially every column.
		return 1
	}
	npmi := pmi / denom
	if npmi > 1 {
		return 1
	}
	if npmi < -1 {
		return -1
	}
	return npmi
}

// Bytes returns the approximate memory footprint of the statistics: interned
// pattern strings, occurrence counters and the pair store. This is the
// size(L) used by the memory-budgeted language selection (Definition 5).
func (ls *LanguageStats) Bytes() int {
	b := 0
	for _, p := range ls.patterns {
		b += len(p) + 16 // string bytes + header
	}
	// Per-pattern index overhead. The constant was sized for two indexes;
	// it stays as it is because it is part of size(L), and changing it
	// would change which languages the budgeted selection keeps.
	b += len(ls.patterns) * 48
	b += len(ls.occ) * 4
	b += ls.pairs.Bytes()
	return b
}

// PairStoreEntries returns the number of co-occurrence entries (−1 when
// sketch-backed).
func (ls *LanguageStats) PairStoreEntries() int { return ls.pairs.Entries() }

// SketchCopy returns a copy of the statistics whose pair store is a
// count-min sketch at approximately ratio of the exact store's memory; the
// receiver keeps its exact store. Pattern/occurrence tables are shared
// (they are read-only after building).
func (ls *LanguageStats) SketchCopy(ratio float64, depth int) (*LanguageStats, error) {
	exact, ok := ls.pairs.(*MapPairStore)
	if !ok {
		return nil, errors.New("stats: pair store is not exact")
	}
	s, err := CompressPairStore(exact, ratio, depth)
	if err != nil {
		return nil, err
	}
	cp := *ls
	cp.pairs = s
	return &cp, nil
}

// PairNPMIDistribution returns the NPMI values of all stored co-occurring
// pattern pairs, sorted ascending. Used to reproduce the CDF analysis of
// Figure 17(b).
func (ls *LanguageStats) PairNPMIDistribution() []float64 {
	exact, ok := ls.pairs.(*MapPairStore)
	if !ok {
		return nil
	}
	out := make([]float64, 0, len(exact.m))
	for k := range exact.m {
		a := uint32(k >> 32)
		b := uint32(k & 0xffffffff)
		out = append(out, ls.NPMIByID(a, b))
	}
	sort.Float64s(out)
	return out
}

// MarshalBinary serializes the statistics (language, N, patterns with
// counts, smoothing, and the exact pair store). Sketch-backed stats must be
// serialized before compression.
func (ls *LanguageStats) MarshalBinary() ([]byte, error) {
	exact, ok := ls.pairs.(*MapPairStore)
	if !ok {
		return nil, errors.New("stats: only exact stores serialize; compress after loading")
	}
	size := 6*8 + exact.binarySize()
	for _, p := range ls.patterns {
		size += 8 + len(p) + 4
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = le.AppendUint64(buf, uint64(ls.lang.ID))
	buf = le.AppendUint64(buf, ls.n)
	buf = le.AppendUint64(buf, math.Float64bits(ls.smoothing))
	buf = le.AppendUint64(buf, uint64(ls.maxPatternsPerColumn))
	buf = le.AppendUint64(buf, uint64(len(ls.patterns)))
	for i, p := range ls.patterns {
		buf = envelope.AppendString(buf, p)
		buf = le.AppendUint32(buf, ls.occ[i])
	}
	buf = le.AppendUint64(buf, uint64(exact.binarySize()))
	return exact.appendBinary(buf), nil
}

// UnmarshalBinary deserializes statistics produced by MarshalBinary.
func (ls *LanguageStats) UnmarshalBinary(data []byte) error {
	d := envelope.NewDecoder(data)
	langID, n, sm, mp := d.U64(), d.U64(), d.U64(), d.U64()
	// Each pattern is at least its length prefix and its count.
	np := d.Count(8 + 4)
	if err := d.Err(); err != nil {
		return fmt.Errorf("stats: header: %w", err)
	}
	ls.lang = pattern.ByID(int(langID))
	if ls.lang.ID < 0 {
		return errors.New("stats: unknown language id")
	}
	ls.n = n
	ls.smoothing = math.Float64frombits(sm)
	ls.maxPatternsPerColumn = int(mp)
	ls.patterns = make([]string, np)
	ls.occ = make([]uint32, np)
	ls.byString = make(map[string]uint32, np)
	for i := range ls.patterns {
		p := d.String()
		ls.occ[i] = d.U32()
		if err := d.Err(); err != nil {
			return fmt.Errorf("stats: pattern %d: %w", i, err)
		}
		ls.patterns[i] = p
		ls.byString[p] = uint32(i)
	}
	if err := ls.checkIDs(); err != nil {
		return err
	}
	if pl := d.U64(); d.Err() == nil && pl != uint64(d.Remaining()) {
		return errors.New("stats: corrupt pair store length")
	}
	store, err := decodePairs(d, np)
	if err != nil {
		return err
	}
	ls.pairs = store
	if err := d.Finish(); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	return nil
}
