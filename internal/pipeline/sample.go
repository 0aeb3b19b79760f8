package pipeline

import (
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/corpus"
)

// sample is the distant-supervision column sample.
//
// With cap <= 0 every column is kept in stream order, so distant
// supervision draws its training pairs from the whole corpus exactly as it
// would from the corpus in memory.
//
// With cap > 0 it is a deterministic *mergeable bottom-k* sketch: each
// column's priority is a seeded hash of its content, and the sample is the
// cap columns with the smallest (priority, content) keys. Unlike the
// Algorithm-R reservoir this replaced, the result is a pure function of the
// column *multiset* — independent of stream order, worker scheduling,
// checkpoint boundaries, and (crucially for distributed builds) of how the
// corpus was partitioned: merging per-partition bottom-k samples and
// re-selecting the cap smallest equals the bottom-k of the whole corpus.
type sample struct {
	cap  int
	seed uint64
	cols []*corpus.Column // cap <= 0: every column, stream order
	keep []sampleEntry    // cap > 0: max-heap of the cap smallest keys
}

// sampleEntry pairs a kept column with its selection priority.
type sampleEntry struct {
	pri uint64
	col *corpus.Column
}

func newSample(cap int, seed uint64) *sample {
	return &sample{cap: cap, seed: seed}
}

// add offers one column to the sample.
func (s *sample) add(c *corpus.Column) {
	if s.cap <= 0 {
		s.cols = append(s.cols, c)
		return
	}
	s.addEntry(sampleEntry{pri: colPriority(s.seed, c.Values), col: c})
}

// addEntry folds a pre-prioritized entry in — the merge path reuses it so a
// restored or uploaded entry never has its priority recomputed.
func (s *sample) addEntry(e sampleEntry) {
	if len(s.keep) < s.cap {
		s.keep = append(s.keep, e)
		s.siftUp(len(s.keep) - 1)
		return
	}
	if entryLess(e, s.keep[0]) {
		s.keep[0] = e
		s.siftDown(0)
	}
}

// merge folds another sample into the receiver. For bounded samples the
// result is the bottom-k of the union, in any merge order; for unbounded
// samples columns concatenate in call order, so callers merging corpus
// partitions must do so in partition-index order to reproduce the
// single-stream sequence.
func (s *sample) merge(other *sample) {
	if other == nil {
		return
	}
	if s.cap <= 0 {
		s.cols = append(s.cols, other.cols...)
		return
	}
	for _, e := range other.keep {
		s.addEntry(e)
	}
}

// finalize returns the sampled columns in their canonical order: stream
// order when unbounded, ascending (priority, content) otherwise — never
// heap layout, which is an implementation detail.
func (s *sample) finalize() []*corpus.Column {
	if s.cap <= 0 {
		return s.cols
	}
	entries := append([]sampleEntry(nil), s.keep...)
	sort.Slice(entries, func(i, j int) bool { return entryLess(entries[i], entries[j]) })
	cols := make([]*corpus.Column, len(entries))
	for i, e := range entries {
		cols[i] = e.col
	}
	return cols
}

// size reports how many columns the sample currently holds.
func (s *sample) size() int {
	if s.cap <= 0 {
		return len(s.cols)
	}
	return len(s.keep)
}

// entries exposes the kept set for serialization: (0, col) rows in stream
// order when unbounded, (pri, col) rows in heap order otherwise. Heap order
// is safe to persist because reconstruction re-heapifies and every
// observable result is layout-independent.
func (s *sample) entries() []sampleEntry {
	if s.cap <= 0 {
		out := make([]sampleEntry, len(s.cols))
		for i, c := range s.cols {
			out[i] = sampleEntry{col: c}
		}
		return out
	}
	return s.keep
}

// restore rebuilds the sample from serialized entries.
func (s *sample) restore(entries []sampleEntry) {
	if s.cap <= 0 {
		s.cols = make([]*corpus.Column, len(entries))
		for i, e := range entries {
			s.cols[i] = e.col
		}
		return
	}
	for _, e := range entries {
		s.addEntry(e)
	}
}

// entryLess is the total selection order: priority first, column content
// as the tiebreak. Content ties are genuinely interchangeable — the columns
// are byte-identical where it matters (distsup reads only Values).
func entryLess(a, b sampleEntry) bool {
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return compareValues(a.col.Values, b.col.Values) < 0
}

func compareValues(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// colPriority hashes a column's values (length-framed, so cell boundaries
// matter) into its selection priority.
func colPriority(seed uint64, values []string) uint64 {
	h := fnv.New64a()
	var frame [8]byte
	for _, v := range values {
		n := uint64(len(v))
		for i := range frame {
			frame[i] = byte(n >> (8 * i))
		}
		h.Write(frame[:])
		io.WriteString(h, v)
	}
	return splitmix64(h.Sum64() ^ seed)
}

// splitmix64 is the finalizer of sample priorities.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Max-heap plumbing over entryLess (root = largest kept key = first to be
// evicted).

func (s *sample) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(s.keep[parent], s.keep[i]) {
			return
		}
		s.keep[parent], s.keep[i] = s.keep[i], s.keep[parent]
		i = parent
	}
}

func (s *sample) siftDown(i int) {
	n := len(s.keep)
	for {
		largest := i
		if l := 2*i + 1; l < n && entryLess(s.keep[largest], s.keep[l]) {
			largest = l
		}
		if r := 2*i + 2; r < n && entryLess(s.keep[largest], s.keep[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		s.keep[i], s.keep[largest] = s.keep[largest], s.keep[i]
		i = largest
	}
}
