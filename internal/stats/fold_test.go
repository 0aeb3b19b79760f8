package stats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/envelope"
	"repro/internal/pattern"
)

// waitGoroutines fails the test unless the goroutine count drops back to
// base within a second.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestForEachLanguageReturnsLowestIndexError(t *testing.T) {
	const n = 50
	base := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 2, 4, 64} {
		var calls [n]atomic.Int32
		err := ForEachLanguage(n, workers, func(i int) error {
			calls[i].Add(1)
			if i == 7 || i == 31 {
				return fmt.Errorf("language %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "language 7" {
			t.Fatalf("workers=%d: got %v, want the error of index 7", workers, err)
		}
		for i := 0; i < 7; i++ {
			if calls[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want once", workers, i, calls[i].Load())
			}
		}
		waitGoroutines(t, base)
	}
}

func TestForEachLanguageVisitsEveryIndexOnce(t *testing.T) {
	const n = 144
	for _, workers := range []int{1, 3, 200} {
		out := make([]int, n)
		if err := ForEachLanguage(n, workers, func(i int) error {
			out[i] += i + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
	if err := ForEachLanguage(0, 4, func(int) error { return errors.New("called") }); err != nil {
		t.Fatalf("empty fold: %v", err)
	}
}

// shardLanguages counts cols round-robin into shards builders over langs.
func shardLanguages(langs []pattern.Language, cols [][]string, shards int) [][]*LanguageStats {
	out := make([][]*LanguageStats, shards)
	for s := range out {
		b := NewBuilder(langs, DefaultSmoothing)
		for i := s; i < len(cols); i += shards {
			b.AddColumn(cols[i])
		}
		out[s] = b.Stats()
	}
	return out
}

// TestMergeAllBytesIndependentOfWorkers: the parallel fold merges each
// language's shards in shard order, so even before canonicalization the
// merged statistics serialize to the same bytes at any worker count.
func TestMergeAllBytesIndependentOfWorkers(t *testing.T) {
	cols := randomColumns(rand.New(rand.NewSource(21)), 150)
	langs := []pattern.Language{pattern.L1(), pattern.L2(), pattern.Crude(), pattern.ByID(40), pattern.ByID(90)}
	encode := func(workers int, canonical bool) [][]byte {
		dst := NewBuilder(langs, DefaultSmoothing).Stats()
		if err := MergeAll(dst, workers, shardLanguages(langs, cols, 3)...); err != nil {
			t.Fatal(err)
		}
		if canonical {
			if err := CanonicalizeAll(dst, workers); err != nil {
				t.Fatal(err)
			}
		}
		blobs := make([][]byte, len(dst))
		for i, ls := range dst {
			b, err := ls.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			blobs[i] = b
		}
		return blobs
	}
	for _, canonical := range []bool{false, true} {
		want := encode(1, canonical)
		for _, workers := range []int{2, 4} {
			got := encode(workers, canonical)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("canonical=%v: language %d bytes differ between 1 and %d workers", canonical, i, workers)
				}
			}
		}
	}
}

// TestMergeIntoEmptyMatchesSequential: merging into an empty store copies
// the source's tables whole. The merged statistics must still equal a
// sequential build, and the copy must not alias the source.
func TestMergeIntoEmptyMatchesSequential(t *testing.T) {
	cols := randomColumns(rand.New(rand.NewSource(22)), 80)
	shards := shardLanguages([]pattern.Language{pattern.L2()}, cols, 2)
	a, b := shards[0][0], shards[1][0]
	before, _ := a.MarshalBinary()

	merged := NewLanguageStats(pattern.L2(), DefaultSmoothing)
	for _, sh := range []*LanguageStats{a, b} {
		if err := merged.Merge(sh); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := a.MarshalBinary(); !bytes.Equal(before, after) {
		t.Fatal("merging into a copied store modified the source")
	}

	seq := NewLanguageStats(pattern.L2(), DefaultSmoothing)
	for _, c := range cols {
		seq.AddColumn(c)
	}
	for _, ls := range []*LanguageStats{merged, seq} {
		if err := ls.Canonicalize(); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := merged.MarshalBinary()
	want, _ := seq.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("merge into an empty store differs from the sequential build")
	}
}

// marshalPairsReference is the sort.Slice encoder MapPairStore used before
// it sorted (key, count) entries; the two must agree byte for byte.
func marshalPairsReference(s *MapPairStore) []byte {
	keys := make([]uint64, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	buf := make([]byte, 8, 8+len(keys)*12)
	binary.LittleEndian.PutUint64(buf, uint64(len(keys)))
	var tmp [12]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(tmp[0:], k)
		binary.LittleEndian.PutUint32(tmp[8:], s.m[k])
		buf = append(buf, tmp[:]...)
	}
	return buf
}

func TestMapPairStoreMarshalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		s := newMapPairStore()
		ids := 1 + r.Intn(300)
		patterns := ids
		if trial%5 == 0 {
			patterns = 1 << 32
		}
		for i := r.Intn(2000); i > 0; i-- {
			a, b := uint32(r.Intn(ids)), uint32(r.Intn(ids))
			if trial%5 == 0 {
				// Spread keys over the whole uint32 ID space.
				a, b = r.Uint32(), r.Uint32()
			}
			if a == b {
				continue // the format holds pairs of distinct patterns only
			}
			s.Add(a, b, uint32(1+r.Intn(1<<r.Intn(31))))
		}
		got := s.appendBinary(nil)
		if want := marshalPairsReference(s); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d entries): encoding differs from the reference", trial, len(s.m))
		}
		back, err := decodePairs(envelope.NewDecoder(got), patterns)
		if err != nil {
			t.Fatal(err)
		}
		if again := back.appendBinary(nil); !bytes.Equal(again, got) {
			t.Fatalf("trial %d: round trip changed the encoding", trial)
		}
	}
}

func TestUnmarshalRejectsDuplicatePattern(t *testing.T) {
	ls := NewLanguageStats(pattern.L1(), DefaultSmoothing)
	ls.AddColumn([]string{"2011-06-20", "abc"})
	// Corrupt the table: the second pattern repeats the first's string.
	ls.patterns[1] = ls.patterns[0]
	blob, err := ls.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := (&LanguageStats{}).UnmarshalBinary(blob); err == nil {
		t.Fatal("expected a duplicate-pattern error")
	}
}
