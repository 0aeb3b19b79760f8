package stats

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachLanguage calls fn(i) for every language index i in [0, n) on up to
// workers goroutines (workers ≤ 0 means one per CPU) and returns the error
// of the lowest index that failed, or nil. It is the one per-language fold
// behind every barrier of a build: merging shards, canonicalizing, and
// serializing or calibrating each language.
//
// fn must write only to language i's own output slot, so results never
// depend on scheduling. Indices are claimed in increasing order and no
// index above a known failure is started, so every index below the first
// failure runs and the returned error is the same at any worker count. All
// goroutines have exited when ForEachLanguage returns.
func ForEachLanguage(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next, failed atomic.Int64 // next index to claim; lowest failed index
		mu           sync.Mutex   // guards firstErr and stores to failed
		firstErr     error
		wg           sync.WaitGroup
	)
	failed.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= failed.Load() {
					return
				}
				if err := fn(int(i)); err != nil {
					mu.Lock()
					if i < failed.Load() {
						failed.Store(i)
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// MergeAll folds each source shard into dst language by language, on up to
// workers goroutines: dst[i] absorbs srcs[0][i], srcs[1][i], … in that
// order, so the interning order of every language — and therefore its
// serialized bytes — is the same at any worker count. Every shard must
// cover the same languages as dst.
func MergeAll(dst []*LanguageStats, workers int, srcs ...[]*LanguageStats) error {
	for _, src := range srcs {
		if len(src) != len(dst) {
			return errors.New("stats: shards cover different language sets")
		}
	}
	return ForEachLanguage(len(dst), workers, func(i int) error {
		for _, src := range srcs {
			if err := dst[i].Merge(src[i]); err != nil {
				return fmt.Errorf("%v: %w", dst[i].Language(), err)
			}
		}
		return nil
	})
}

// CanonicalizeAll canonicalizes every language's statistics on up to
// workers goroutines.
func CanonicalizeAll(all []*LanguageStats, workers int) error {
	return ForEachLanguage(len(all), workers, func(i int) error {
		if err := all[i].Canonicalize(); err != nil {
			return fmt.Errorf("%v: %w", all[i].Language(), err)
		}
		return nil
	})
}
