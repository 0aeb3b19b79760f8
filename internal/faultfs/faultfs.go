// Package faultfs is the fault-injection harness: deterministic, seedable
// faults for the ingestion side (transient open failures that recover
// after N attempts, permanently-broken paths, mid-read errors, short/torn
// writes, crash-point kill switches), for HTTP clients (Transport), and
// for the serving stack (slow-loris, flaky, truncated and bit-flipped
// streams; panicking and stalling handlers).
//
// Everything is deterministic in (Seed, path, attempt), so a chaos run is
// reproducible: the same seed injects the same faults at the same places,
// which is what lets property tests assert that a fault-riddled,
// thrice-killed build converges to the byte-identical model of a clean one.
//
// This is a test harness: production packages must not import it outside
// of tests.
package faultfs

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/retry"
)

// ErrInjected is the root of every injected failure; test assertions can
// errors.Is against it.
var ErrInjected = errors.New("faultfs: injected fault")

// Opener matches the pluggable file-open hook of pipeline.DirConfig.
type Opener func(path string) (io.ReadCloser, error)

// Config parameterizes an FS. Rates select *paths* (deterministically, by
// hash), not individual operations: a transient path fails its first
// RecoverAfter opens then works forever, modelling a flaky NFS export that
// heals; a permanent path never opens, modelling an unreadable file.
type Config struct {
	// Seed drives every injection decision.
	Seed uint64
	// TransientRate is the fraction of paths (0..1) that fail transiently.
	TransientRate float64
	// RecoverAfter is how many times a transient path fails before it
	// recovers (default 2).
	RecoverAfter int
	// PermanentRate is the fraction of paths that always fail to open.
	// Permanent selection is independent of transient selection; a path
	// that draws both is permanent.
	PermanentRate float64
	// ReadFault makes transient paths open successfully but fail mid-read
	// (after ReadFaultAfter bytes) instead of failing at open — exercising
	// the reopen-and-reparse path rather than the open-retry path.
	ReadFault bool
	// ReadFaultAfter is the byte offset of injected read errors (default 64).
	ReadFaultAfter int64
}

// FS wraps an Opener with injected faults. Safe for concurrent use.
type FS struct {
	open Opener
	cfg  Config

	mu    sync.Mutex
	fails map[string]int // transient failures delivered so far, per path

	transientInjected atomic.Uint64
	permanentInjected atomic.Uint64
	opens             atomic.Uint64
}

// New returns an FS over the real filesystem (os.Open).
func New(cfg Config) *FS {
	return NewWith(func(path string) (io.ReadCloser, error) { return os.Open(path) }, cfg)
}

// NewWith returns an FS over an arbitrary underlying opener.
func NewWith(open Opener, cfg Config) *FS {
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 2
	}
	if cfg.ReadFaultAfter <= 0 {
		cfg.ReadFaultAfter = 64
	}
	return &FS{open: open, cfg: cfg, fails: make(map[string]int)}
}

// Open implements Opener with fault injection in front of the wrapped
// opener. Injected transient errors are marked with retry.Transient, so the
// ingestion retry policy classifies them exactly like a real EAGAIN;
// permanent errors are unmarked and quarantine instead of retrying.
func (f *FS) Open(path string) (io.ReadCloser, error) {
	f.opens.Add(1)
	if f.pathSelected(path, "permanent", f.cfg.PermanentRate) {
		f.permanentInjected.Add(1)
		return nil, fmt.Errorf("%w: permanent open failure for %s", ErrInjected, path)
	}
	if f.pathSelected(path, "transient", f.cfg.TransientRate) {
		f.mu.Lock()
		failed := f.fails[path]
		inject := failed < f.cfg.RecoverAfter
		if inject {
			f.fails[path] = failed + 1
		}
		f.mu.Unlock()
		if inject {
			f.transientInjected.Add(1)
			if f.cfg.ReadFault {
				rc, err := f.open(path)
				if err != nil {
					return nil, err
				}
				after := f.cfg.ReadFaultAfter
				return readCloser{&FlakyReader{R: rc, After: after, Err: retry.Transient(fmt.Errorf(
					"%w: transient read failure at offset %d of %s", ErrInjected, after, path))}, rc}, nil
			}
			return nil, retry.Transient(fmt.Errorf("%w: transient open failure %d/%d for %s",
				ErrInjected, failed+1, f.cfg.RecoverAfter, path))
		}
	}
	return f.open(path)
}

// TransientInjected reports how many transient faults were delivered.
func (f *FS) TransientInjected() uint64 { return f.transientInjected.Load() }

// PermanentInjected reports how many permanent faults were delivered.
func (f *FS) PermanentInjected() uint64 { return f.permanentInjected.Load() }

// Opens reports the total open attempts observed (including faulted ones).
func (f *FS) Opens() uint64 { return f.opens.Load() }

// pathSelected deterministically decides whether a path is in the faulty
// fraction for a given fault kind.
func (f *FS) pathSelected(path, kind string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	io.WriteString(h, kind)
	io.WriteString(h, path)
	v := splitmix64(h.Sum64() ^ f.cfg.Seed)
	return float64(v)/float64(^uint64(0)) < rate
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShortWriter silently accepts only the first Cap bytes and reports the
// rest as written — a lying disk or a torn buffer flush. Wrap a checkpoint
// or model writer with it to produce exactly the corruption the integrity
// envelope must catch.
type ShortWriter struct {
	W   io.Writer
	Cap int64

	written int64
}

func (s *ShortWriter) Write(p []byte) (int, error) {
	if s.written >= s.Cap {
		return len(p), nil // lie: claim success, persist nothing
	}
	keep := p
	if rem := s.Cap - s.written; int64(len(keep)) > rem {
		keep = keep[:rem]
	}
	n, err := s.W.Write(keep)
	s.written += int64(n)
	if err != nil {
		return n, err
	}
	return len(p), nil
}

// Tear truncates path to keep bytes — a torn write landed on disk. It is
// how chaos tests corrupt the newest checkpoint between kill/resume cycles.
func Tear(path string, keep int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if keep > fi.Size() {
		keep = fi.Size()
	}
	return os.Truncate(path, keep)
}

// FlipByte XORs mask into the byte at offset of path — a single bit-rotted
// byte in an otherwise intact file.
func FlipByte(path string, offset int64, mask byte) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= mask
	_, err = f.WriteAt(b[:], offset)
	return err
}

// KillSwitch cancels a context after N trigger hits — the in-process
// stand-in for `kill -9` at a crash point. Hits beyond the Nth are no-ops.
type KillSwitch struct {
	hits   atomic.Int64
	after  int64
	cancel context.CancelFunc
}

// NewKillSwitch arms a switch that fires cancel on the after-th Hit.
func NewKillSwitch(after int, cancel context.CancelFunc) *KillSwitch {
	return &KillSwitch{after: int64(after), cancel: cancel}
}

// Hit records one crash-point crossing, killing the context if armed count
// is reached.
func (k *KillSwitch) Hit() {
	if k.hits.Add(1) == k.after {
		k.cancel()
	}
}

// Fired reports whether the switch has killed its context.
func (k *KillSwitch) Fired() bool { return k.hits.Load() >= k.after }
