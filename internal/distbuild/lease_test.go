package distbuild

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives the lease table deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func tickAt(tb *leaseTable, c *fakeClock)    { tb.tick(c.now()) }

// TestLeaseGrantHeartbeatComplete: the happy path through the state
// machine.
func TestLeaseGrantHeartbeatComplete(t *testing.T) {
	clk := newFakeClock()
	tb := newLeaseTable(2, 10*time.Second)
	tickAt(tb, clk)

	idx, reassigned, ok := tb.acquire("w1")
	if !ok || idx != 0 || reassigned {
		t.Fatalf("first acquire = (%d, %v, %v), want (0, false, true)", idx, reassigned, ok)
	}
	idx2, _, ok := tb.acquire("w2")
	if !ok || idx2 != 1 {
		t.Fatalf("second acquire = (%d, %v), want (1, true)", idx2, ok)
	}
	if _, _, ok := tb.acquire("w3"); ok {
		t.Fatal("third acquire succeeded with no pending partitions")
	}

	// Heartbeats inside the TTL keep the lease alive indefinitely.
	for i := 0; i < 5; i++ {
		clk.advance(6 * time.Second)
		tickAt(tb, clk)
		if err := tb.heartbeat("w1", 0); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	tb.complete(0)
	tb.complete(0) // idempotent
	if tb.done != 1 {
		t.Fatalf("done = %d after double-complete, want 1", tb.done)
	}
	if err := tb.heartbeat("w1", 0); !errors.Is(err, errLeaseLost) {
		t.Fatalf("heartbeat on completed partition: %v, want errLeaseLost", err)
	}
	tb.complete(1)
	if !tb.allDone() {
		t.Fatal("allDone() false with every partition complete")
	}
}

// TestLeaseExpiryReassigns: a silent worker's partition lapses and the next
// acquire is counted as a reassignment.
func TestLeaseExpiryReassigns(t *testing.T) {
	clk := newFakeClock()
	tb := newLeaseTable(1, 10*time.Second)
	tickAt(tb, clk)

	if _, _, ok := tb.acquire("w1"); !ok {
		t.Fatal("acquire failed")
	}
	// Just inside the TTL: still held.
	clk.advance(10 * time.Second)
	tickAt(tb, clk)
	if _, _, ok := tb.acquire("w2"); ok {
		t.Fatal("partition reassigned before its TTL lapsed")
	}
	// Past the TTL: expired and reassignable.
	clk.advance(time.Millisecond)
	tickAt(tb, clk)
	if err := tb.heartbeat("w1", 0); !errors.Is(err, errLeaseLost) {
		t.Fatalf("heartbeat after expiry: %v, want errLeaseLost", err)
	}
	idx, reassigned, ok := tb.acquire("w2")
	if !ok || idx != 0 || !reassigned {
		t.Fatalf("acquire after expiry = (%d, %v, %v), want (0, true, true)", idx, reassigned, ok)
	}
	if tb.expired != 1 || tb.reassigned != 1 || tb.granted != 2 {
		t.Fatalf("counters expired=%d reassigned=%d granted=%d, want 1/1/2", tb.expired, tb.reassigned, tb.granted)
	}
	// The usurped worker cannot renew what it lost.
	if err := tb.heartbeat("w1", 0); !errors.Is(err, errLeaseLost) {
		t.Fatalf("stale worker heartbeat: %v, want errLeaseLost", err)
	}
	if err := tb.heartbeat("w2", 0); err != nil {
		t.Fatalf("new holder heartbeat: %v", err)
	}
}

// TestLeaseHeartbeatBounds: out-of-range partitions are losses, not panics.
func TestLeaseHeartbeatBounds(t *testing.T) {
	tb := newLeaseTable(1, time.Second)
	tb.tick(time.Now())
	for _, idx := range []int{-1, 1, 99} {
		if err := tb.heartbeat("w", idx); !errors.Is(err, errLeaseLost) {
			t.Errorf("heartbeat(%d): %v, want errLeaseLost", idx, err)
		}
	}
	tb.complete(-1)
	tb.complete(99)
	if tb.done != 0 {
		t.Fatalf("out-of-range complete changed done to %d", tb.done)
	}
}
