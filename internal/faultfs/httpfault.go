package faultfs

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/retry"
)

// HTTPConfig parameterizes a Transport. Rates select individual round trips
// (deterministically, by hash of the request key and its per-key sequence
// number), and — mirroring the filesystem harness — a key never suffers more
// than RecoverAfter consecutive faults, so every caller that retries makes
// progress eventually no matter how hostile the rates.
type HTTPConfig struct {
	// Seed drives every injection decision.
	Seed uint64
	// DropRate is the fraction of round trips that fail with a connection
	// error *before* the request reaches the server — the request is never
	// delivered.
	DropRate float64
	// ServerErrorRate is the fraction of round trips answered with a
	// synthesized 503 (carrying a Retry-After header) without delivering
	// the request.
	ServerErrorRate float64
	// BlackholeRate is the fraction of round trips where the request IS
	// delivered and processed by the server but the response is discarded
	// and a connection error returned — the fault that turns a retrying
	// client into a duplicate sender.
	BlackholeRate float64
	// TruncateRate is the fraction of round trips whose response body is
	// torn after TruncateAfter bytes — the download-side integrity fault.
	TruncateRate float64
	// TruncateAfter is the byte offset of injected response tears
	// (default 64).
	TruncateAfter int64
	// StallRate is the fraction of round trips that hang — the request is
	// never delivered and RoundTrip blocks until the request context is
	// cancelled. This is the fault that a plain retry loop cannot ride out
	// without per-attempt timeouts: nothing errors, nothing answers.
	StallRate float64
	// TrickleRate is the fraction of round trips whose response body
	// arrives one byte per TrickleDelay — the slow-loris read-side fault
	// that holds a caller's connection (and deadline budget) hostage
	// without ever failing.
	TrickleRate float64
	// TrickleDelay is the per-byte delay of trickled bodies (default 10ms).
	TrickleDelay time.Duration
	// RecoverAfter caps consecutive faults per request key (default 2): a
	// key that has eaten that many faults in a row passes through cleanly
	// at least once before it can be faulted again.
	RecoverAfter int
	// RetryAfterSeconds is the Retry-After hint on synthesized 503s
	// (default 1).
	RetryAfterSeconds int
}

// Transport wraps an http.RoundTripper with deterministic injected faults.
// Safe for concurrent use. Like FS, it is a test harness: production
// packages must not import it outside of tests.
type Transport struct {
	next http.RoundTripper
	cfg  HTTPConfig

	mu   sync.Mutex
	seq  map[string]uint64 // round trips observed per key, for determinism
	runs map[string]int    // consecutive faults delivered per key

	stallMu sync.Mutex
	stallCh chan struct{} // non-nil while force-stalled; closed on heal

	requests   atomic.Uint64
	drops      atomic.Uint64
	serverErrs atomic.Uint64
	blackholes atomic.Uint64
	truncates  atomic.Uint64
	stalls     atomic.Uint64
	trickles   atomic.Uint64
}

// NewTransport wraps next (default http.DefaultTransport) with fault
// injection.
func NewTransport(next http.RoundTripper, cfg HTTPConfig) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = 2
	}
	if cfg.TruncateAfter <= 0 {
		cfg.TruncateAfter = 64
	}
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	if cfg.TrickleDelay <= 0 {
		cfg.TrickleDelay = 10 * time.Millisecond
	}
	return &Transport{next: next, cfg: cfg, seq: make(map[string]uint64), runs: make(map[string]int)}
}

// faultKind is what the picker decided to do to one round trip.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	faultServerError
	faultBlackhole
	faultTruncate
	faultStall
	faultTrickle
)

// RoundTrip implements http.RoundTripper. Injected connection-level errors
// are marked with retry.Transient so a retry.Policy classifies them exactly
// like a real ECONNRESET; synthesized 503s are ordinary responses the
// caller's own status classification must handle.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	key := req.Method + " " + req.URL.Path
	if ch := t.stallGate(); ch != nil {
		// Forced stall (SetStall): hang until the caller gives up or the
		// fault is healed; healing releases in-flight round trips to
		// proceed normally, modelling an upstream that un-wedges.
		t.stalls.Add(1)
		select {
		case <-req.Context().Done():
			drainRequest(req)
			return nil, retry.Transient(fmt.Errorf("%w: stalled %s until caller gave up: %v",
				ErrInjected, key, req.Context().Err()))
		case <-ch:
		}
	}
	kind := t.pick(key)
	switch kind {
	case faultDrop:
		t.drops.Add(1)
		drainRequest(req)
		return nil, retry.Transient(fmt.Errorf("%w: dropped %s before delivery", ErrInjected, key))
	case faultServerError:
		t.serverErrs.Add(1)
		drainRequest(req)
		body := "injected 503\n"
		resp := &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Retry-After": []string{strconv.Itoa(t.cfg.RetryAfterSeconds)}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}
		return resp, nil
	case faultBlackhole:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err // a real failure outranks the injected one
		}
		t.blackholes.Add(1)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, retry.Transient(fmt.Errorf("%w: blackholed response to %s after delivery", ErrInjected, key))
	case faultTruncate:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		t.truncates.Add(1)
		after := t.cfg.TruncateAfter
		resp.Body = readCloser{&FlakyReader{R: resp.Body, After: after, Err: retry.Transient(fmt.Errorf(
			"%w: response to %s torn at offset %d", ErrInjected, key, after))}, resp.Body}
		resp.ContentLength = -1
		return resp, nil
	case faultStall:
		t.stalls.Add(1)
		<-req.Context().Done()
		drainRequest(req)
		return nil, retry.Transient(fmt.Errorf("%w: stalled %s until caller gave up: %v",
			ErrInjected, key, req.Context().Err()))
	case faultTrickle:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		t.trickles.Add(1)
		resp.Body = &trickleBody{rc: resp.Body, delay: t.cfg.TrickleDelay, ctx: req.Context()}
		resp.ContentLength = -1
		return resp, nil
	default:
		return t.next.RoundTrip(req)
	}
}

// pick decides the fate of one round trip: deterministic in (Seed, key,
// per-key sequence number), with the RecoverAfter progress cap.
func (t *Transport) pick(key string) faultKind {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.seq[key]
	t.seq[key] = n + 1
	kind := faultNone
	if t.runs[key] < t.cfg.RecoverAfter {
		switch {
		case t.drawn("drop", key, n, t.cfg.DropRate):
			kind = faultDrop
		case t.drawn("503", key, n, t.cfg.ServerErrorRate):
			kind = faultServerError
		case t.drawn("blackhole", key, n, t.cfg.BlackholeRate):
			kind = faultBlackhole
		case t.drawn("truncate", key, n, t.cfg.TruncateRate):
			kind = faultTruncate
		case t.drawn("stall", key, n, t.cfg.StallRate):
			kind = faultStall
		case t.drawn("trickle", key, n, t.cfg.TrickleRate):
			kind = faultTrickle
		}
	}
	if kind == faultNone {
		t.runs[key] = 0
	} else {
		t.runs[key]++
	}
	return kind
}

// drawn is the per-round-trip analogue of FS.pathSelected, additionally
// keyed by the sequence number so each attempt draws independently.
func (t *Transport) drawn(kind, key string, seq uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	io.WriteString(h, kind)
	io.WriteString(h, key)
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(seq >> (8 * i))
	}
	h.Write(buf[:])
	v := splitmix64(h.Sum64() ^ t.cfg.Seed)
	return float64(v)/float64(^uint64(0)) < rate
}

// Requests reports total round trips observed (including faulted ones).
func (t *Transport) Requests() uint64 { return t.requests.Load() }

// Drops reports requests failed before delivery.
func (t *Transport) Drops() uint64 { return t.drops.Load() }

// ServerErrors reports synthesized 503 responses.
func (t *Transport) ServerErrors() uint64 { return t.serverErrs.Load() }

// Blackholes reports delivered-then-discarded responses.
func (t *Transport) Blackholes() uint64 { return t.blackholes.Load() }

// Truncates reports torn response bodies.
func (t *Transport) Truncates() uint64 { return t.truncates.Load() }

// Stalls reports round trips that hung until caller cancellation (rate-based
// and forced).
func (t *Transport) Stalls() uint64 { return t.stalls.Load() }

// Trickles reports slow-loris response bodies delivered byte-by-byte.
func (t *Transport) Trickles() uint64 { return t.trickles.Load() }

// Faults reports the total injected faults of all kinds.
func (t *Transport) Faults() uint64 {
	return t.Drops() + t.ServerErrors() + t.Blackholes() + t.Truncates() + t.Stalls() + t.Trickles()
}

// SetStall toggles the forced-stall fault: while on, every round trip hangs
// (bypassing rates and the RecoverAfter progress cap) until the caller's
// context is cancelled or the stall is healed with SetStall(false), which
// also releases the round trips currently hanging. This is the chaos
// harness's "upstream wedged / upstream recovered" switch.
func (t *Transport) SetStall(on bool) {
	t.stallMu.Lock()
	defer t.stallMu.Unlock()
	if on {
		if t.stallCh == nil {
			t.stallCh = make(chan struct{})
		}
		return
	}
	if t.stallCh != nil {
		close(t.stallCh)
		t.stallCh = nil
	}
}

// stallGate returns the channel a forced-stalled round trip must wait on,
// or nil when no forced stall is active.
func (t *Transport) stallGate() chan struct{} {
	t.stallMu.Lock()
	defer t.stallMu.Unlock()
	return t.stallCh
}

// drainRequest disposes of the request body on paths that never hand the
// request to the underlying transport — RoundTrip owns the body either way.
func drainRequest(req *http.Request) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}

// trickleBody delivers the response one byte per delay — a read-side
// slow-loris. Cancelling the request context aborts the dribble.
type trickleBody struct {
	rc    io.ReadCloser
	delay time.Duration
	ctx   context.Context
}

func (b *trickleBody) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	select {
	case <-b.ctx.Done():
		return 0, retry.Transient(fmt.Errorf("%w: trickled body abandoned: %v", ErrInjected, b.ctx.Err()))
	case <-time.After(b.delay):
	}
	return b.rc.Read(p[:1])
}

func (b *trickleBody) Close() error { return b.rc.Close() }

// PanicHandler panics with v on every request — a detector (or any
// downstream dependency) blowing up mid-request.
func PanicHandler(v any) http.Handler {
	return http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(v)
	})
}

// SlowHandler sleeps d before delegating to next, honoring request-context
// cancellation so a timed-out request does not pin the goroutine for the
// full delay.
func SlowHandler(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
		next.ServeHTTP(w, r)
	})
}
