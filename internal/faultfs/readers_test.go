package faultfs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/retry"
)

func TestSlowReaderDeliversEverythingSlowly(t *testing.T) {
	src := "hello, slow world"
	sr := &SlowReader{R: strings.NewReader(src), Delay: time.Millisecond, Chunk: 3}
	start := time.Now()
	got, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != src {
		t.Fatalf("got %q", got)
	}
	// ceil(17/3) = 6 chunks, so at least 6ms of injected delay.
	if elapsed := time.Since(start); elapsed < 6*time.Millisecond {
		t.Errorf("read finished in %s, delay not injected", elapsed)
	}
}

func TestFlakyReaderFailsAfterN(t *testing.T) {
	permanent := errors.New("disk on fire")
	transient := retry.Transient(errors.New("read stalled"))
	cases := []struct {
		name      string
		src       string
		after     int64
		err       error
		want      string // bytes delivered before the terminal error
		wantErr   error  // terminal error (io.EOF: the stream ended first)
		failFirst bool   // the very first Read must fail
		attempts  int    // attempts a 3-attempt retry.Policy makes
	}{
		{"default error after N", "0123456789", 4, nil, "0123", ErrInjected, false, 1},
		{"after 0 fails on first read", "abc", 0, nil, "", ErrInjected, true, 1},
		{"custom error", "abc", 0, permanent, "", permanent, true, 1},
		{"short stream ends before the fault", "ab", 10, nil, "ab", io.EOF, false, 1},
		{"transient error is retried", "0123456789", 4, transient, "0123", transient, false, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			attempts := 0
			pol := retry.Policy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
			polErr := pol.Do(context.Background(), func() error {
				attempts++
				fr := &FlakyReader{R: strings.NewReader(tc.src), After: tc.after, Err: tc.err}
				var got []byte
				buf := make([]byte, 3)
				for reads := 1; ; reads++ {
					n, err := fr.Read(buf)
					got = append(got, buf[:n]...)
					if err == nil {
						continue
					}
					if tc.failFirst && reads != 1 {
						t.Errorf("first failure on read %d, want read 1", reads)
					}
					if string(got) != tc.want {
						t.Errorf("delivered %q before %v, want %q", got, err, tc.want)
					}
					if !errors.Is(err, tc.wantErr) {
						t.Errorf("err = %v, want %v", err, tc.wantErr)
					}
					if err == io.EOF {
						return nil
					}
					return err
				}
			})
			if attempts != tc.attempts {
				t.Errorf("retry.Policy made %d attempts, want %d (last err %v)", attempts, tc.attempts, polErr)
			}
		})
	}
}

// closeTracker records whether Close reached the wrapped stream.
type closeTracker struct {
	io.Reader
	closed bool
}

func (c *closeTracker) Close() error { c.closed = true; return nil }

// TestFlakyReadCloserPassesClose: the wrapper FS.Open and Transport put
// around a faulted stream must still close the underlying file or body.
func TestFlakyReadCloserPassesClose(t *testing.T) {
	direct := &closeTracker{Reader: strings.NewReader("abc")}
	var rc io.ReadCloser = readCloser{&FlakyReader{R: direct, After: 1}, direct}
	if err := rc.Close(); err != nil || !direct.closed {
		t.Fatalf("readCloser.Close: err=%v closed=%t", err, direct.closed)
	}

	opened := &closeTracker{Reader: strings.NewReader(strings.Repeat("a,b\n", 10))}
	fs := NewWith(func(string) (io.ReadCloser, error) { return opened, nil }, Config{
		Seed: 1, TransientRate: 1, ReadFault: true, ReadFaultAfter: 4,
	})
	rc, err := fs.Open("a.csv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(rc); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want injected fault", err)
	}
	rc.Close()
	if !opened.closed {
		t.Fatal("FS.Open's faulted reader did not close the underlying file")
	}
}

func TestTruncated(t *testing.T) {
	got, err := io.ReadAll(Truncated(strings.NewReader("0123456789"), 7))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "0123456" {
		t.Fatalf("got %q", got)
	}
}

func TestFlipReaderFlipsExactlyOneByte(t *testing.T) {
	src := bytes.Repeat([]byte{0x00}, 64)
	fr := &FlipReader{R: bytes.NewReader(src), Offset: 41, Mask: 0x80}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		want := byte(0x00)
		if i == 41 {
			want = 0x80
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestFlipReaderAcrossSmallReads(t *testing.T) {
	// The flip must land correctly even when Reads straddle the offset.
	src := bytes.Repeat([]byte{0xFF}, 16)
	fr := &FlipReader{R: iotest{r: bytes.NewReader(src), chunk: 3}, Offset: 10, Mask: 0x01}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if got[10] != 0xFE {
		t.Fatalf("byte 10 = %#x, want 0xFE", got[10])
	}
}

// iotest caps each Read at chunk bytes.
type iotest struct {
	r     io.Reader
	chunk int
}

func (i iotest) Read(p []byte) (int, error) {
	if len(p) > i.chunk {
		p = p[:i.chunk]
	}
	return i.r.Read(p)
}

func TestPanicHandlerPanics(t *testing.T) {
	defer func() {
		if p := recover(); p != "kaboom" {
			t.Fatalf("recovered %v", p)
		}
	}()
	PanicHandler("kaboom").ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	t.Fatal("handler did not panic")
}

func TestSlowHandlerHonorsCancellation(t *testing.T) {
	h := SlowHandler(time.Hour, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("inner handler ran despite cancellation")
	}))
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SlowHandler ignored context cancellation")
	}
}
