package resilience

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
}

func TestChainOrder(t *testing.T) {
	var order []string
	mw := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(mw("outer"), mw("inner"))(okHandler())
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestRequestIDGeneratedAndPropagated(t *testing.T) {
	var seen string
	h := RequestID()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if seen == "" {
		t.Fatal("no request ID generated")
	}
	if got := rec.Header().Get(HeaderRequestID); got != seen {
		t.Fatalf("response header %q, context %q", got, seen)
	}

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(HeaderRequestID, "client-chosen-42")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "client-chosen-42" || rec.Header().Get(HeaderRequestID) != "client-chosen-42" {
		t.Fatalf("client ID not propagated: context %q header %q", seen, rec.Header().Get(HeaderRequestID))
	}

	// Oversized client IDs are replaced, not trusted.
	req = httptest.NewRequest("GET", "/", nil)
	req.Header.Set(HeaderRequestID, strings.Repeat("x", 300))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if len(seen) > 128 {
		t.Fatalf("oversized client ID accepted: %d bytes", len(seen))
	}
}

func TestRecoverTurnsPanicInto500(t *testing.T) {
	var logged bool
	h := Chain(
		RequestID(),
		Recover(func(string, ...any) { logged = true }),
	)(faultfs.PanicHandler("detector exploded"))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/check-column", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID == "" {
		t.Error("500 body missing request_id")
	}
	if !logged {
		t.Error("panic not logged")
	}
}

func TestRecoverSurvivesRepeatedPanics(t *testing.T) {
	// The real server must keep serving after a panic; exercise through a
	// live httptest server rather than a recorder.
	s := httptest.NewServer(Chain(RequestID(), Recover(nil))(faultfs.PanicHandler("boom")))
	defer s.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(s.URL)
		if err != nil {
			t.Fatalf("request %d: server died: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
}

func TestMaxBytesCapsBody(t *testing.T) {
	h := MaxBytes(16)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			var mbe *http.MaxBytesError
			if !errors.As(err, &mbe) {
				t.Errorf("unexpected error type: %v", err)
			}
			w.WriteHeader(http.StatusRequestEntityTooLarge)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", 64))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/", strings.NewReader("small")))
	if rec.Code != http.StatusOK {
		t.Fatalf("small body status %d", rec.Code)
	}
}

func TestLimitSheds429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	s := httptest.NewServer(Chain(RequestID(), Limit(1, 2*time.Second))(blocked))
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(s.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the single slot is now held

	resp, err := http.Get(s.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if id := resp.Header.Get(HeaderRequestID); id == "" {
		t.Error("429 missing request ID")
	}
	close(release)
	wg.Wait()

	// Slot released: the next request is admitted (release is closed, so
	// the handler no longer blocks after announcing entry).
	go func() { <-entered }()
	resp2, err := http.Get(s.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d", resp2.StatusCode)
	}
}

func TestTimeoutReturns504(t *testing.T) {
	h := Chain(
		RequestID(),
		Recover(nil),
		Timeout(30*time.Millisecond),
	)(faultfs.SlowHandler(5*time.Second, okHandler()))
	s := httptest.NewServer(h)
	defer s.Close()

	start := time.Now()
	resp, err := http.Get(s.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %s", elapsed)
	}
}

// A slow-loris client that never finishes sending its body must still
// receive the 504 at the deadline. The abandoned handler goroutine stays
// blocked in Body.Read holding the server's request-body mutex, which
// would stall the response flush forever if Timeout did not also bound
// the connection read.
func TestTimeoutRespondsDespiteSlowLorisBody(t *testing.T) {
	h := Chain(
		RequestID(),
		Recover(nil),
		Timeout(200*time.Millisecond),
	)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		io.WriteString(w, "done")
	}))
	s := httptest.NewServer(h)
	defer s.Close()

	conn, err := net.Dial("tcp", s.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = io.WriteString(conn,
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\npartial")
	if err != nil {
		t.Fatal(err)
	}
	// Send nothing more: the body stays 993 bytes short forever.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no response within 5s of a held-open body: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("504 took %s to arrive", elapsed)
	}
	if !strings.HasPrefix(string(buf[:n]), "HTTP/1.1 504") {
		t.Fatalf("got %q, want a 504 status line", buf[:n])
	}
}

func TestTimeoutPassesFastResponses(t *testing.T) {
	h := Timeout(time.Second)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "fast")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "fast" || rec.Header().Get("X-Custom") != "yes" {
		t.Fatalf("response mangled: %d %q", rec.Code, rec.Body.String())
	}
}

func TestTimeoutPropagatesPanicToRecover(t *testing.T) {
	h := Chain(
		RequestID(),
		Recover(nil),
		Timeout(time.Second),
	)(faultfs.PanicHandler("inside timeout"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
}

func TestDisabledMiddlewareAreNoOps(t *testing.T) {
	h := Chain(MaxBytes(0), Limit(0, time.Second), Timeout(0))(okHandler())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok" {
		t.Fatalf("disabled chain broke the handler: %d %q", rec.Code, rec.Body.String())
	}
}
