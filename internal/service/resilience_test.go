package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/resilience"
	"repro/internal/semantic"
)

// roundtrip clones a detector through Save/Load, yielding a distinct
// *core.Detector instance for swap tests.
func roundtrip(t *testing.T, det *core.Detector) *core.Detector {
	t.Helper()
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// brokenDetector builds a structurally valid detector whose statistics are
// nil, so any scoring attempt panics — the "detector blows up mid-request"
// fault.
func brokenDetector(t *testing.T) *core.Detector {
	t.Helper()
	det, err := core.NewDetector([]*core.Calibration{{Theta: -0.5, TargetPrecision: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestContentTypeEnforced(t *testing.T) {
	s := testServer(t)
	for _, ct := range []string{"", "text/plain", "application/xml", "application/json junk;;"} {
		req, err := http.NewRequest("POST", s.URL+"/v1/check-pair", strings.NewReader(`{"a":"x","b":"y"}`))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: status %d, want 415", ct, resp.StatusCode)
		}
	}
	// Parameters on the right media type are fine.
	req, _ := http.NewRequest("POST", s.URL+"/v1/check-pair", strings.NewReader(`{"a":"2011-01-01","b":"2011/01/01"}`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("application/json with charset: status %d", resp.StatusCode)
	}
}

func TestBodyCapReturns413(t *testing.T) {
	det, sem := trainedModel(t)
	svc := New(det, sem)
	svc.MaxBodyBytes = 256
	s := httptest.NewServer(svc.Handler())
	defer s.Close()

	big := fmt.Sprintf(`{"values": [%q]}`, strings.Repeat("x", 4096))
	resp, err := http.Post(s.URL+"/v1/check-column", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	resp, _ = postJSON(t, s.URL+"/v1/check-pair", map[string]string{"a": "1", "b": "2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after cap: status %d", resp.StatusCode)
	}
}

func TestPanicRecoveryKeepsServing(t *testing.T) {
	svc := New(brokenDetector(t), nil)
	s := httptest.NewServer(svc.Handler())
	defer s.Close()

	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, s.URL+"/v1/check-column", map[string]any{
			"values": []string{"a", "b", "c"},
		})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500 (body %s)", i, resp.StatusCode, body)
		}
		if resp.Header.Get(resilience.HeaderRequestID) == "" {
			t.Error("500 response missing X-Request-Id header")
		}
		var e struct {
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.RequestID == "" {
			t.Errorf("500 body missing request_id: %s", body)
		}
	}

	// The process survived: probes still answer.
	resp, err := http.Get(s.URL + "/v1/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("livez after panics: status %d", resp.StatusCode)
	}
}

func TestProbesAndNotReady(t *testing.T) {
	svc := New(nil, nil) // no model yet
	s := httptest.NewServer(svc.Handler())
	defer s.Close()

	get := func(path string) int {
		resp, err := http.Get(s.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/v1/livez"); got != http.StatusOK {
		t.Errorf("livez = %d", got)
	}
	if got := get("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz before model = %d", got)
	}
	if got := get("/v1/health"); got != http.StatusServiceUnavailable {
		t.Errorf("health before model = %d", got)
	}
	if resp, _ := postJSON(t, s.URL+"/v1/check-pair", map[string]string{"a": "1", "b": "2"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("check-pair before model = %d", resp.StatusCode)
	}

	det, sem := trainedModel(t)
	if err := svc.Swap(det, sem); err != nil {
		t.Fatal(err)
	}
	if got := get("/v1/readyz"); got != http.StatusOK {
		t.Errorf("readyz after swap = %d", got)
	}
	if resp, _ := postJSON(t, s.URL+"/v1/check-pair", map[string]string{"a": "2011-01-01", "b": "2011/01/01"}); resp.StatusCode != http.StatusOK {
		t.Errorf("check-pair after swap = %d", resp.StatusCode)
	}

	if err := svc.Swap(nil, nil); err == nil {
		t.Error("Swap accepted a nil detector")
	}
}

func TestConcurrencyLimitSheds429(t *testing.T) {
	det, sem := trainedModel(t)
	svc := New(det, sem)
	svc.MaxInFlight = 1
	svc.RequestTimeout = 30 * time.Second
	s := httptest.NewServer(svc.Handler())
	defer s.Close()

	// Hold the single slot with a request whose body never finishes.
	pr, pw := io.Pipe()
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(s.URL+"/v1/check-pair", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	if _, err := pw.Write([]byte(`{"a":"x",`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the partial body reach the handler

	resp, err := http.Get(s.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After")
	}

	// Probes bypass the limiter even under full load.
	resp, err = http.Get(s.URL + "/v1/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("livez under load: status %d", resp.StatusCode)
	}

	// Finish the held request and confirm the slot frees up.
	if _, err := pw.Write([]byte(`"b":"y"}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(s.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
}

func TestRequestTimeoutReturns504(t *testing.T) {
	det, sem := trainedModel(t)
	svc := New(det, sem)
	svc.RequestTimeout = 100 * time.Millisecond
	s := httptest.NewServer(svc.Handler())
	defer s.Close()

	// A slow-loris body: one byte every 50ms keeps the handler blocked in
	// Decode well past the 100ms deadline, while still finishing the
	// client's body write in bounded time.
	body := &faultfs.SlowReader{
		R:     strings.NewReader(`{"a":"2011-01-01","b":"2011/01/01"}`),
		Delay: 50 * time.Millisecond,
		Chunk: 1,
	}
	resp, err := http.Post(s.URL+"/v1/check-pair", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestAdminReload(t *testing.T) {
	det, sem := trainedModel(t)

	// Without a hook the endpoint is explicitly unimplemented.
	svc := New(det, sem)
	s := httptest.NewServer(svc.Handler())
	resp, _ := postJSON(t, s.URL+"/v1/admin/reload", nil)
	s.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without hook: status %d, want 501", resp.StatusCode)
	}

	// With a hook the model is swapped and summarized.
	reloaded := roundtrip(t, det)
	svc = New(det, sem)
	svc.Reload = func() (*core.Detector, *semantic.Model, ModelInfo, error) {
		return reloaded, nil, ModelInfo{Source: "test"}, nil
	}
	s = httptest.NewServer(svc.Handler())
	defer s.Close()
	resp, body := postJSON(t, s.URL+"/v1/admin/reload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", resp.StatusCode, body)
	}
	var h struct {
		Status    string `json:"status"`
		Languages int    `json:"languages"`
		Semantic  bool   `json:"semantic"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "reloaded" || h.Languages == 0 || h.Semantic {
		t.Errorf("reload summary = %+v", h)
	}
	if svc.snapshot().det != reloaded {
		t.Error("reload did not swap the detector")
	}

	// A failing hook keeps the old model.
	svc.Reload = func() (*core.Detector, *semantic.Model, ModelInfo, error) {
		return nil, nil, ModelInfo{}, fmt.Errorf("disk on fire")
	}
	resp, _ = postJSON(t, s.URL+"/v1/admin/reload", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("failing reload: status %d, want 500", resp.StatusCode)
	}
	if svc.snapshot().det != reloaded {
		t.Error("failing reload replaced the model")
	}
}

// TestCorruptedModelNeverServes feeds the model bytes through every
// fault-injection reader and proves core.Load rejects each with
// ErrCorruptModel — a corrupted file can never become the serving model.
func TestCorruptedModelNeverServes(t *testing.T) {
	det, _ := trainedModel(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	faults := map[string]io.Reader{
		"truncated-half":    faultfs.Truncated(bytes.NewReader(valid), int64(len(valid)/2)),
		"truncated-1-short": faultfs.Truncated(bytes.NewReader(valid), int64(len(valid)-1)),
		"flaky-io":          &faultfs.FlakyReader{R: bytes.NewReader(valid), After: int64(len(valid) / 3)},
		"bit-flip-payload":  &faultfs.FlipReader{R: bytes.NewReader(valid), Offset: int64(len(valid) / 2), Mask: 0x40},
		"bit-flip-trailer":  &faultfs.FlipReader{R: bytes.NewReader(valid), Offset: int64(len(valid) - 1), Mask: 0x01},
	}
	for name, r := range faults {
		if _, err := core.Load(r); !errors.Is(err, core.ErrCorruptModel) {
			t.Errorf("%s: Load returned %v, want ErrCorruptModel", name, err)
		}
	}

	// The intact stream still loads and can be swapped in.
	back, err := core.Load(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if err := New(det, nil).Swap(back, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHotReloadUnderLoad drives 64 concurrent clients through check-pair
// and check-column while the model is swapped repeatedly. Every request
// must complete successfully against either the old or the new model; run
// with -race to prove the swap is data-race free.
func TestHotReloadUnderLoad(t *testing.T) {
	det, sem := trainedModel(t)
	detB := roundtrip(t, det)
	svc := New(det, sem)
	s := httptest.NewServer(svc.Handler())
	defer s.Close()

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan string, clients*8)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var resp *http.Response
				var body []byte
				if c%2 == 0 {
					resp, body = postJSON(t, s.URL+"/v1/check-pair",
						map[string]string{"a": "2011-01-01", "b": "2011/01/01"})
				} else {
					resp, body = postJSON(t, s.URL+"/v1/check-column",
						map[string]any{"values": []string{"2011-01-01", "2012-05-14", "2011/06/20"}})
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("client %d req %d: status %d (%s)", c, i, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		models := [2]*core.Detector{det, detB}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := svc.Swap(models[i%2], sem); err != nil {
				errs <- "swap: " + err.Error()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	swapper.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
