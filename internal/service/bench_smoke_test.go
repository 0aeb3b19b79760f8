package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

func quantileMillis(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// TestServingSmoke drives /v1/check-column through the full middleware
// chain and asserts the key metric families are exported after real
// traffic. Latency is logged only; bench/'s serve-narrow workload
// measures it.
func TestServingSmoke(t *testing.T) {
	det, sem := trainedModel(t)
	svc := New(det, sem)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	payload := map[string]any{"values": []string{
		"2011-01-01", "2012-05-14", "2013-11-30", "2014-02-02",
		"2015-08-19", "2016-03-03", "2017/06/20", "2018-12-25",
	}}
	const requests = 200
	lat := make([]time.Duration, 0, requests)
	for i := 0; i < requests; i++ {
		start := time.Now()
		resp, _ := postJSON(t, ts.URL+"/v1/check-column", payload)
		lat = append(lat, time.Since(start))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	// The smoke doubles as a metrics regression gate: the families the
	// dashboards are built on must exist after real traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, fam := range []string{
		"autodetect_http_requests_total",
		"autodetect_http_request_seconds",
		"autodetect_span_seconds",
		"autodetect_model_loaded 1",
		"autodetect_detect_pairs_total",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing family %q after traffic", fam)
		}
	}
	t.Logf("p50=%.2fms p99=%.2fms max=%.2fms over %d requests",
		quantileMillis(lat, 0.50), quantileMillis(lat, 0.99), quantileMillis(lat, 1.0), requests)
}
