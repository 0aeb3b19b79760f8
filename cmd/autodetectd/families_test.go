package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/distbuild"
	"repro/internal/registry"
)

// TestDaemonProcess is the child half of TestMetricFamiliesPerMode, which
// re-executes the test binary as "-test.run=^TestDaemonProcess$ -- ARGS"
// to run the daemon with ARGS in its own process. Run without ARGS it
// does nothing.
func TestDaemonProcess(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"autodetectd"}, flag.Args()...)
	main()
}

// TestMetricFamiliesPerMode pins the full set of metric families each
// HTTP daemon mode exports: it starts the daemon in a child process,
// sends one request, scrapes /metrics and compares the sorted "# TYPE"
// lines with testdata/metric-families-<mode>.txt.
func TestMetricFamiliesPerMode(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon process per mode")
	}
	trainDir := t.TempDir()
	cols := corpus.Generate(corpus.WebProfile(), 200, 3).Columns
	for i := 0; i < len(cols); i += 50 {
		var buf bytes.Buffer
		if err := corpus.WriteCSV(&buf, cols[i:i+50]); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(trainDir, fmt.Sprintf("t%d.csv", i/50)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The replica's registry has nothing published: every poll is a 404.
	emptyRegistry := httptest.NewServer(http.NotFoundHandler())
	defer emptyRegistry.Close()

	for _, tc := range []struct {
		mode    string
		args    []string
		request func(base string) (*http.Response, error)
	}{
		{"serve", []string{
			"-train", "-columns", "200", "-pairs", "300", "-workers", "1",
			"-jobs-dir", t.TempDir(), "-registry-url", emptyRegistry.URL,
		}, func(base string) (*http.Response, error) {
			return http.Post(base+"/v1/check-column", "application/json",
				strings.NewReader(`{"values":["2011-01-02","2012-03-04","2013-05-06","Jan 7 2014"]}`))
		}},
		{"registry", []string{
			"-registry-serve", "-registry-dir", t.TempDir(),
		}, func(base string) (*http.Response, error) {
			return http.Get(base + registry.PathModels)
		}},
		{"build-coordinator", []string{
			"-build-coordinator", "-train-dir", trainDir, "-build-state", t.TempDir(),
			"-build-out", filepath.Join(t.TempDir(), "model.bin"), "-workers", "1",
		}, func(base string) (*http.Response, error) {
			return http.Get(base + distbuild.PathStatus)
		}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			base := startDaemon(t, tc.args)
			resp, err := tc.request(base)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request = %d, want 200", resp.StatusCode)
			}
			resp, err = http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.HasPrefix(line, "# TYPE ") {
					got = append(got, line)
				}
			}
			sort.Strings(got)
			gotText := strings.Join(got, "\n") + "\n"
			golden := filepath.Join("testdata", "metric-families-"+tc.mode+".txt")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if gotText != string(want) {
				t.Errorf("%s exports a different family set than %s; got:\n%s", tc.mode, golden, gotText)
			}
		})
	}
}

// startDaemon runs the daemon with args on a free loopback port in a
// child process, waits until /v1/livez answers, and returns its base URL.
// Cleanup stops it with SIGTERM.
func startDaemon(t *testing.T, args []string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var logs bytes.Buffer
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestDaemonProcess$", "--",
		"-addr", addr, "-drain-timeout", "1s", "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
	})
	base := "http://" + addr
	deadline := time.Now().Add(2 * time.Minute)
	for {
		select {
		case <-exited:
			t.Fatalf("daemon exited before answering /v1/livez:\n%s", logs.String())
		default:
		}
		if resp, err := http.Get(base + "/v1/livez"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-exited
			t.Fatalf("daemon did not answer /v1/livez within 2m:\n%s", logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
