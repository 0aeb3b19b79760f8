package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

// shellArgs splits a shell command line into the arguments its first word
// receives: continuation lines join, quotes are stripped, and the words
// from the first redirection or "&" on are dropped.
func shellArgs(line string) []string {
	var args []string
	var word strings.Builder
	inWord, quote := false, rune(0)
	flush := func() {
		if inWord {
			args = append(args, word.String())
		}
		word.Reset()
		inWord = false
	}
	for _, r := range strings.ReplaceAll(line, "\\\n", " ") {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t' || r == '\n':
			flush()
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	flush()
	for i, a := range args {
		if a == "&" || strings.HasPrefix(a, ">") || strings.HasPrefix(a, "2>") {
			args = args[:i]
			break
		}
	}
	return args[1:]
}

// TestDocumentedCommandLinesSelectTheirMode parses every autodetectd
// command line of the CI workflow and README, as written there.
func TestDocumentedCommandLinesSelectTheirMode(t *testing.T) {
	for _, tc := range []struct{ line, mode string }{
		// .github/workflows/ci.yml
		{`./autodetectd -build-coordinator -train-dir tables -build-state state \
            -build-partitions 6 -build-out dist.bin -build-summary distbuild-summary.json \
            -lease-ttl 5s -addr 127.0.0.1:18090 -pairs 4000 -seed 1 -sample 100000 \
            -log-format json >coord.log 2>&1 &`, modeCoordinator},
		{`./autodetectd -build-worker http://127.0.0.1:18090 -train-dir tables >worker1.log 2>&1 &`, modeWorker},
		{`./autodetectd -build-worker http://127.0.0.1:18090 -train-dir tables >worker2.log 2>&1 &`, modeWorker},
		{`./autodetectd -train -columns 3000 -pairs 2500 -addr 127.0.0.1:18080 \
            -trace-debug -log-format json >daemon.log 2>&1 &`, modeServe},
		{`./autodetectd -train -columns 3000 -pairs 2500 -addr 127.0.0.1:18081 \
            -jobs-dir jobs-data -job-workers 2 -log-format json >daemon.log 2>&1 &`, modeServe},
		{`./autodetectd -train-dsn "$PWD/traindb" -pairs 1500 -sample 60000 \
            -addr 127.0.0.1:18095 -jobs-dir jobs-data -job-workers 2 -db-audit \
            -log-format json >daemon.log 2>&1 &`, modeServe},
		{`./autodetectd -registry-serve -registry-dir registry-data \
            -addr 127.0.0.1:18110 -log-format json >registry.log 2>&1 &`, modeRegistry},
		{`./autodetectd -registry-url http://127.0.0.1:18110 -registry-poll 1s \
            -addr 127.0.0.1:18111 -log-format json >replica1.log 2>&1 &`, modeServe},
		{`./autodetectd -registry-url http://127.0.0.1:18110 -registry-poll 1s \
            -addr 127.0.0.1:18112 -log-format json >replica2.log 2>&1 &`, modeServe},
		{`./autodetectd -build-coordinator -train-dir tables -build-state state \
            -build-partitions 4 -build-out dist.bin -lease-ttl 10s -addr 127.0.0.1:18113 \
            -pairs 3000 -seed 1 -sample 80000 -registry-url http://127.0.0.1:18110 \
            -log-format json >coord.log 2>&1 &`, modeCoordinator},
		{`./autodetectd -build-worker http://127.0.0.1:18113 -train-dir tables >worker.log 2>&1`, modeWorker},
		// README.md
		{`autodetectd -train -addr :8080`, modeServe},
		{`autodetectd -train-dir tables/`, modeServe},
		{`autodetectd -build-coordinator -train-dir tables/ -build-state state/ \
    -build-partitions 64 -build-out model.bin -addr :9090`, modeCoordinator},
		{`autodetectd -build-worker http://coordinator:9090 -train-dir tables/`, modeWorker},
		{`autodetectd -registry-serve -registry-dir /var/lib/autodetect/registry -addr :8090`, modeRegistry},
		{`autodetectd -registry-url http://registry:8090 -registry-poll 5s -addr :8080`, modeServe},
		{`autodetectd -build-coordinator -train-dir tables/ -build-state state/ \
    -build-out model.bin -registry-url http://registry:8090`, modeCoordinator},
		{`autodetectd -model model.bin -addr :8080 \
    -max-inflight 256 -request-timeout 30s -max-body-bytes 8388608`, modeServe},
		{`autodetectd -model model.bin -addr :8080 \
    -jobs-dir /var/lib/autodetect/jobs -job-workers 2 \
    -max-queued-jobs 64 -job-timeout 0`, modeServe},
		{`autodetectd -train-dsn 'postgres://ro:pw@db:5432/warehouse?sslmode=require' \
    -train-driver postgres \
    -jobs-dir /var/lib/autodetect/jobs -db-audit`, modeServe},
	} {
		args := shellArgs(tc.line)
		var out bytes.Buffer
		c, err := parseArgs(args, &out)
		if err != nil {
			t.Errorf("%q: %v\n%s", args, err, out.String())
			continue
		}
		if c.mode != tc.mode {
			t.Errorf("%q selects %s, want %s", args, c.mode, tc.mode)
		}
	}
}

func TestModeFlagForms(t *testing.T) {
	for _, args := range [][]string{
		{"-build-worker=http://c:9090", "-train-dir", "t"},
		{"--build-worker", "http://c:9090", "-train-dir", "t"},
		{"--build-worker=http://c:9090", "--train-dir=t"},
	} {
		c, err := parseArgs(args, io.Discard)
		if err != nil || c.mode != modeWorker || c.worker.Coordinator != "http://c:9090" || c.worker.Dir != "t" {
			t.Errorf("%q: %+v, %v; want worker mode against http://c:9090", args, c, err)
		}
	}
	for _, args := range [][]string{
		{"--registry-serve", "-registry-dir", "r"},
		{"-registry-serve=true", "-registry-dir", "r"},
	} {
		if c, err := parseArgs(args, io.Discard); err != nil || c.mode != modeRegistry {
			t.Errorf("%q: %+v, %v; want registry mode", args, c, err)
		}
	}
}

// TestRejectedCommandLines covers two mode flags together, a flag of
// another mode in each mode, and the checks every mode makes after parsing.
func TestRejectedCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-build-coordinator", "-build-worker", "http://c", "-train-dir", "t"}, "-build-coordinator and -build-worker are mutually exclusive"},
		{[]string{"-registry-serve", "-build-coordinator", "-registry-dir", "r"}, "-registry-serve and the build modes are mutually exclusive"},
		{[]string{"-registry-serve", "-build-worker=http://c"}, "-registry-serve and the build modes are mutually exclusive"},

		{[]string{"-build-worker", "http://c", "-train-dir", "t", "-jobs-dir", "j"}, "flag provided but not defined: -jobs-dir"},
		{[]string{"-build-worker", "http://c", "-train-dir", "t", "-pairs", "4000"}, "flag provided but not defined: -pairs"},
		{[]string{"-build-coordinator", "-train-dir", "t", "-build-state", "s", "-max-bad-files", "3"}, "flag provided but not defined: -max-bad-files"},
		{[]string{"-build-coordinator", "-train-dir", "t", "-build-state", "s", "-max-inflight", "8"}, "flag provided but not defined: -max-inflight"},
		{[]string{"-registry-serve", "-registry-dir", "r", "-model", "m.bin"}, "flag provided but not defined: -model"},
		{[]string{"-model", "m.bin", "-lease-ttl", "5s"}, "flag provided but not defined: -lease-ttl"},
		{[]string{"-model", "m.bin", "-build-coordinator=false"}, "flag provided but not defined: -build-coordinator"},

		{[]string{"-build-coordinator", "-train-dir", "t"}, "-build-coordinator needs -build-state"},
		{[]string{"-build-worker", "http://c"}, "-build-worker needs -train-dir"},
		{[]string{"-registry-serve"}, "-registry-serve needs -registry-dir"},
		{[]string{"-addr", ":1"}, "need -model, -train-dir, -train-dsn, -train or -registry-url"},
		{[]string{"-model", "m.bin", "-io-retries", "0"}, "-io-retries must be >= 1"},
		{[]string{"-model", "m.bin", "-log-level", "loud"}, `invalid value "loud" for flag -log-level`},
		{[]string{"-registry-serve", "-registry-dir", "r", "-log-format", "xml"}, `bad -log-format "xml"`},
		{[]string{"-model", "m.bin", "extra"}, `unexpected argument "extra"`},
	} {
		var out bytes.Buffer
		c, err := parseArgs(tc.args, &out)
		if err == nil {
			t.Errorf("%q parsed as %s mode, want rejected", tc.args, c.mode)
			continue
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%q reported %q, want it to mention %q", tc.args, out.String(), tc.want)
		}
	}
}

// TestHelpListsOnlyTheModesFlags counts the flags each mode's -h prints.
func TestHelpListsOnlyTheModesFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		flags int
	}{
		{[]string{"-h"}, 34},
		{[]string{"-build-coordinator", "-h"}, 19},
		{[]string{"-build-worker", "http://c", "-h"}, 5},
		{[]string{"-registry-serve", "-h"}, 13},
	} {
		var out bytes.Buffer
		if _, err := parseArgs(tc.args, &out); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%q: err = %v, want flag.ErrHelp", tc.args, err)
		}
		if n := strings.Count(out.String(), "\n  -"); n != tc.flags {
			t.Errorf("%q lists %d flags, want %d:\n%s", tc.args, n, tc.flags, out.String())
		}
	}
}

// TestBuildFlagDefaults pins the daemon's training defaults; changing one
// changes the bytes of every model the daemon or a coordinator builds.
func TestBuildFlagDefaults(t *testing.T) {
	want := pipeline.BuildFlags{Workers: runtime.NumCPU(), Pairs: 10000, Seed: 1, Sample: 100000, IORetries: 3}
	for _, args := range [][]string{
		{"-model", "m.bin"},
		{"-build-coordinator", "-train-dir", "t", "-build-state", "s"},
	} {
		c, err := parseArgs(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if c.build != want {
			t.Errorf("%q: build flags %+v, want %+v", args, c.build, want)
		}
	}
}
