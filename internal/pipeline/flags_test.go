package pipeline

import (
	"flag"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/distsup"
	"repro/internal/retry"
)

// parseBuildFlags registers both groups over f's defaults and parses args.
func parseBuildFlags(t *testing.T, f BuildFlags, args ...string) (BuildFlags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.RegisterCount(fs)
	f.RegisterIngest(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, fs
}

// TestBuildFlagsKeepEachBinarysDefaults builds Options and DirConfig the
// way each binary did before the flags were shared, and requires the
// shared type to produce the same values from each binary's defaults and
// from the CI reference build's flags.
func TestBuildFlagsKeepEachBinarysDefaults(t *testing.T) {
	legacy := func(workers, pairs int, seed int64, sample int) Options {
		tc := core.DefaultTrainConfig()
		ds := distsup.DefaultConfig()
		ds.PositivePairs, ds.NegativePairs = pairs, pairs
		ds.Seed = seed
		tc.DistSup = ds
		return Options{Workers: workers, Train: tc, SampleColumns: sample}
	}
	n := runtime.NumCPU()
	for _, tc := range []struct {
		name     string
		defaults BuildFlags
		args     []string
		want     Options
		defVals  map[string]string
	}{
		{"autodetect train", BuildFlags{Workers: n, Pairs: 20000, Seed: 1, IORetries: 3}, nil,
			legacy(n, 20000, 1, 0), map[string]string{"pairs": "20000", "sample": "0", "seed": "1", "io-retries": "3"}},
		{"autodetectd", BuildFlags{Workers: n, Pairs: 10000, Seed: 1, Sample: 100000, IORetries: 3}, nil,
			legacy(n, 10000, 1, 100000), map[string]string{"pairs": "10000", "sample": "100000", "max-bad-files": "0", "quarantine-dir": ""}},
		{"CI reference build", BuildFlags{Workers: n, Pairs: 20000, Seed: 1, IORetries: 3},
			strings.Fields("-pairs 4000 -seed 1 -sample 100000"), legacy(n, 4000, 1, 100000), nil},
	} {
		f, fs := parseBuildFlags(t, tc.defaults, tc.args...)
		if got := f.Options(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Options = %+v, want %+v", tc.name, got, tc.want)
		}
		for name, want := range tc.defVals {
			if got := fs.Lookup(name).DefValue; got != want {
				t.Errorf("%s: -%s default %q, want %q", tc.name, name, got, want)
			}
		}
		wantDir := DirConfig{HasHeader: true, Retry: retry.Policy{MaxAttempts: 3}}
		if got := f.DirConfig(true); !reflect.DeepEqual(got, wantDir) {
			t.Errorf("%s: DirConfig = %+v, want %+v", tc.name, got, wantDir)
		}
		if err := f.Check(); err != nil {
			t.Errorf("%s: defaults rejected: %v", tc.name, err)
		}
	}
}

func TestBuildFlagsIngestion(t *testing.T) {
	f, _ := parseBuildFlags(t, BuildFlags{IORetries: 3},
		"-max-bad-files", "2", "-max-bad-frac", "0.25", "-quarantine-dir", "q", "-io-retries", "1")
	want := DirConfig{HasHeader: false, MaxBadFiles: 2, MaxBadFrac: 0.25, QuarantineDir: "q", Retry: retry.Policy{MaxAttempts: 1}}
	if got := f.DirConfig(false); !reflect.DeepEqual(got, want) {
		t.Errorf("DirConfig = %+v, want %+v", got, want)
	}
	if err := f.Check(); err != nil {
		t.Errorf("-io-retries 1 rejected: %v", err)
	}
	f, _ = parseBuildFlags(t, BuildFlags{IORetries: 3}, "-io-retries", "0")
	if err := f.Check(); err == nil || !strings.Contains(err.Error(), "-io-retries must be >= 1") {
		t.Errorf("-io-retries 0: Check = %v, want the >= 1 error", err)
	}
}
