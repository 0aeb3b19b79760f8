package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultfs"
	"repro/internal/retry"
)

// killAfter wraps a DirSource and cancels the build's context once n
// columns have been requested, simulating a hard kill mid-count. It
// forwards the fault-tolerance wiring (context binding, quarantine stats)
// so Run treats it exactly like the underlying DirSource.
type killAfter struct {
	src    *DirSource
	n      int
	cancel context.CancelFunc
	count  int
}

func (k *killAfter) Next() (*corpus.Column, error) {
	k.count++
	if k.count == k.n {
		k.cancel()
	}
	return k.src.Next()
}

func (k *killAfter) Fingerprint() string             { return k.src.Fingerprint() }
func (k *killAfter) BindContext(ctx context.Context) { k.src.BindContext(ctx) }
func (k *killAfter) Quarantined() (uint64, uint64)   { return k.src.Quarantined() }
func (k *killAfter) Close() error                    { return k.src.Close() }

// chaosCorpusDir materializes a generated corpus as a directory of CSV
// shards so the chaos run exercises the real file-reading path.
func chaosCorpusDir(t *testing.T, numColumns, perFile int, seed int64) (string, int) {
	t.Helper()
	dir := t.TempDir()
	c := corpus.Generate(corpus.WebProfile(), numColumns, seed)
	n := 0
	for i := 0; i < len(c.Columns); i += perFile {
		end := i + perFile
		if end > len(c.Columns) {
			end = len(c.Columns)
		}
		var buf bytes.Buffer
		if err := corpus.WriteCSV(&buf, c.Columns[i:end]); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("shard-%04d.csv", n)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	return dir, n
}

// chaosTally counts what the chaos run injected and survived.
type chaosTally struct {
	Runs, Kills, Resumes             int
	TornShards, CorruptShardsSkipped int
	TransientFaults, IORetries       uint64
}

// TestChaosKillResume is the end-to-end fault-tolerance property: a build
// over a faulty filesystem — transient open and mid-read failures on every
// run, a hard kill per cycle, and a torn (half-written) newest checkpoint
// after each kill — must converge, after >= cycles forced kill/resume
// cycles at transient fault rate faultRate, to a model byte-identical to a
// clean single-shot build over the same directory.
func TestChaosKillResume(t *testing.T) {
	const (
		numColumns = 480
		perFile    = 8
		ckptEvery  = 60
		cycles     = 4
		faultRate  = 0.6
	)
	dir, _ := chaosCorpusDir(t, numColumns, perFile, 101)
	cfg := testTrainConfig()
	baseOpts := Options{
		Workers:         3,
		Train:           cfg,
		SampleColumns:   120,
		CheckpointEvery: ckptEvery,
	}

	// Clean single-shot reference over the same directory, no faults.
	cleanSrc, err := NewDirSource(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	cleanOpts := baseOpts
	cleanOpts.CheckpointDir = t.TempDir()
	clean, err := Run(context.Background(), cleanSrc, cleanOpts)
	if err != nil {
		t.Fatalf("clean reference build: %v", err)
	}
	var wantModel bytes.Buffer
	if err := clean.Detector.Save(&wantModel); err != nil {
		t.Fatal(err)
	}

	// Chaos build: every run sees a fresh fault schedule (new seed), each of
	// the first `cycles` runs is killed mid-count, and after every kill the
	// newest checkpoint shard is torn in half to simulate a crash mid-write.
	var sum chaosTally
	ckdir := t.TempDir()
	opts := baseOpts
	opts.CheckpointDir = ckdir
	// Kill points spaced so every cycle makes progress past at least one
	// checkpoint boundary beyond the previous cycle's.
	step := numColumns / (cycles + 1)
	if step <= ckptEvery {
		step = ckptEvery + ckptEvery/2
	}
	start := time.Now()
	var final *Result
	for run := 0; ; run++ {
		fs := faultfs.New(faultfs.Config{
			Seed:           uint64(7000 + run),
			TransientRate:  faultRate,
			RecoverAfter:   2,
			ReadFault:      run%2 == 1, // alternate open faults and mid-read faults
			ReadFaultAfter: 256,
		})
		src, err := NewDirSourceWith(dir, DirConfig{
			HasHeader: true,
			Open:      fs.Open,
			Retry:     retry.Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		killAt := (run + 1) * step
		if run >= cycles {
			killAt = 1 << 30 // final run: let it finish
		}
		res, err := Run(ctx, &killAfter{src: src, n: killAt, cancel: cancel}, opts)
		cancel()
		sum.Runs++
		sum.TransientFaults += fs.TransientInjected()
		sum.IORetries += src.retries
		if run > 0 {
			sum.Resumes++
			if err == nil && res.ResumedColumns == 0 {
				t.Errorf("run %d resumed nothing despite prior checkpoints", run)
			}
		}
		if err == nil {
			sum.CorruptShardsSkipped += res.CorruptCheckpointsSkipped
			final = res
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("chaos run %d died with a non-kill error: %v", run, err)
		}
		sum.Kills++
		if res != nil {
			sum.CorruptShardsSkipped += res.CorruptCheckpointsSkipped
		}
		if run >= cycles {
			t.Fatalf("final chaos run was killed (killAt=%d), harness bug", killAt)
		}
		// Crash mid-checkpoint-write: tear the newest shard in half. The
		// next run must fall back to the previous shard, not die.
		if shards := listCheckpoints(ckdir); len(shards) >= 2 {
			newest := shards[len(shards)-1]
			fi, err := os.Stat(newest)
			if err != nil {
				t.Fatal(err)
			}
			if err := faultfs.Tear(newest, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
			sum.TornShards++
		}
	}
	elapsed := time.Since(start)

	if sum.Kills < cycles {
		t.Errorf("forced %d kills, want >= %d", sum.Kills, cycles)
	}
	if sum.Resumes < cycles {
		t.Errorf("observed %d resumes, want >= %d", sum.Resumes, cycles)
	}
	if sum.TornShards == 0 {
		t.Error("no checkpoint shard was ever torn; the fallback path went unexercised")
	}
	if sum.CorruptShardsSkipped == 0 {
		t.Error("no corrupt shard was skipped on resume; torn writes were not detected")
	}
	if sum.TransientFaults == 0 {
		t.Error("fault injection produced no transient faults")
	}
	if final.Columns != uint64(numColumns) {
		t.Errorf("chaos build covered %d columns, want %d", final.Columns, numColumns)
	}
	if files, cols := final.FilesSkipped, final.ColumnsQuarantined; files != 0 || cols != 0 {
		t.Errorf("chaos build quarantined (%d files, %d columns); transient faults must all be retried away", files, cols)
	}

	var gotModel bytes.Buffer
	if err := final.Detector.Save(&gotModel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotModel.Bytes(), wantModel.Bytes()) {
		t.Error("model after chaos kill/resume cycles differs from the clean single-shot build")
	}
	t.Logf("chaos: %d runs, %d kills, %d resumes, %d torn shards, %d corrupt skipped, %d transient faults, %d retries, %.2fs",
		sum.Runs, sum.Kills, sum.Resumes, sum.TornShards, sum.CorruptShardsSkipped,
		sum.TransientFaults, sum.IORetries, elapsed.Seconds())
}
