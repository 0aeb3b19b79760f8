package pipeline

import (
	"errors"
	"flag"

	"repro/internal/core"
	"repro/internal/distsup"
	"repro/internal/retry"
)

// BuildFlags defines the build flags autodetect train and autodetectd
// share. A binary sets its defaults in the struct, registers the groups
// it reads, parses, and asks for Options, DirConfig and Retry.
type BuildFlags struct {
	// The count group: -workers -pairs -seed -sample.
	Workers, Pairs int
	Seed           int64
	Sample         int
	// The ingestion group: -max-bad-files -max-bad-frac -quarantine-dir -io-retries.
	MaxBadFiles   int
	MaxBadFrac    float64
	QuarantineDir string
	IORetries     int
}

// RegisterWorkers registers -workers alone, for a distributed-build worker.
func (f *BuildFlags) RegisterWorkers(fs *flag.FlagSet) {
	fs.IntVar(&f.Workers, "workers", f.Workers, "build parallelism: counting, merging and calibration")
}

// RegisterCount registers the count group.
func (f *BuildFlags) RegisterCount(fs *flag.FlagSet) {
	f.RegisterWorkers(fs)
	fs.IntVar(&f.Pairs, "pairs", f.Pairs, "distant-supervision pairs per class")
	fs.Int64Var(&f.Seed, "seed", f.Seed, "random seed for distant supervision and synthetic corpora")
	fs.IntVar(&f.Sample, "sample", f.Sample, "cap on the distant-supervision column sample (0 = keep every column in memory)")
}

// RegisterIngest registers the ingestion group.
func (f *BuildFlags) RegisterIngest(fs *flag.FlagSet) {
	fs.IntVar(&f.MaxBadFiles, "max-bad-files", f.MaxBadFiles, "quarantine up to N unreadable or unparseable table files instead of failing (directory training)")
	fs.Float64Var(&f.MaxBadFrac, "max-bad-frac", f.MaxBadFrac, "quarantine up to this fraction of table files instead of failing (directory training)")
	fs.StringVar(&f.QuarantineDir, "quarantine-dir", f.QuarantineDir, "directory for the quarantine manifest (quarantine.jsonl); empty writes none (directory training)")
	fs.IntVar(&f.IORetries, "io-retries", f.IORetries, "attempts per table file or database read for transient I/O errors; 1 disables retrying")
}

// Check rejects -io-retries 0: retry.Policy reads MaxAttempts <= 0 as
// "use the default", so it would quietly mean 3 attempts.
func (f *BuildFlags) Check() error {
	if f.IORetries < 1 {
		return errors.New("-io-retries must be >= 1 (1 disables retrying)")
	}
	return nil
}

// Options returns the count group's options over core.DefaultTrainConfig.
func (f *BuildFlags) Options() Options {
	train := core.DefaultTrainConfig()
	train.DistSup = distsup.DefaultConfig()
	train.DistSup.PositivePairs, train.DistSup.NegativePairs = f.Pairs, f.Pairs
	train.DistSup.Seed = f.Seed
	return Options{Workers: f.Workers, Train: train, SampleColumns: f.Sample}
}

// DirConfig returns the ingestion group's directory-source settings.
func (f *BuildFlags) DirConfig(hasHeader bool) DirConfig {
	return DirConfig{HasHeader: hasHeader, Retry: f.Retry(),
		MaxBadFiles: f.MaxBadFiles, MaxBadFrac: f.MaxBadFrac, QuarantineDir: f.QuarantineDir}
}

// Retry is the transient-I/O policy of -io-retries.
func (f *BuildFlags) Retry() retry.Policy { return retry.Policy{MaxAttempts: f.IORetries} }
