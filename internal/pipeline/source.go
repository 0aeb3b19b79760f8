package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/retry"
)

// A ColumnSource streams corpus columns one at a time, so the pipeline can
// train on collections far larger than memory. Sources are single-use: one
// Run consumes one source. Next returns io.EOF when the stream ends.
//
// Fingerprint identifies the source's content/configuration; it is stored
// in checkpoints so a resumed build refuses to continue over a different
// corpus than the one it started on.
type ColumnSource interface {
	Next() (*corpus.Column, error)
	Fingerprint() string
}

// SliceSource streams an in-memory column slice, so a corpus that is
// already in memory trains through the same pipeline as one on disk.
type SliceSource struct {
	cols []*corpus.Column
	pos  int
}

// NewSliceSource returns a source over the given columns.
func NewSliceSource(cols []*corpus.Column) *SliceSource {
	return &SliceSource{cols: cols}
}

// Next implements ColumnSource.
func (s *SliceSource) Next() (*corpus.Column, error) {
	if s.pos >= len(s.cols) {
		return nil, io.EOF
	}
	c := s.cols[s.pos]
	s.pos++
	return c, nil
}

// Fingerprint implements ColumnSource: a cheap shape hash (column count,
// value count, FNV over sampled values).
func (s *SliceSource) Fingerprint() string {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	mix := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= 1099511628211
		}
	}
	values := 0
	for i, col := range s.cols {
		values += len(col.Values)
		if i%97 == 0 && len(col.Values) > 0 {
			mix(col.Values[0])
		}
	}
	return fmt.Sprintf("slice:%d:%d:%016x", len(s.cols), values, h)
}

// GeneratedSource streams synthetic profile columns without materializing
// them, standing in for the paper's 100M-column web corpora.
type GeneratedSource struct {
	profile corpus.Profile
	n       int
	seed    int64
	stream  *corpus.Stream
}

// NewGeneratedSource streams n columns of the profile from the seed.
func NewGeneratedSource(p corpus.Profile, n int, seed int64) *GeneratedSource {
	return &GeneratedSource{profile: p, n: n, seed: seed, stream: corpus.NewStream(p, seed)}
}

// Next implements ColumnSource.
func (g *GeneratedSource) Next() (*corpus.Column, error) {
	if g.stream.Generated() >= uint64(g.n) {
		return nil, io.EOF
	}
	return g.stream.Next(), nil
}

// Fingerprint implements ColumnSource.
func (g *GeneratedSource) Fingerprint() string {
	// Weights in sorted order so the fingerprint is map-order independent.
	keys := make([]string, 0, len(g.profile.Weights))
	for k := range g.profile.Weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "gen:%s:%d:%d:%d-%d:%g:%v:", g.profile.Name, g.n, g.seed,
		g.profile.MinRows, g.profile.MaxRows, g.profile.ErrorRate, g.profile.Labeled)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%g,", k, g.profile.Weights[k])
	}
	return sb.String()
}

// ErrBudgetExhausted is returned (wrapped, with the tally) when a DirSource
// has quarantined more files/columns than its error budget allows. At that
// point the corpus is presumed systematically broken — wrong delimiter,
// wrong directory, dying disk — and aborting beats silently training on a
// sliver of the data.
var ErrBudgetExhausted = errors.New("pipeline: error budget exhausted")

// DirConfig parameterizes a fault-tolerant DirSource.
type DirConfig struct {
	// HasHeader marks the first row of each table as a header.
	HasHeader bool
	// Retry is the transient-I/O retry policy (zero value: retry.Policy
	// defaults — 3 attempts, 50ms base backoff capped at 2s).
	Retry retry.Policy
	// MaxBadFiles is the absolute error budget: how many files/columns may
	// be quarantined before the build aborts.
	MaxBadFiles int
	// MaxBadFrac is the fractional error budget, as a fraction of the
	// scanned file count. The effective budget is
	// max(MaxBadFiles, MaxBadFrac×files); with both zero any persistent
	// failure aborts the build (the pre-fault-tolerance behavior).
	MaxBadFrac float64
	// QuarantineDir, when set, receives quarantine.jsonl — one JSON line
	// per quarantined file or column (path, error, byte offset). On
	// construction an existing manifest is reloaded and its files are
	// pre-skipped, so a resumed build sees the identical column stream
	// even when the original failures were load-order dependent.
	QuarantineDir string
	// Open replaces os.Open — the injection point for the faultfs chaos
	// harness. Nil means the real filesystem.
	Open func(path string) (io.ReadCloser, error)
}

// maxColumnCells quarantines any single column larger than this many
// cells: a mega-column is almost always a parse artifact, and one of them
// can dominate the statistics of an entire shard.
const maxColumnCells = 1 << 22

// quarantineManifest is the file name written under DirConfig.QuarantineDir.
const quarantineManifest = "quarantine.jsonl"

// QuarantineEntry is one line of the quarantine manifest.
type QuarantineEntry struct {
	// Kind is "file" (whole table quarantined) or "column".
	Kind string `json:"kind"`
	// Path is the table path relative to the source root.
	Path string `json:"path"`
	// Column is the column index within the file (kind=column).
	Column int `json:"column"`
	// Name is the column name (kind=column).
	Name string `json:"name,omitempty"`
	// Error is the failure that caused the quarantine.
	Error string `json:"error"`
	// Offset is the byte offset of a parse failure, when known.
	Offset int64 `json:"offset,omitempty"`
}

// DirSource streams the columns of every CSV/TSV file under a directory
// (sorted by path for determinism), one file at a time — only a single
// table is ever resident. Hidden files and unknown extensions are skipped.
//
// Ingestion is fault-tolerant: transient open/read errors (EAGAIN, EINTR,
// stale NFS handles, injected faults, ...) are retried with capped
// exponential backoff, persistently-failing files and garbage columns are
// quarantined under the configured error budget, and every quarantine is
// recorded in the manifest so operators can triage after the build.
type DirSource struct {
	dir       string
	hasHeader bool
	files     []string
	sizes     []int64
	fileIdx   int
	pending   []*corpus.Column

	cfg    DirConfig
	open   func(string) (io.ReadCloser, error)
	pol    retry.Policy
	budget int
	ctx    context.Context
	met    *sourceMetrics

	budgetUsed     int
	skippedFiles   uint64
	quarCols       uint64
	retries        uint64
	preskip        map[string]bool // rel paths quarantined by an earlier run
	seenFileQuar   map[string]bool
	seenColumnQuar map[string]bool
	manifest       *os.File
}

// NewDirSource scans dir (recursively) for .csv and .tsv files with the
// default (zero-tolerance, no-retry-policy-overrides) configuration.
func NewDirSource(dir string, hasHeader bool) (*DirSource, error) {
	return NewDirSourceWith(dir, DirConfig{HasHeader: hasHeader})
}

// NewDirSourceWith scans dir (recursively) for .csv and .tsv files under
// the given fault-tolerance configuration.
func NewDirSourceWith(dir string, cfg DirConfig) (*DirSource, error) {
	files, sizes, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	return newDirSource(dir, cfg, files, sizes)
}

// scanDir walks dir for .csv/.tsv files, returning paths (sorted, so the
// stream order — and any partitioning of it — is deterministic) and sizes.
func scanDir(dir string) (files []string, sizes []int64, err error) {
	bySize := map[string]int64{}
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || strings.HasPrefix(info.Name(), ".") {
			return nil
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".csv", ".tsv":
			files = append(files, path)
			bySize[path] = info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: scanning %s: %w", dir, err)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("pipeline: no .csv or .tsv files under %s", dir)
	}
	// Walk already yields lexical order; keep the invariant explicit.
	sort.Strings(files)
	sizes = make([]int64, len(files))
	for i, f := range files {
		sizes[i] = bySize[f]
	}
	return files, sizes, nil
}

// newDirSource builds a DirSource over an already-scanned file list.
func newDirSource(dir string, cfg DirConfig, files []string, sizes []int64) (*DirSource, error) {
	s := &DirSource{
		dir:            dir,
		hasHeader:      cfg.HasHeader,
		files:          files,
		sizes:          sizes,
		cfg:            cfg,
		pol:            cfg.Retry,
		ctx:            context.Background(),
		met:            newSourceMetrics(nil),
		preskip:        map[string]bool{},
		seenFileQuar:   map[string]bool{},
		seenColumnQuar: map[string]bool{},
	}
	s.open = cfg.Open
	if s.open == nil {
		s.open = func(path string) (io.ReadCloser, error) { return os.Open(path) }
	}
	s.budget = cfg.MaxBadFiles
	if frac := int(cfg.MaxBadFrac * float64(len(s.files))); frac > s.budget {
		s.budget = frac
	}
	if cfg.QuarantineDir != "" {
		if err := s.openManifest(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openManifest loads any existing quarantine manifest (restoring the budget
// spend and the pre-skip set of a resumed build) and opens it for append.
func (s *DirSource) openManifest() error {
	if err := os.MkdirAll(s.cfg.QuarantineDir, 0o755); err != nil {
		return fmt.Errorf("pipeline: quarantine dir: %w", err)
	}
	path := filepath.Join(s.cfg.QuarantineDir, quarantineManifest)
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var e QuarantineEntry
			// A torn final line (crash mid-append) is skipped, not fatal.
			if json.Unmarshal([]byte(line), &e) != nil {
				continue
			}
			switch e.Kind {
			case "file":
				if !s.seenFileQuar[e.Path] {
					s.seenFileQuar[e.Path] = true
					s.preskip[e.Path] = true
					s.budgetUsed++
				}
			case "column":
				key := fmt.Sprintf("%s#%d", e.Path, e.Column)
				if !s.seenColumnQuar[key] {
					s.seenColumnQuar[key] = true
					s.budgetUsed++
				}
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("pipeline: reading quarantine manifest: %w", err)
	}
	// A resumed build whose restored spend already exceeds the (possibly
	// lowered-via-flags) budget must fail fast here, not proceed over budget
	// until the next fresh quarantine happens to trip checkBudget.
	if s.budgetUsed > s.budget {
		return fmt.Errorf("%w: quarantine manifest at %s restores %d quarantined files/columns, budget is %d",
			ErrBudgetExhausted, path, s.budgetUsed, s.budget)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("pipeline: quarantine manifest: %w", err)
	}
	s.manifest = f
	return nil
}

// BindContext attaches the build's context so retry backoff sleeps abort
// promptly on cancellation. Run calls this before counting starts.
func (s *DirSource) BindContext(ctx context.Context) {
	if ctx != nil {
		s.ctx = ctx
	}
}

// AttachMetrics wires the source's skip/quarantine/retry counters and
// per-file duration histograms onto Options.Metrics. Run calls this
// before counting starts; an unattached source counts into handles no
// registry exports.
func (s *DirSource) AttachMetrics(met *sourceMetrics) { s.met = met }

// Files returns how many table files the source covers.
func (s *DirSource) Files() int { return len(s.files) }

// Quarantined reports how many files were skipped and how many individual
// columns were quarantined so far (including manifest-restored ones once
// their file is reached).
func (s *DirSource) Quarantined() (files, columns uint64) {
	return s.skippedFiles, s.quarCols
}

// Close releases the quarantine manifest handle. The pipeline closes
// sources it recognizes after a build; a DirSource abandoned mid-stream
// leaks only one descriptor.
func (s *DirSource) Close() error {
	if s.manifest != nil {
		err := s.manifest.Close()
		s.manifest = nil
		return err
	}
	return nil
}

// rel maps an absolute table path to its manifest key.
func (s *DirSource) rel(path string) string {
	r, err := filepath.Rel(s.dir, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(r)
}

// Next implements ColumnSource. Each call drains the quarantine-filtered
// columns of the current table before moving to the next file; a file that
// cannot be read after retries is quarantined and the stream continues,
// unless the error budget is exhausted.
func (s *DirSource) Next() (*corpus.Column, error) {
	for len(s.pending) == 0 {
		if s.fileIdx >= len(s.files) {
			return nil, io.EOF
		}
		path := s.files[s.fileIdx]
		s.fileIdx++
		rel := s.rel(path)
		if s.preskip[rel] {
			// Quarantined by an earlier run of this build; already counted
			// against the budget at manifest load.
			s.skippedFiles++
			s.met.filesSkipped.Inc()
			continue
		}
		cols, err := s.readFile(path)
		if err != nil {
			// A cancelled build surfaces here as a context error:
			// retry.Policy.Do returns ctx.Err() immediately once the context
			// is done, including mid-backoff. That is the build stopping, not
			// the file failing — quarantining it would permanently exclude a
			// healthy file from every resume (the manifest pre-skips it) and,
			// with a zero budget, mask the cancellation as ErrBudgetExhausted.
			// Rewind so the file is re-read on resume and surface the
			// cancellation so count() still writes its final checkpoint.
			if cerr := s.ctx.Err(); cerr != nil {
				s.fileIdx--
				return nil, cerr
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.fileIdx--
				return nil, err
			}
			if qerr := s.quarantineFile(rel, err); qerr != nil {
				return nil, qerr
			}
			continue
		}
		kept := cols[:0]
		for i, c := range cols {
			if verr := validateColumn(c); verr != nil {
				if qerr := s.quarantineColumn(rel, i, c.Name, verr); qerr != nil {
					return nil, qerr
				}
				continue
			}
			kept = append(kept, c)
		}
		s.pending = kept
	}
	c := s.pending[0]
	s.pending = s.pending[1:]
	return c, nil
}

// readFile opens and parses one table under the retry policy: any attempt
// that fails with a transient error (including a transient read error
// surfacing through the CSV parser, or a failed Close that may indicate a
// truncated readahead) is re-opened and re-parsed from scratch.
func (s *DirSource) readFile(path string) ([]*corpus.Column, error) {
	comma := ','
	if strings.EqualFold(filepath.Ext(path), ".tsv") {
		comma = '\t'
	}
	pol := s.pol
	userOnRetry := pol.OnRetry
	pol.OnRetry = func(attempt int, err error, backoff time.Duration) {
		s.retries++
		s.met.ioRetries.Inc()
		if userOnRetry != nil {
			userOnRetry(attempt, err, backoff)
		}
	}
	var cols []*corpus.Column
	err := pol.Do(s.ctx, func() error {
		cols = nil
		t0 := time.Now()
		f, err := s.open(path)
		s.met.openSecs.Observe(time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		t0 = time.Now()
		cols, err = corpus.ReadTable(f, comma, s.hasHeader)
		cerr := f.Close()
		s.met.parseSecs.Observe(time.Since(t0).Seconds())
		if err != nil {
			cols = nil
			return err
		}
		if cerr != nil {
			// A close error on the read path can mean the kernel could not
			// complete readahead; the parse result is suspect, so retry the
			// whole file rather than silently trusting it.
			cols = nil
			return fmt.Errorf("pipeline: closing %s: %w", path, cerr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// validateColumn screens one parsed column for binary garbage that would
// poison corpus statistics.
func validateColumn(c *corpus.Column) error {
	if len(c.Values) > maxColumnCells {
		return fmt.Errorf("column has %d cells, cap is %d (mega-column, likely a delimiter artifact)", len(c.Values), maxColumnCells)
	}
	for _, v := range c.Values {
		if strings.IndexByte(v, 0) >= 0 {
			return errors.New("NUL byte in cell value (binary content)")
		}
	}
	return nil
}

// quarantineFile records a persistently-unreadable table and spends one
// budget unit. The returned error is non-nil only when the budget is gone
// or the manifest itself cannot be written.
func (s *DirSource) quarantineFile(rel string, cause error) error {
	s.skippedFiles++
	s.met.filesSkipped.Inc()
	entry := QuarantineEntry{Kind: "file", Path: rel, Error: cause.Error()}
	var pe *corpus.ParseError
	if errors.As(cause, &pe) {
		entry.Offset = pe.Offset
	}
	if !s.seenFileQuar[rel] {
		s.seenFileQuar[rel] = true
		s.budgetUsed++
		if err := s.appendManifest(entry); err != nil {
			return err
		}
	}
	return s.checkBudget(cause)
}

// quarantineColumn records one garbage column and spends one budget unit.
func (s *DirSource) quarantineColumn(rel string, idx int, name string, cause error) error {
	s.quarCols++
	s.met.colsQuar.Inc()
	key := fmt.Sprintf("%s#%d", rel, idx)
	if !s.seenColumnQuar[key] {
		s.seenColumnQuar[key] = true
		s.budgetUsed++
		if err := s.appendManifest(QuarantineEntry{
			Kind: "column", Path: rel, Column: idx, Name: name, Error: cause.Error(),
		}); err != nil {
			return err
		}
	}
	return s.checkBudget(cause)
}

// checkBudget fails the stream once quarantines exceed the configured
// allowance, wrapping the error that tipped it over.
func (s *DirSource) checkBudget(cause error) error {
	if s.budgetUsed > s.budget {
		return fmt.Errorf("%w: %d files/columns quarantined, budget is %d (last: %w)",
			ErrBudgetExhausted, s.budgetUsed, s.budget, cause)
	}
	return nil
}

// appendManifest durably appends one entry; each line is synced so a crash
// immediately after a quarantine decision cannot forget it (forgetting
// would shift the resumed column stream against the checkpoint).
func (s *DirSource) appendManifest(e QuarantineEntry) error {
	if s.manifest == nil {
		return nil
	}
	blob, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("pipeline: quarantine manifest: %w", err)
	}
	if _, err := s.manifest.Write(append(blob, '\n')); err != nil {
		return fmt.Errorf("pipeline: quarantine manifest: %w", err)
	}
	if err := s.manifest.Sync(); err != nil {
		return fmt.Errorf("pipeline: quarantine manifest: %w", err)
	}
	return nil
}

// Fingerprint implements ColumnSource: the relative file list with sizes.
// File contents are not hashed (that would cost a full extra read); a
// same-size in-place edit between checkpoint and resume goes undetected,
// which is documented in the resume semantics. Quarantine decisions do not
// enter the fingerprint: the scan list is the corpus identity, and the
// manifest (reloaded on resume) keeps the delivered stream aligned.
func (s *DirSource) Fingerprint() string {
	return dirFingerprint(s.dir, s.files, s.sizes, s.hasHeader)
}

// dirFingerprint is the shared identity of a directory corpus (or a
// contiguous partition of one): the relative file list with sizes plus the
// header flag. DirSource and DirPartitioner both use it, so a partitioned
// build and a single-process build over the same directory agree on the
// corpus identity byte for byte.
func dirFingerprint(dir string, files []string, sizes []int64, hasHeader bool) string {
	var sb strings.Builder
	sb.WriteString("dir:")
	for i, f := range files {
		rel, err := filepath.Rel(dir, f)
		if err != nil {
			rel = f
		}
		fmt.Fprintf(&sb, "%s=%d;", rel, sizes[i])
	}
	fmt.Fprintf(&sb, "header=%v", hasHeader)
	return sb.String()
}

// A PartitionSpec names one contiguous slice of a partitioned directory
// corpus: partition Index of Count. The file range is derived, not carried —
// two machines that agree on (directory contents, Index, Count) derive the
// same range, which is all a distributed-build lease needs to put on the
// wire.
type PartitionSpec struct {
	Index, Count int
}

// DirPartitioner splits a directory corpus into contiguous partitions of
// its sorted file list. Contiguity is what keeps the unbounded
// (SampleColumns=0) distant-supervision sample exact: concatenating
// partitions in index order reproduces the single-process stream order.
type DirPartitioner struct {
	dir   string
	cfg   DirConfig
	files []string
	sizes []int64
}

// NewDirPartitioner scans dir once (the same scan DirSource performs) and
// prepares it for partitioned opens.
func NewDirPartitioner(dir string, cfg DirConfig) (*DirPartitioner, error) {
	files, sizes, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	return &DirPartitioner{dir: dir, cfg: cfg, files: files, sizes: sizes}, nil
}

// Files reports how many table files the directory holds.
func (p *DirPartitioner) Files() int { return len(p.files) }

// Fingerprint is the whole-directory corpus identity — identical to what a
// DirSource over the same directory and header flag reports.
func (p *DirPartitioner) Fingerprint() string {
	return dirFingerprint(p.dir, p.files, p.sizes, p.cfg.HasHeader)
}

// Clamp bounds a requested partition count to what the directory supports:
// at least 1, at most one partition per file.
func (p *DirPartitioner) Clamp(n int) int {
	if n < 1 {
		return 1
	}
	if n > len(p.files) {
		return len(p.files)
	}
	return n
}

// bounds derives the half-open file range [start, end) of one partition.
// Ranges tile the file list: partition i of n covers
// files[i*len/n : (i+1)*len/n).
func (p *DirPartitioner) bounds(spec PartitionSpec) (start, end int, err error) {
	n := spec.Count
	if n != p.Clamp(n) {
		return 0, 0, fmt.Errorf("pipeline: partition count %d invalid for %d files", n, len(p.files))
	}
	if spec.Index < 0 || spec.Index >= n {
		return 0, 0, fmt.Errorf("pipeline: partition index %d out of range [0,%d)", spec.Index, n)
	}
	return spec.Index * len(p.files) / n, (spec.Index + 1) * len(p.files) / n, nil
}

// Open returns a DirSource over one partition's files, with the
// partitioner's DirConfig. The source's own fingerprint covers only the
// partition's slice, so a shard counted from it is pinned to exactly these
// files at these sizes.
func (p *DirPartitioner) Open(spec PartitionSpec) (*DirSource, error) {
	start, end, err := p.bounds(spec)
	if err != nil {
		return nil, err
	}
	return newDirSource(p.dir, p.cfg, p.files[start:end], p.sizes[start:end])
}

// PartitionFingerprint is the corpus identity of one partition — what
// Open(spec).Fingerprint() would report, computed without constructing the
// source. The distributed coordinator uses it to verify an uploaded shard
// counted exactly the files the lease covered.
func (p *DirPartitioner) PartitionFingerprint(spec PartitionSpec) (string, error) {
	start, end, err := p.bounds(spec)
	if err != nil {
		return "", err
	}
	return dirFingerprint(p.dir, p.files[start:end], p.sizes[start:end], p.cfg.HasHeader), nil
}

// HasHeader reports the header flag the partitioner (and every partition it
// opens) runs under — the distributed-build coordinator forwards it to
// workers so both sides parse tables identically.
func (p *DirPartitioner) HasHeader() bool { return p.cfg.HasHeader }
