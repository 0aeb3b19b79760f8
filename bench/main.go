// Command bench is the repository's benchmark harness. It drives the
// Auto-Detect system through its public entry points on four workloads,
// each a different user of the paper's computation:
//
//	serve-narrow  interactive POST /v1/check-column on short columns
//	serve-wide    the same endpoint on columns of 300-3,000 rows
//	audit-batch   whole-table and whole-database batch jobs via /v1/jobs
//	train         pipeline.Run building a model from CSV shards
//
// Each run generates its inputs from --seed, sets the system up several
// times (reporting the median set-up time), measures for --seconds, checks
// every output against an in-process reference, and prints one
// "name value unit" line per metric followed by a JSON summary line:
//
//	bash bench/run.sh --workload serve-narrow --seed 1 --seconds 12 --trace 0
//
// With --trace 1 the run reports per-layer metrics instead: it alternates
// plain and traced rounds of the measured phase, then replays the
// workload's inputs one layer at a time. "compare PARENT_DIR CHANGE_DIR"
// judges two sets of recorded runs against the bounds in BENCHMARK.json.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/pattern"
)

// scale sizes every workload. fullScale is the benchmark; the smoke test
// runs tinyScale.
type scale struct {
	// A run sets up at least setups times and until set-up has taken
	// setupSeconds in all, so a cheap set-up still gets a steady median.
	setups       int
	setupSeconds float64

	// langs is the candidate space of every build; nil means all 144
	// languages, as autodetectd and autodetect train use.
	langs        []pattern.Language
	modelColumns int // serving model's training corpus
	modelPairs   int // its distant-supervision pairs per class
	trainPairs   int // the train workload's pairs per class

	narrowColumns int
	narrowRate    float64 // open-loop requests/s
	wideColumns   int
	wideRows      [2]int
	wideRate      float64
	panelColumns  [2]int // labelled quality panel: narrow, wide

	auditTableJobs  int // table jobs per batch, beside one database job
	auditJobColumns int
	auditDBTables   int // whole-database job: tables × 10 columns
	auditDBRows     int

	trainColumns int // train workload's corpus
	trainPanel   int // WIKI columns its models are scored on

	replayColumns int // columns replayed per layer in traced runs
	replayWide    int
}

// fullScale serves a model built as autodetectd -train-dir builds it by
// default: all 144 candidate languages, 10,000 pairs per class.
var fullScale = scale{
	setups: 2, setupSeconds: 1,
	modelColumns: 700, modelPairs: 10000, trainPairs: 1000,
	narrowColumns: 3000, narrowRate: 500,
	wideColumns: 200, wideRows: [2]int{300, 3000}, wideRate: 50,
	panelColumns:   [2]int{3000, 200},
	auditTableJobs: 4, auditJobColumns: 250, auditDBTables: 5, auditDBRows: 200,
	trainColumns: 240, trainPanel: 1500,
	replayColumns: 400, replayWide: 40,
}

// tinyScale keeps the smoke test fast, under the race detector too, by
// building over five candidate languages: the paper's crude, L1 and L2,
// and the two that full-scale builds select first.
var tinyScale = scale{
	setups: 1,
	langs: []pattern.Language{pattern.Crude(), pattern.L1(), pattern.L2(),
		pattern.All()[143], pattern.All()[140]},
	modelColumns: 300, modelPairs: 300, trainPairs: 300,
	narrowColumns: 60, narrowRate: 200,
	wideColumns: 6, wideRows: [2]int{120, 240}, wideRate: 40,
	panelColumns:   [2]int{60, 6},
	auditTableJobs: 2, auditJobColumns: 20, auditDBTables: 2, auditDBRows: 30,
	trainColumns: 300, trainPanel: 60,
	replayColumns: 20, replayWide: 3,
}

// maxSetups caps set-up repetitions per run.
const maxSetups = 25

// options configures one invocation.
type options struct {
	seed  int64
	dur   time.Duration
	trace bool
	out   string // result directory; "" writes no files
	work  string // scratch directory for shards, jobs and checkpoints
	sc    scale
}

// workload is one set of inputs driven through the system.
type workload interface {
	// setup generates the inputs and builds and starts the system.
	setup(ctx context.Context) error
	// measure drives the system for d, recording spans when tr is non-nil.
	measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error)
	// verify checks every output measure saw against the in-process
	// reference and scores the labelled quality panel.
	verify(ctx context.Context) (verdict, error)
	// layers replays the workload's inputs one layer at a time.
	layers(ctx context.Context, tr *tracer, lm metrics) error
	// close stops whatever setup started; safe to call repeatedly.
	close() error
}

type workloadSpec struct {
	name string
	make func(o options) workload
}

// workloads are the benchmark's workloads; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []workloadSpec{
	{"serve-narrow", func(o options) workload { return &serveWorkload{o: o} }},
	{"serve-wide", func(o options) workload { return &serveWorkload{o: o, wide: true} }},
	{"audit-batch", func(o options) workload { return &auditWorkload{o: o} }},
	{"train", func(o options) workload { return &trainWorkload{o: o} }},
}

// round is one repetition within a measured phase: an open-loop and a
// closed-loop window (serve-*), one batch of jobs (audit-batch) or one
// build (train). Metrics are medians over rounds, so a burst of
// interference from outside the process spoils one round, not the run.
type round struct {
	latencyMS []float64 // one per operation: request, job or build
	columns   int       // columns completed in the throughput window
	seconds   float64   // length of the throughput window
}

// roundStats is one round's statistics as recorded in -out records.
type roundStats struct {
	P50MS      float64 `json:"p50_ms"`
	P75MS      float64 `json:"p75_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	Throughput float64 `json:"throughput_cols_s"`
	Samples    int     `json:"samples"`
}

// phase is what one measured phase observed.
type phase struct {
	rounds    []round
	attempted int
	failed    int
	clientMS  []float64 // harness bookkeeping per operation
	genLagMS  []float64 // how late the generator started each operation
}

// overRounds is the median over rounds of f.
func (p phase) overRounds(f func(round) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func (p phase) throughput() float64 {
	return p.overRounds(func(r round) float64 { return float64(r.columns) / r.seconds })
}

func (p phase) latency(q float64) float64 {
	return p.overRounds(func(r round) float64 { return percentile(r.latencyMS, q) })
}

// add appends q's rounds and operations to p.
func (p *phase) add(q phase) {
	p.rounds = append(p.rounds, q.rounds...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.clientMS = append(p.clientMS, q.clientMS...)
	p.genLagMS = append(p.genLagMS, q.genLagMS...)
}

func (p phase) samples() int {
	n := 0
	for _, r := range p.rounds {
		n += len(r.latencyMS)
	}
	return n
}

// verdict is the correctness gate's outcome plus the quality scores.
type verdict struct {
	mismatches []string
	flaps      int // outputs equal to the reference but for repair suggestions
	precision  float64
	recall     float64
	planted    int
	sha        string // findings_sha256 over the workload's inputs
	ensemble   []int  // IDs of the languages the served model selected
}

// ensembleIDs lists the IDs of the languages a detector selected.
func ensembleIDs(det *core.Detector) []int {
	var ids []int
	for _, c := range det.Languages() {
		ids = append(ids, c.Stats.Language().ID)
	}
	return ids
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the summary line the benchmark contract defines.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is one run as written to -out for compare and the baselines.
type record struct {
	Workload       string       `json:"workload"`
	Seed           int64        `json:"seed"`
	Seconds        float64      `json:"seconds"`
	Trace          bool         `json:"trace"`
	StartedUnixNs  int64        `json:"started_unix_ns"`
	Env            envStamp     `json:"env"`
	SetupRuns      []float64    `json:"setup_runs_s"`
	LatencySamples int          `json:"latency_samples"`
	Rounds         []roundStats `json:"rounds,omitempty"`
	Planted        int          `json:"planted_errors"`
	FindingsSHA256 string       `json:"findings_sha256"`
	Ensemble       []int        `json:"ensemble_languages"`
	SuggestionFlap int          `json:"suggestion_flaps"`
	Mismatches     []string     `json:"mismatches,omitempty"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics")
	out := fs.String("out", "", "directory to write <workload>.seed<N>.json records and traces to")
	work := fs.String("work", ".bench_build", "scratch directory (removed per run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var specs []workloadSpec
	for _, s := range workloads {
		if *name == "all" || *name == s.name {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out, sc: fullScale}

	ctx := context.Background()
	total := result{Correct: true, Metrics: metrics{}}
	for _, s := range specs {
		if err := os.MkdirAll(*work, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		dir, err := os.MkdirTemp(*work, "run-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		o.work = dir
		rec, tr, err := runWorkload(ctx, s, o)
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.name, err)
			return 1
		}
		printRecord(rec)
		if o.out != "" {
			if err := writeRecord(o.out, rec, tr); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if len(specs) == 1 {
			total = rec.result
			break
		}
		total.Correct = total.Correct && rec.Correct
		total.Attempted += rec.Attempted
		total.Failed += rec.Failed
		for k, v := range rec.Metrics {
			total.Metrics[s.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// overheadPairs is the number of plain/traced round pairs a traced run
// alternates between to measure bench.trace_overhead.
const overheadPairs = 4

// runWorkload sets up, measures and verifies one workload.
func runWorkload(ctx context.Context, s workloadSpec, o options) (*record, *tracer, error) {
	rec := &record{Workload: s.name, Seed: o.seed, Seconds: o.dur.Seconds(), Trace: o.trace,
		StartedUnixNs: time.Now().UnixNano(), Env: stamp(o.work)}
	w := s.make(o)
	defer w.close()
	total := 0.0
	for i := 0; i < maxSetups && (i < o.sc.setups || total < o.sc.setupSeconds); i++ {
		if err := w.close(); err != nil {
			return nil, nil, err
		}
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupRuns = append(rec.SetupRuns, time.Since(t).Seconds())
		total += rec.SetupRuns[i]
	}
	if err := resetPeakRSS(); err != nil && !errors.Is(err, errNoHWM) {
		return nil, nil, err
	}

	var tr *tracer
	m := metrics{}
	var ph phase
	if !o.trace {
		var err error
		if ph, err = w.measure(ctx, o.dur, nil); err != nil {
			return nil, nil, err
		}
		peak, err := peakRSSMB()
		if err != nil && !errors.Is(err, errNoHWM) {
			return nil, nil, err
		}
		m.set("setup_s", median(rec.SetupRuns), "s")
		m.set("latency_p50_ms", ph.latency(0.50), "ms")
		m.set("latency_p75_ms", ph.latency(0.75), "ms")
		m.set("throughput_cols_s", ph.throughput(), "cols/s")
		m.set("peak_rss_mb", peak, "MB")
	} else {
		// Plain and traced rounds alternate, each pair in the order opposite
		// to the pair before, so warm-up and the machine's drift fall on both
		// sides alike. The overhead is the median pair's throughput ratio.
		tr = newTracer()
		ratios := make([]float64, overheadPairs)
		slot := o.dur / (2 * overheadPairs)
		for i := range ratios {
			var plain, traced phase
			for k := 0; k < 2; k++ {
				var err error
				if (i+k)%2 == 0 {
					plain, err = w.measure(ctx, slot, nil)
				} else {
					traced, err = w.measure(ctx, slot, tr)
				}
				if err != nil {
					return nil, nil, err
				}
			}
			ratios[i] = plain.throughput()/traced.throughput() - 1
			ph.add(traced)
			ph.attempted += plain.attempted
			ph.failed += plain.failed
		}
		m.set("bench.client_ms", mean(ph.clientMS), "ms")
		m.set("bench.gen_lag_p50_ms", percentile(ph.genLagMS, 0.50), "ms")
		m.set("bench.gen_lag_p99_ms", percentile(ph.genLagMS, 0.99), "ms")
		m.set("bench.trace_overhead", median(ratios), "ratio")
		if lag, p50 := m["bench.gen_lag_p50_ms"].Value, ph.latency(0.50); lag > p50/10 {
			fmt.Fprintf(os.Stderr, "%s: generator lag p50 %.3f ms exceeds a tenth of latency p50 %.3f ms\n", s.name, lag, p50)
		}
	}
	v, err := w.verify(ctx)
	if err != nil {
		return nil, nil, err
	}
	if o.trace {
		if err := w.layers(ctx, tr, m); err != nil {
			return nil, nil, err
		}
	} else {
		m.set("precision_at_k", v.precision, "ratio")
		m.set("recall_planted", v.recall, "ratio")
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	rec.result = result{Correct: len(v.mismatches) == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}
	rec.LatencySamples = ph.samples()
	for _, r := range ph.rounds {
		rec.Rounds = append(rec.Rounds, roundStats{
			P50MS: percentile(r.latencyMS, 0.5), P75MS: percentile(r.latencyMS, 0.75),
			P90MS: percentile(r.latencyMS, 0.9), P99MS: percentile(r.latencyMS, 0.99),
			Throughput: float64(r.columns) / r.seconds, Samples: len(r.latencyMS),
		})
	}
	rec.Planted = v.planted
	rec.FindingsSHA256 = v.sha
	rec.Ensemble = v.ensemble
	rec.SuggestionFlap = v.flaps
	rec.Mismatches = v.mismatches
	return rec, tr, nil
}

// printRecord writes the human-readable lines: one "name value unit" line
// per metric, then the run's provenance.
func printRecord(rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %s %g %s\n", rec.Workload, k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	fmt.Printf("%s findings_sha256 %s\n", rec.Workload, rec.FindingsSHA256)
	fmt.Printf("%s ensemble_languages %v\n", rec.Workload, rec.Ensemble)
	fmt.Printf("%s latency_samples %d attempted %d failed %d suggestion_flaps %d\n",
		rec.Workload, rec.LatencySamples, rec.Attempted, rec.Failed, rec.SuggestionFlap)
	for _, mm := range rec.Mismatches {
		fmt.Fprintf(os.Stderr, "%s: MISMATCH %s\n", rec.Workload, mm)
	}
}

// writeRecord stores the run as <workload>.seed<N>[.trace].json under dir,
// adding a numeric suffix instead of overwriting an earlier run, and the
// spans of a traced run beside it as <name>.spans.json.
func writeRecord(dir string, rec *record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s.seed%d", rec.Workload, rec.Seed)
	if rec.Trace {
		base += ".trace"
	}
	name := base
	for i := 2; ; i++ {
		if _, err := os.Stat(filepath.Join(dir, name+".json")); errors.Is(err, os.ErrNotExist) {
			break
		}
		name = fmt.Sprintf("%s.%d", base, i)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeFile(filepath.Join(dir, name+".spans.json"))
	}
	return nil
}
