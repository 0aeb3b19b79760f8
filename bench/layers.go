package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dbsource"
	"repro/internal/jobs"
	"repro/internal/observe"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/repair"
	"repro/internal/semantic"
	"repro/internal/service"
	"repro/internal/stats"
)

// replayItem is one column replayed through the layers. hint is the
// semantic-domain hint the workload's own path passes (DB units only).
type replayItem struct {
	col  *corpus.Column
	hint string
}

// layerInput is what a workload hands the per-layer replay: its model, the
// columns to replay, and the record of the pipeline builds it ran.
type layerInput struct {
	det   *core.Detector
	sem   *semantic.Model
	items []replayItem
	work  string

	builds      []buildStats
	buildShards string             // the CSV corpus of those builds
	buildLangs  []pattern.Language // their candidate languages (nil: all 144)

	// reg is the metrics registry of the server the measured phase drove;
	// nil uses the replay's own in-process server.
	reg *observe.Registry
	// dbDSN names the database the workload audits; "" replays the items
	// loaded into an in-memory database.
	dbDSN string
}

// replayLayers times calls into each layer's public functions from
// outside, replaying the same columns one layer at a time, outermost
// first: Handler().ServeHTTP, audit.CheckColumnHinted, DetectColumn, then
// pattern.Encode per value and NPMIRuns per pair and language. A layer's
// self time is its replay time minus the next inner layer's.
func replayLayers(ctx context.Context, in layerInput, tr *tracer, lm metrics) error {
	if len(in.items) == 0 {
		return fmt.Errorf("no columns to replay")
	}
	n := float64(len(in.items))
	item := func(i int) string { return "replay-" + strconv.Itoa(i) }
	span := func(name string, i int, start time.Time) time.Duration {
		end := time.Now()
		tr.record(name, item(i), 0, start, end)
		return end.Sub(start)
	}

	// service: the whole handler chain, in process.
	svc := service.New(in.det, in.sem)
	svc.Metrics = observe.NewRegistry()
	h := svc.Handler()
	serveMS := make([]float64, len(in.items))
	reqBytes := 0
	for i, it := range in.items {
		body, err := json.Marshal(map[string][]string{"values": it.col.Values})
		if err != nil {
			return err
		}
		reqBytes += len(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/check-column", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		serveMS[i] = ms(span("service", i, t))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replayed check-column answered %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	reg := in.reg
	if reg == nil {
		reg = svc.Metrics
	}

	// audit: the shared column-scoring layer.
	checkMS := make([]float64, len(in.items))
	for i, it := range in.items {
		t := time.Now()
		audit.CheckColumnHinted(ctx, in.det, in.sem, it.col.Values, 0, it.hint)
		checkMS[i] = ms(span("audit", i, t))
	}

	// core: DetectColumn, with the pairs it scored read off the hot-path
	// counter and its allocations off the runtime.
	detectMS := make([]float64, len(in.items))
	pairs := make([]uint64, len(in.items))
	findings := make([][]core.Finding, len(in.items))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, it := range in.items {
		p0 := core.HotPath().Pairs
		t := time.Now()
		findings[i] = in.det.DetectColumn(it.col.Values)
		detectMS[i] = ms(span("core", i, t))
		pairs[i] = core.HotPath().Pairs - p0
	}
	runtime.ReadMemStats(&after)

	// The parts of audit around detection: repair suggestions for the
	// reported findings, value-level semantics, and the schema-hinted
	// domain check (timed for every column whose name implies a domain;
	// part of CheckColumnHinted only where the workload passes a hint).
	var repairMS, semMS, domainMS, auditSelf, checkUnhinted float64
	for i, it := range in.items {
		vals := it.col.Values
		t := time.Now()
		for _, f := range findings[i] {
			if f.Confidence >= audit.DefaultMinConfidence {
				repair.Suggest(vals, f.Value)
			}
		}
		r := ms(time.Since(t))
		t = time.Now()
		if in.sem != nil {
			in.sem.DetectColumn(vals)
		}
		s := ms(time.Since(t))
		hint := it.hint
		if hint == "" {
			hint = dbsource.NameHint(it.col.Name, "")
		}
		t = time.Now()
		semantic.CheckDomain(hint, vals)
		d := ms(time.Since(t))
		repairMS += r
		semMS += s
		domainMS += d
		check := checkMS[i]
		if it.hint != "" {
			check -= d // what the check-column endpoint, which passes no hint, runs
		}
		checkUnhinted += check
		auditSelf += check - detectMS[i] - r - s
	}

	// pattern and stats: Encode for each distinct value, then per language
	// HashRuns on both values of every scored pair and NPMIRuns on it.
	var encodeCalls, hashCalls, npmiCalls, samePattern, scored, distinct int
	var encodeNS, hashNS, npmiNS float64
	var patternShare float64
	shares := 0
	langs := in.det.Languages()
	for i, it := range in.items {
		vals := distinctValues(it.col.Values)
		t := time.Now()
		runs := make([]pattern.Runs, len(vals))
		for j, v := range vals {
			runs[j] = pattern.Encode(v)
		}
		encodeNS += float64(span("pattern.encode", i, t).Nanoseconds())
		encodeCalls += len(vals)

		for _, c := range langs {
			l := c.Stats.Language()
			pats := map[uint64]bool{}
			for _, r := range runs {
				pats[l.HashRuns(r)] = true
			}
			if len(runs) > 0 {
				patternShare += float64(len(pats)) / float64(len(runs))
				shares++
			}
		}
		sr := runs[:min(distinctFromPairs(pairs[i]), len(runs))]
		scored += len(sr)
		distinct += len(runs)
		t = time.Now()
		for _, c := range langs {
			l := c.Stats.Language()
			for a := 0; a < len(sr); a++ {
				for b := a + 1; b < len(sr); b++ {
					if l.HashRuns(sr[a]) == l.HashRuns(sr[b]) {
						samePattern++
					}
					hashCalls += 2
				}
			}
		}
		hashNS += float64(span("pattern.hashruns", i, t).Nanoseconds())
		t = time.Now()
		for _, c := range langs {
			for a := 0; a < len(sr); a++ {
				for b := a + 1; b < len(sr); b++ {
					c.Stats.NPMIRuns(sr[a], sr[b])
					npmiCalls++
				}
			}
		}
		npmiNS += float64(span("stats.npmi", i, t).Nanoseconds())
	}

	lm.set("pattern.encode_calls_per_col", float64(encodeCalls)/n, "count")
	lm.set("pattern.encode_ns", encodeNS/float64(max(encodeCalls, 1)), "ns")
	lm.set("pattern.hashruns_calls_per_col", float64(hashCalls)/n, "count")
	lm.set("pattern.hashruns_ns", hashNS/float64(max(hashCalls, 1)), "ns")
	lm.set("stats.npmi_calls_per_col", float64(npmiCalls)/n, "count")
	lm.set("stats.npmi_ns", npmiNS/float64(max(npmiCalls, 1)), "ns")
	lm.set("stats.same_pattern_ratio", float64(samePattern)/float64(max(npmiCalls, 1)), "ratio")

	totalPairs := uint64(0)
	for _, p := range pairs {
		totalPairs += p
	}
	lm.set("core.detect_ms_p50", percentile(detectMS, 0.50), "ms")
	lm.set("core.detect_ms_p99", percentile(detectMS, 0.99), "ms")
	lm.set("core.detect_self_ms", mean(detectMS)-(encodeNS+npmiNS)/1e6/n, "ms")
	lm.set("core.allocs_per_col", float64(after.Mallocs-before.Mallocs)/n, "count")
	lm.set("core.pairs_per_col", float64(totalPairs)/n, "count")
	lm.set("core.patterns_per_value", patternShare/float64(max(shares, 1)), "ratio")
	lm.set("core.distinct_scored_ratio", float64(scored)/float64(max(distinct, 1)), "ratio")

	lm.set("audit.check_ms_p99", percentile(checkMS, 0.99), "ms")
	lm.set("audit.self_ms", auditSelf/n, "ms")
	lm.set("audit.repair_ms", repairMS/n, "ms")
	lm.set("audit.semantic_ms", semMS/n, "ms")
	lm.set("audit.domain_ms", domainMS/n, "ms")

	lm.set("service.serve_ms_p50", percentile(serveMS, 0.50), "ms")
	lm.set("service.serve_ms_p99", percentile(serveMS, 0.99), "ms")
	lm.set("service.self_ms", mean(serveMS)-checkUnhinted/n, "ms")
	lm.set("service.request_kb", float64(reqBytes)/1024/n, "KB")
	lm.set("resilience.sheds", metricSum(reg, "autodetect_resilience_sheds_total"), "count")
	lm.set("resilience.admit_limit", metricSum(reg, "autodetect_resilience_admit_limit"), "count")

	if err := replayJobs(ctx, in, tr, lm); err != nil {
		return fmt.Errorf("jobs replay: %w", err)
	}
	if err := replayDB(ctx, in, tr, lm); err != nil {
		return fmt.Errorf("dbsource replay: %w", err)
	}
	pipelineMetrics(in.builds, lm)
	entries, err := pairEntries(in.buildShards, in.buildLangs)
	if err != nil {
		return fmt.Errorf("pair-store replay: %w", err)
	}
	lm.set("stats.pair_entries", float64(entries), "count")
	return ctx.Err()
}

// replayJobs runs the replay columns as one batch job's executor would,
// minus the queue: score a column, then checkpoint the whole state through
// jobs.Store.PutState. Bytes written are read from the kernel's count of
// this process's write calls, whatever the store's file layout.
func replayJobs(ctx context.Context, in layerInput, tr *tracer, lm metrics) error {
	dir := filepath.Join(in.work, "replay-jobs")
	defer os.RemoveAll(dir)
	store, err := jobs.OpenStore(dir)
	if err != nil {
		return err
	}
	const id = "00000000000000b1"
	if err := store.PutSpec(&jobs.Spec{ID: id}); err != nil { // as at submission
		return err
	}
	st := &jobs.State{ID: id, Status: jobs.StatusRunning, ColumnsTotal: len(in.items)}
	var columnMS, ckptMS []float64
	var written int64
	for i, it := range in.items {
		t0 := time.Now()
		fs := audit.CheckColumnHinted(ctx, in.det, in.sem, it.col.Values, 0, it.hint)
		st.Results = append(st.Results, jobs.ColumnResult{Column: it.col.Name, Findings: fs})
		st.ColumnsDone = i + 1
		w0, err := writtenBytes()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := store.PutState(st); err != nil {
			return err
		}
		t2 := time.Now()
		ckptMS = append(ckptMS, ms(t2.Sub(t1)))
		columnMS = append(columnMS, ms(t2.Sub(t0)))
		item := "replay-" + strconv.Itoa(i)
		tr.record("jobs.checkpoint", item, tr.record("jobs.column", item, 0, t0, t2), t1, t2)
		w1, err := writtenBytes()
		if err != nil {
			return err
		}
		written += w1 - w0
	}
	final := dirBytes(filepath.Join(dir, id))
	lm.set("jobs.column_ms", mean(columnMS), "ms")
	lm.set("jobs.checkpoint_ms", mean(ckptMS), "ms")
	lm.set("jobs.checkpoint_kb", float64(written)/1024/float64(len(in.items)), "KB")
	lm.set("jobs.write_amplification", float64(written)/float64(max(final, 1)), "ratio")
	return nil
}

// replayDB reads every column of the workload's database (or of the replay
// columns loaded into one) through dbsource's keyset pages.
func replayDB(ctx context.Context, in layerInput, tr *tracer, lm metrics) error {
	dsn := in.dbDSN
	if dsn == "" {
		db := dbsource.NewMemDB()
		const perTable = 10
		for t := 0; t*perTable < len(in.items); t++ {
			var cols []dbsource.MemCol
			for j := t * perTable; j < min((t+1)*perTable, len(in.items)); j++ {
				vals := make([]any, len(in.items[j].col.Values))
				for k, v := range in.items[j].col.Values {
					vals[k] = v
				}
				cols = append(cols, dbsource.MemCol{Name: fmt.Sprintf("c%02d", j-t*perTable), Type: "TEXT", Values: vals})
			}
			db.AddTable(fmt.Sprintf("t%03d", t), cols...)
		}
		name := fmt.Sprintf("bench-replay-%d", dbSeq.Add(1))
		dbsource.Register(name, db)
		dsn = "mem://" + name
	}
	reg := observe.NewRegistry()
	src, err := dbsource.NewSource(ctx, dbsource.Config{DSN: dsn, Metrics: reg})
	if err != nil {
		return err
	}
	defer src.Close()
	for i := 0; i < src.Len(); i++ {
		t := time.Now()
		if _, err := src.FetchUnit(ctx, i); err != nil {
			return err
		}
		tr.record("dbsource.fetch", src.Unit(i).Name(), 0, t, time.Now())
	}
	pages := metricSum(reg, "autodetect_db_pages_total")
	lm.set("dbsource.page_ms", metricSum(reg, "autodetect_db_page_seconds_sum")*1e3/math.Max(pages, 1), "ms")
	lm.set("dbsource.pages", pages, "count")
	lm.set("dbsource.rows_per_page", metricSum(reg, "autodetect_db_rows_total")/math.Max(pages, 1), "count")
	return nil
}

// pipelineMetrics averages the stage timings of the workload's builds.
func pipelineMetrics(builds []buildStats, lm metrics) {
	var stage = map[pipeline.Stage]float64{}
	var elapsed, busy, countWorkers, parse, ckpt float64
	for _, b := range builds {
		for s, d := range b.stages {
			stage[s] += d
		}
		elapsed += b.elapsed
		busy += b.busy
		countWorkers += b.stages[pipeline.StageCount] * float64(b.workers)
		parse += b.parse
		ckpt += float64(b.ckptBytes)
	}
	n := float64(max(len(builds), 1))
	staged := 0.0
	for _, s := range []pipeline.Stage{pipeline.StageCount, pipeline.StageMerge, pipeline.StageDistsup, pipeline.StageCalibrate, pipeline.StageSelect} {
		lm.set("pipeline."+string(s)+"_s", stage[s]/n, "s")
		staged += stage[s]
	}
	lm.set("pipeline.checkpoint_s", (elapsed-staged)/n, "s")
	lm.set("pipeline.worker_utilization", busy/math.Max(countWorkers, 1e-9), "ratio")
	lm.set("pipeline.checkpoint_mb", ckpt/n/(1<<20), "MB")
	lm.set("corpus.parse_ms", parse*1e3/n, "ms")
}

// pairEntries replays the builds' corpus through a stats.Builder over
// their candidate languages and counts co-occurrence entries: the memory
// the counting stage holds before selection drops most languages.
func pairEntries(shards string, langs []pattern.Language) (int, error) {
	if langs == nil {
		langs = pattern.All()
	}
	files, err := filepath.Glob(filepath.Join(shards, "*.csv"))
	if err != nil {
		return 0, err
	}
	sort.Strings(files)
	b := stats.NewBuilder(langs, stats.DefaultSmoothing)
	for _, f := range files {
		cols, err := readCSVFile(f)
		if err != nil {
			return 0, err
		}
		for _, c := range cols {
			b.AddColumn(c.Values)
		}
	}
	total := 0
	for _, ls := range b.Stats() {
		total += ls.PairStoreEntries()
	}
	return total, nil
}

func readCSVFile(path string) ([]*corpus.Column, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadCSV(f, true)
}

// distinctValues lists a column's distinct non-empty values in first-seen
// order, the set DetectColumn encodes.
func distinctValues(values []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range values {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// distinctFromPairs inverts pairs = n(n-1)/2.
func distinctFromPairs(pairs uint64) int {
	return int(math.Round((1 + math.Sqrt(1+8*float64(pairs))) / 2))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
