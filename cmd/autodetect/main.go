// Command autodetect trains Auto-Detect models and detects errors in CSV
// files.
//
// Train a model on a synthetic web-table corpus (or your own CSV corpus)
// and save it:
//
//	autodetect train -profile web -columns 20000 -out model.bin
//	autodetect train -corpus mytables.csv -out model.bin
//
// Detect errors in the columns of a CSV file:
//
//	autodetect detect -model model.bin -in data.csv
//
// Score a single pair of values:
//
//	autodetect pair -model model.bin "2011-01-01" "2011/01/01"
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/audit"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dbsource"
	"repro/internal/eval"
	"repro/internal/observe"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/report"
)

// logger carries training diagnostics on stderr; detection output (the
// data the user piped us for) stays on stdout.
var logger = observe.NewLogger(os.Stderr, observe.LogOptions{Component: "autodetect"})

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "pair":
		err = cmdPair(os.Args[2:])
	case "baselines":
		err = cmdBaselines(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		logger.Error("command failed", "subcommand", os.Args[1], "error", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  autodetect train  -out model.bin [-profile web|spreadsheet] [-columns N] [-corpus file.csv] [-dir tables/] [-dsn DSN -driver name] [-workers N] [-checkpoint dir/] [-checkpoint-every N] [-sample N] [-pairs N] [-budget MB] [-precision P] [-seed N] [-max-bad-files N] [-max-bad-frac F] [-quarantine-dir dir/] [-io-retries N]
  autodetect detect -model model.bin -in data.csv [-header] [-min-confidence P]
  autodetect pair   -model model.bin VALUE1 VALUE2
  autodetect baselines -in data.csv [-header]
  autodetect eval   -model model.bin -in corpus.csv -labels labels.tsv [-k 10,50,100]
  autodetect profile -in data.csv [-header]`)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "model.bin", "output model path")
	profile := fs.String("profile", "web", "synthetic corpus profile (web|spreadsheet)")
	columns := fs.Int("columns", 20000, "synthetic corpus size")
	corpusPath := fs.String("corpus", "", "train on the columns of this CSV instead of a synthetic corpus")
	dir := fs.String("dir", "", "train on every .csv/.tsv under this directory, streamed one table at a time")
	dsn := fs.String("dsn", "", "train on every table.column of this SQL database, streamed in keyset pages")
	dbDriver := fs.String("driver", dbsource.DriverName, "database/sql driver for -dsn (sqlite3, postgres, mysql, or the in-tree in-memory driver)")
	header := fs.Bool("header", true, "table files start with a header row (-corpus/-dir)")
	budget := fs.Int("budget", 64, "memory budget in MB")
	precision := fs.Float64("precision", 0.95, "target precision P")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory: periodic shard saves, resume on restart")
	checkpointEvery := fs.Int("checkpoint-every", 100000, "columns between checkpoints")
	build := pipeline.BuildFlags{Workers: runtime.NumCPU(), Pairs: 20000, Seed: 1, IORetries: 3}
	build.RegisterCount(fs)
	build.RegisterIngest(fs)
	traceOut := fs.String("trace-out", "", "record the train run in a flight recorder and write its span timeline (JSON) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 0
	for _, set := range []bool{*dir != "", *corpusPath != "", *dsn != ""} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return fmt.Errorf("-dir, -corpus and -dsn are mutually exclusive")
	}
	if err := build.Check(); err != nil {
		return err
	}

	var src pipeline.ColumnSource
	switch {
	case *dir != "":
		ds, err := pipeline.NewDirSourceWith(*dir, build.DirConfig(*header))
		if err != nil {
			return err
		}
		logger.Info("streaming table files", "files", ds.Files(), "dir", *dir,
			"max_bad_files", build.MaxBadFiles, "max_bad_frac", build.MaxBadFrac, "io_retries", build.IORetries)
		src = ds
	case *dsn != "":
		db, err := dbsource.NewSource(context.Background(), dbsource.Config{
			Driver: *dbDriver,
			DSN:    *dsn,
			Retry:  build.Retry(),
		})
		if err != nil {
			return err
		}
		defer db.Close()
		logger.Info("streaming database columns", "driver", *dbDriver,
			"columns", db.Len(), "schema_hash", db.SchemaHash(), "io_retries", build.IORetries)
		src = db
	case *corpusPath != "":
		cols, err := readCSV(*corpusPath, *header)
		if err != nil {
			return err
		}
		src = pipeline.NewSliceSource(cols)
	default:
		var p corpus.Profile
		switch *profile {
		case "web":
			p = corpus.WebProfile()
		case "spreadsheet":
			p = corpus.PubXLSProfile()
		default:
			return fmt.Errorf("unknown profile %q", *profile)
		}
		logger.Info("streaming synthetic columns", "columns", *columns, "profile", p.Name)
		src = pipeline.NewGeneratedSource(p, *columns, build.Seed)
	}

	opts := build.Options()
	opts.Train.TargetPrecision = *precision
	opts.Train.MemoryBudget = *budget << 20
	opts.CheckpointDir, opts.CheckpointEvery = *checkpoint, *checkpointEvery
	opts.Progress = func(p pipeline.Progress) { pipeline.WriteProgress(os.Stderr, p) }

	// SIGINT/SIGTERM cancel the build; with -checkpoint set the pipeline
	// persists a final shard first, so the same command resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With -trace-out, the run records into a private flight recorder
	// (sampling off: there is exactly one trace and we want it) and the
	// completed timeline is written as a JSON artifact.
	var tracer *observe.Tracer
	if *traceOut != "" {
		tracer = observe.NewTracer(observe.NewFlightRecorder(observe.RecorderConfig{SampleEvery: 1}), nil)
		ctx = observe.ContextWithTracer(ctx, tracer)
	}
	trainCtx, endTrain := observe.RecorderSpan(ctx, "train")
	dumpTrace := func() error {
		endTrain()
		if tracer == nil {
			return nil
		}
		traces := tracer.Recorder().Snapshot(observe.TraceFilter{})
		if len(traces) == 0 {
			return nil
		}
		raw, err := json.MarshalIndent(traces[0], "", "  ")
		if err != nil {
			return err
		}
		if err := atomicio.WriteFile(*traceOut, raw, 0o644); err != nil {
			return err
		}
		logger.Info("trace written", "trace_out", *traceOut,
			"trace_id", traces[0].TraceID, "spans", len(traces[0].Spans))
		return nil
	}

	logger.Info("training", "workers", build.Workers)
	res, err := pipeline.Run(trainCtx, src, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) && *checkpoint != "" {
			logger.Warn("interrupted; rerun the same command to resume", "checkpoint", *checkpoint)
		}
		observe.SetSpanError(trainCtx, err.Error())
		if derr := dumpTrace(); derr != nil {
			logger.Warn("trace artifact not written", "error", derr)
		}
		return err
	}
	observe.SetSpanAttr(trainCtx, "columns", strconv.FormatUint(res.Columns, 10))
	rep := res.Report
	logger.Info("trained", "columns", res.Columns, "values", res.Values,
		"elapsed", res.Elapsed.Round(10*time.Millisecond).String(),
		"resumed_columns", res.ResumedColumns,
		"candidate_languages", rep.CandidateLanguages, "counted_languages", rep.CountedLanguages)
	if res.FilesSkipped > 0 || res.ColumnsQuarantined > 0 {
		logger.Warn("degraded ingestion", "files_skipped", res.FilesSkipped,
			"columns_quarantined", res.ColumnsQuarantined, "quarantine_dir", build.QuarantineDir)
	}
	if res.CorruptCheckpointsSkipped > 0 {
		logger.Warn("corrupt checkpoint shards skipped on resume",
			"shards", res.CorruptCheckpointsSkipped)
	}
	for _, st := range res.Stages {
		logger.Info("stage timing", "stage", string(st.Stage),
			"elapsed", st.Duration.Round(time.Millisecond).String())
	}
	logger.Info("selected", "languages", len(rep.Selected), "model_bytes", rep.SelectedBytes,
		"coverage", rep.Coverage, "negatives", rep.TrainingExamples/2)
	for _, l := range rep.Selected {
		fmt.Printf("  %v\n", l)
	}
	// Durable save: temp file + fsync + rename, so a crash mid-write can
	// never leave a truncated model at -out.
	if err := atomicio.WriteTo(*out, 0o644, res.Detector.Save); err != nil {
		return err
	}
	logger.Info("model written", "out", *out, "model_bytes", rep.SelectedBytes)
	return dumpTrace()
}

// readCSV reads the columns of the CSV file at path.
func readCSV(path string, header bool) ([]*corpus.Column, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadCSV(f, header)
}

func loadModel(path string) (*core.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	modelPath := fs.String("model", "model.bin", "trained model path")
	in := fs.String("in", "", "input CSV file")
	header := fs.Bool("header", true, "first CSV row is a header")
	minConf := fs.Float64("min-confidence", 0.9, "report findings at or above this confidence (<= 0 means 0.5)")
	htmlOut := fs.String("html", "", "also write an HTML audit report to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -in")
	}
	det, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	cols, err := readCSV(*in, *header)
	if err != nil {
		return err
	}
	rep := &report.Report{
		Title: "Auto-Detect audit of " + *in,
		ModelSummary: fmt.Sprintf("%d languages, %.1f MB statistics",
			len(det.Languages()), float64(det.Bytes())/(1<<20)),
	}
	found, firstRow := 0, 0
	if *header {
		firstRow = 1
	}
	for _, col := range cols {
		perRow := map[int]audit.Finding{}
		for _, f := range audit.CheckColumn(context.Background(), det, nil, col.Values, *minConf) {
			found++
			line := fmt.Sprintf("%s: row %d: %q conflicts with %q (confidence %.3f)",
				col.Name, f.Index+firstRow, f.Value, f.Partner, f.Confidence)
			if f.Suggestion != "" {
				line += fmt.Sprintf(" — suggest %q (%s)", f.Suggestion, f.SuggestionRule)
			}
			perRow[f.Index] = f
			fmt.Println(line)
		}
		rep.AddColumn(col.Name, col.Values, perRow)
	}
	fmt.Printf("%d findings across %d columns\n", found, len(cols))
	if *htmlOut != "" {
		hf, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		defer hf.Close()
		if err := rep.Render(hf); err != nil {
			return err
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	return nil
}

func cmdPair(args []string) error {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	modelPath := fs.String("model", "model.bin", "trained model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("need exactly two values")
	}
	det, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	ps := det.ScorePair(fs.Arg(0), fs.Arg(1))
	fmt.Printf("incompatible=%v confidence=%.3f\n", ps.Flagged, ps.Confidence)
	for _, l := range ps.ByLanguage {
		fmt.Printf("  language %3d: NPMI %+6.3f fires=%v precision=%.3f\n",
			l.LanguageID, l.NPMI, l.Fires, l.Precision)
	}
	return nil
}

// cmdEval scores a model against a labeled corpus: a CSV of columns (as
// written by corpusgen) plus a ground-truth file of "column<TAB>row<TAB>value"
// lines. It reports pooled precision@k.
func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	modelPath := fs.String("model", "model.bin", "trained model path")
	in := fs.String("in", "", "labeled corpus CSV")
	labelsPath := fs.String("labels", "", "ground-truth TSV (column, row, value)")
	kList := fs.String("k", "10,50,100", "comma-separated precision@k cut-offs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *labelsPath == "" {
		return fmt.Errorf("need -in and -labels")
	}
	det, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	cols, err := readCSV(*in, true)
	if err != nil {
		return err
	}
	lf, err := os.Open(*labelsPath)
	if err != nil {
		return err
	}
	defer lf.Close()
	for i := range cols {
		cols[i].Dirty = []int{}
	}
	sc := bufio.NewScanner(lf)
	for sc.Scan() {
		var ci, ri int
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			continue
		}
		if _, err := fmt.Sscanf(parts[0]+" "+parts[1], "%d %d", &ci, &ri); err != nil {
			continue
		}
		v := parts[2]
		if ci < 0 || ci >= len(cols) || ri < 0 || ri >= len(cols[ci].Values) {
			return fmt.Errorf("label out of range: %s", sc.Text())
		}
		if cols[ci].Values[ri] != v {
			return fmt.Errorf("label mismatch at column %d row %d: corpus has %q, labels say %q",
				ci, ri, cols[ci].Values[ri], v)
		}
		cols[ci].Dirty = append(cols[ci].Dirty, ri)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	var ks []int
	for _, s := range strings.Split(*kList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k <= 0 {
			return fmt.Errorf("bad -k entry %q", s)
		}
		ks = append(ks, k)
	}
	r := eval.EvaluateCorpus(&baselines.AutoDetect{Det: det}, cols, ks)
	fmt.Printf("pooled predictions: %d (correct %d)\n", r.Predictions, r.Correct)
	for _, k := range ks {
		fmt.Printf("precision@%d = %.3f\n", k, r.PrecisionAt[k])
	}
	return nil
}

// cmdProfile prints Trifacta-style column profiles (shape, length and
// character-class distributions) for every column of a CSV.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("in", "", "input CSV file")
	header := fs.Bool("header", true, "first CSV row is a header")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -in")
	}
	cols, err := readCSV(*in, *header)
	if err != nil {
		return err
	}
	for _, col := range cols {
		fmt.Printf("== %s ==\n%s\n", col.Name, profile.Column(col.Values))
	}
	return nil
}

func cmdBaselines(args []string) error {
	fs := flag.NewFlagSet("baselines", flag.ExitOnError)
	in := fs.String("in", "", "input CSV file")
	header := fs.Bool("header", true, "first CSV row is a header")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -in")
	}
	cols, err := readCSV(*in, *header)
	if err != nil {
		return err
	}
	for _, col := range cols {
		for _, det := range baselines.All() {
			preds := det.Detect(col.Values)
			if len(preds) == 0 {
				continue
			}
			fmt.Printf("%s: %s flags %q (confidence %.3f)\n",
				col.Name, det.Name(), preds[0].Value, preds[0].Confidence)
		}
	}
	return nil
}
