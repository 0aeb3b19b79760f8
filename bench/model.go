package main

import (
	"bufio"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/distsup"
	"repro/internal/observe"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/semantic"
)

// loadWidth bounds the harness's parallelism: client connections, job
// workers and pipeline workers. Load comes from this one process and never
// exceeds the machine's CPU count.
var loadWidth = min(2, runtime.NumCPU())

// sampleColumns bounds the distant-supervision sample (the daemon's
// default). A bounded sample is a function of the column multiset only, so
// a build's model does not depend on shard layout or stream order.
const sampleColumns = 100000

// buildStats is what one pipeline build reports through its Result and its
// metrics registry.
type buildStats struct {
	columns   uint64
	elapsed   float64 // s
	stages    map[pipeline.Stage]float64
	busy      float64 // worker busy seconds
	workers   int
	parse     float64 // s spent parsing CSV shards
	ckptBytes int64   // bytes of checkpoint shards written
}

// runBuild runs one pipeline build over a directory of CSV shards. With a
// checkpoint directory the build keeps its shards so their size can be
// measured (the caller deletes them); callers pick every so that no more
// than the pipeline's default of three shards are written, none pruned.
func runBuild(ctx context.Context, shards, ckptDir string, every int, train core.TrainConfig) (*pipeline.Result, buildStats, error) {
	reg := observe.NewRegistry()
	src, err := pipeline.NewDirSource(shards, true)
	if err != nil {
		return nil, buildStats{}, err
	}
	opts := pipeline.Options{
		Workers:       loadWidth,
		Train:         train,
		SampleColumns: sampleColumns,
		Metrics:       reg,
	}
	if ckptDir != "" {
		opts.CheckpointDir = ckptDir
		opts.CheckpointEvery = every
		opts.KeepCheckpoints = true
	}
	res, err := pipeline.Run(ctx, src, opts)
	if err != nil {
		return nil, buildStats{}, err
	}
	bs := buildStats{
		columns: res.Columns,
		elapsed: res.Elapsed.Seconds(),
		stages:  map[pipeline.Stage]float64{},
		busy:    metricSum(reg, "autodetect_pipeline_worker_busy_seconds_total"),
		workers: loadWidth,
		parse:   metricSum(reg, "autodetect_pipeline_file_parse_seconds_sum"),
	}
	for _, st := range res.Stages {
		bs.stages[st.Stage] += st.Duration.Seconds()
	}
	if ckptDir != "" {
		bs.ckptBytes = dirBytes(ckptDir)
	}
	return res, bs, nil
}

// trainConfig is the algorithm configuration every build uses; langs nil
// means all 144 candidate languages. Everything else is at its default.
func trainConfig(langs []pattern.Language, pairs int) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.Languages = langs
	ds := distsup.DefaultConfig()
	ds.PositivePairs, ds.NegativePairs = pairs, pairs
	cfg.DistSup = ds
	return cfg
}

// model is what the serving workloads serve, with the record of its build.
type model struct {
	det    *core.Detector
	sem    *semantic.Model
	build  buildStats
	shards string // the CSV corpus it was built from
}

// buildServingModel builds the served model the way autodetectd -train-dir
// does: a pipeline build over a directory of CSV shards, at full scale over
// all 144 languages with the daemon's default 10,000 pairs per class, plus
// the value-level semantic model over the same corpus.
func buildServingModel(ctx context.Context, dir string, sc scale) (*model, error) {
	cols := trainingColumns(sc.modelColumns, modelSeed)
	shards := filepath.Join(dir, "model-shards")
	if err := os.RemoveAll(shards); err != nil {
		return nil, err
	}
	if err := writeShards(shards, cols, modelSeed); err != nil {
		return nil, err
	}
	res, bs, err := runBuild(ctx, shards, "", 0, trainConfig(sc.langs, sc.modelPairs))
	if err != nil {
		return nil, err
	}
	sem, err := semantic.Train(&corpus.Corpus{Columns: cols}, semantic.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &model{det: res.Detector, sem: sem, build: bs, shards: shards}, nil
}

// metricSum adds up every sample of the named series in the registry's
// text exposition (all label sets).
func metricSum(reg *observe.Registry, name string) float64 {
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		return 0
	}
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if base, _, _ := strings.Cut(series, "{"); base != name {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			total += v
		}
	}
	return total
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}
