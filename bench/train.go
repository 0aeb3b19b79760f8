package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/semantic"
)

// trainWorkload builds models back to back with pipeline.Run over a
// directory of CSV shards, checkpointing along the way, and scores the
// model on a labelled WIKI panel. The corpus is a fixed column multiset;
// --seed lays it out into shards and stream order. A build's model depends
// only on the multiset, so every build of every seed must produce the same
// bytes: that is this workload's correctness gate.
type trainWorkload struct {
	o      options
	cols   []*corpus.Column
	shards string
	panel  []*corpus.Column

	builds []buildStats
	shas   map[string]int
	last   []byte // the newest build's serialized model
}

func (w *trainWorkload) setup(context.Context) error {
	w.cols = trainingColumns(w.o.sc.trainColumns, corpusSeed)
	w.shards = filepath.Join(w.o.work, "train-shards")
	if err := os.RemoveAll(w.shards); err != nil {
		return err
	}
	if err := writeShards(w.shards, w.cols, w.o.seed); err != nil {
		return err
	}
	w.panel = wikiPanel(w.o.sc.trainPanel)
	w.builds, w.shas, w.last = nil, map[string]int{}, nil
	return nil
}

func (w *trainWorkload) close() error { return nil }

// checkpointEvery spreads three checkpoint barriers over the corpus, the
// most the pipeline keeps on disk by default.
func (w *trainWorkload) checkpointEvery() int { return (w.o.sc.trainColumns + 2) / 3 }

// measure runs builds back to back, each from a collected heap and an
// empty checkpoint directory, until d has passed.
func (w *trainWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	ckpt := filepath.Join(w.o.work, "train-checkpoints")
	start := time.Now()
	freed := start
	for i := 0; ctx.Err() == nil && (i == 0 || time.Since(start) < d); i++ {
		if err := os.RemoveAll(ckpt); err != nil {
			return ph, err
		}
		runtime.GC()
		t := time.Now()
		ph.genLagMS = append(ph.genLagMS, ms(t.Sub(freed)))
		ph.attempted++
		res, bs, err := runBuild(ctx, w.shards, ckpt, w.checkpointEvery(), trainConfig(w.o.sc.langs, w.o.sc.trainPairs))
		if err != nil {
			return ph, fmt.Errorf("build %d: %w", i, err)
		}
		end := time.Now()
		tr.record("build", strconv.Itoa(len(w.builds)), 0, t, end)
		w.builds = append(w.builds, bs)
		ph.rounds = append(ph.rounds, round{
			latencyMS: []float64{bs.elapsed * 1e3},
			columns:   int(bs.columns),
			seconds:   bs.elapsed,
		})

		var buf bytes.Buffer
		if err := res.Detector.Save(&buf); err != nil {
			return ph, err
		}
		sum := sha256.Sum256(buf.Bytes())
		w.shas[hex.EncodeToString(sum[:])]++
		w.last = buf.Bytes()
		freed = time.Now()
		ph.clientMS = append(ph.clientMS, ms(freed.Sub(end)))
	}
	return ph, os.RemoveAll(ckpt)
}

// verify checks that every build produced the same model bytes, then
// scores the reloaded model on the panel.
func (w *trainWorkload) verify(ctx context.Context) (verdict, error) {
	var v verdict
	if len(w.shas) != 1 {
		v.mismatches = append(v.mismatches, fmt.Sprintf("%d builds produced %d different models", len(w.builds), len(w.shas)))
	}
	det, err := core.Load(bytes.NewReader(w.last))
	if err != nil {
		return v, fmt.Errorf("reloading the trained model: %w", err)
	}
	found := reference(ctx, det, nil, w.panel, nil)
	v.sha = findingsSHA(found)
	v.ensemble = ensembleIDs(det)
	v.precision, v.recall, v.planted = quality(w.panel, found)
	return v, ctx.Err()
}

func (w *trainWorkload) layers(ctx context.Context, tr *tracer, lm metrics) error {
	det, err := core.Load(bytes.NewReader(w.last))
	if err != nil {
		return err
	}
	// The served pair for the replay: the trained detector plus a value
	// model over the same corpus, as autodetectd -train builds it.
	sem, err := semantic.Train(&corpus.Corpus{Columns: w.cols}, semantic.DefaultConfig())
	if err != nil {
		return err
	}
	items := make([]replayItem, 0, w.o.sc.replayColumns)
	for _, c := range w.panel[:min(len(w.panel), w.o.sc.replayColumns)] {
		items = append(items, replayItem{col: c})
	}
	return replayLayers(ctx, layerInput{
		det: det, sem: sem, items: items, work: w.o.work,
		builds: w.builds, buildShards: w.shards, buildLangs: w.o.sc.langs,
	}, tr, lm)
}
