package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/corpus"
)

// Fixed seeds. The serving model, the labelled quality panels and the
// training corpus are fixtures, identical for every --seed: the quality
// metrics are then deterministic per commit and two commits can be diffed
// for "same findings". --seed varies the traffic each workload sends (for
// train, the corpus's shard layout and stream order).
const (
	modelSeed  = 20180610
	panelSeed  = 424242
	corpusSeed = 777
	// plantRate is the share of clean columns that get one planted error.
	plantRate = 0.2
)

// trainingColumns is a WEB + Pub-XLS corpus of n columns, the mix the
// serving model and the train workload learn from.
func trainingColumns(n int, seed int64) []*corpus.Column {
	web := corpus.Generate(corpus.WebProfile(), n/2, seed)
	pub := corpus.Generate(corpus.PubXLSProfile(), n-n/2, seed+1)
	return append(web.Columns, pub.Columns...)
}

// writeShards writes cols as CSV files under dir, one file per column
// length, so no file pads a short column with empty cells: padding would
// make the corpus's content depend on its layout, and with it the trained
// model. layout seeds the order of the files and of the columns in each;
// the file count is the same for every layout.
func writeShards(dir string, cols []*corpus.Column, layout int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(layout))
	byLen := map[int][]*corpus.Column{}
	var lens []int
	for _, c := range cols {
		if byLen[len(c.Values)] == nil {
			lens = append(lens, len(c.Values))
		}
		byLen[len(c.Values)] = append(byLen[len(c.Values)], c)
	}
	sort.Ints(lens)
	files := make([][]*corpus.Column, len(lens))
	for i, l := range lens {
		g := byLen[l]
		r.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		files[i] = g
	}
	r.Shuffle(len(files), func(a, b int) { files[a], files[b] = files[b], files[a] })
	for i, part := range files {
		var buf bytes.Buffer
		if err := corpus.WriteCSV(&buf, part); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.csv", i)), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// plant gives each column without a labelled error one planted error with
// probability plantRate.
func plant(r *rand.Rand, cols []*corpus.Column) {
	for _, c := range cols {
		if c.Dirty == nil {
			c.Dirty = []int{}
		}
		if len(c.Dirty) == 0 && r.Float64() < plantRate {
			corpus.InjectError(r, c)
		}
	}
}

// narrowColumns is interactive traffic: alternating WIKI and Ent-XLS
// columns of 5-40 rows, with errors planted in about a fifth of them.
func narrowColumns(n int, seed int64) []*corpus.Column {
	wiki := corpus.NewStream(corpus.WikiProfile(), seed*3+1)
	ent := corpus.NewStream(corpus.EntXLSProfile(), seed*3+2)
	cols := make([]*corpus.Column, n)
	for i := range cols {
		if i%2 == 0 {
			cols[i] = wiki.Next()
		} else {
			cols[i] = ent.Next()
		}
	}
	plant(rand.New(rand.NewSource(seed*3+3)), cols)
	return cols
}

// wideDomains are formatted domains whose values share a handful of
// patterns per language, the property pattern-level scoring exploits.
var wideDomains = []string{
	"date_iso", "date_us", "id_prefixed", "phone_dash", "phone_paren",
	"currency_usd", "percent", "zip5", "sku", "time_hms",
}

// wideColumns are n columns of minRows..maxRows values with exactly one
// planted error each, at a uniformly random row: most land past the
// detector's 100th distinct value.
func wideColumns(n, minRows, maxRows int, seed int64) []*corpus.Column {
	r := rand.New(rand.NewSource(seed))
	cols := make([]*corpus.Column, 0, n)
	for len(cols) < n {
		d := wideDomains[len(cols)%len(wideDomains)]
		c, err := corpus.GenerateColumn(r, d, minRows+r.Intn(maxRows-minRows+1))
		if err != nil {
			panic(err) // unreachable: wideDomains are generator domains
		}
		c.Dirty = []int{}
		if corpus.InjectError(r, c) == "" {
			continue
		}
		cols = append(cols, c)
	}
	return cols
}

// wikiPanel is the labelled WIKI set the train workload scores its models
// on.
func wikiPanel(n int) []*corpus.Column {
	cols := corpus.Generate(corpus.WikiProfile(), n, panelSeed).Columns
	plant(rand.New(rand.NewSource(panelSeed+1)), cols)
	return cols
}
