// Quickstart: train a small Auto-Detect model on a synthetic web-table
// corpus and flag the error in a column — a 30-line end-to-end tour of the
// public API.
package main

import (
	"fmt"
	"log"

	autodetect "repro"
)

func main() {
	// 1. Get training columns. Real deployments train on a large corpus of
	// existing tables; the built-in generator stands in for that here.
	columns, err := autodetect.GenerateColumns(autodetect.ProfileWeb, 5000, 42)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train. This computes pattern co-occurrence statistics under the
	// 144 candidate generalization languages (counting one per class of
	// languages that partition values alike, 50 in all), calibrates each to
	// 95% precision with automatically generated training pairs, and
	// selects the best ensemble under a 64 MB budget.
	cfg := autodetect.DefaultConfig()
	cfg.TrainingPairs = 10000
	model, err := autodetect.Train(columns, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("model:", model.Stats())

	// 3. Detect. The last value uses a different date format — a classic
	// copy-paste error that is invisible to spell checkers.
	column := []string{
		"2011-01-01", "2012-05-14", "2013-11-30",
		"2014-02-07", "2015-08-19", "2011/06/20",
	}
	for _, f := range model.DetectColumn(column) {
		if f.Confidence < 0.5 {
			continue // the majority side of a conflict scores low
		}
		fmt.Printf("row %d: %q conflicts with %q (confidence %.2f)\n",
			f.Index, f.Value, f.Partner, f.Confidence)
	}
}
