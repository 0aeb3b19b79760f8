// Semanticmix demonstrates the value-level extension (the paper's stated
// future work): catching errors that are invisible to pattern
// generalization because every value has the same shape — here a city
// slipped into a column of US states.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/pipeline"
)

func main() {
	// One corpus pass feeds both detectors: the value-level model is the
	// build's count of raw values (the Leaf language), pruned to the
	// supported ones.
	c := corpus.Generate(corpus.WebProfile(), 6000, 5)

	res, err := pipeline.Run(context.Background(), pipeline.NewSliceSource(c.Columns), pipeline.Options{})
	if err != nil {
		log.Fatal(err)
	}
	patternModel, valueModel := res.Detector, res.Semantic

	column := []string{"Washington", "Oregon", "Texas", "Florida", "Ohio", "Seattle", "Nevada", "Utah"}
	fmt.Println("column:", column)

	// Pattern-level detection sees only capitalized-word shapes: it cannot
	// identify "Seattle" as the intruder. At best it is silent; at worst it
	// flags an unusually-shaped state instead.
	fmt.Println("\npattern-level (Auto-Detect core):")
	caught, flagged := false, false
	for _, f := range patternModel.DetectColumn(column) {
		if f.Confidence > 0.5 {
			fmt.Printf("  flags %q (%.2f)\n", f.Value, f.Confidence)
			flagged = true
			caught = caught || f.Value == "Seattle"
		}
	}
	switch {
	case !flagged:
		fmt.Println("  nothing — every value generalizes to the same pattern")
	case !caught:
		fmt.Println("  ... but not \"Seattle\": shapes alone cannot see the intruder")
	}

	// Value-level detection knows states co-occur with states.
	fmt.Println("\nvalue-level (semantic extension):")
	for _, f := range valueModel.DetectColumn(column) {
		if f.Confidence > 0.05 {
			fmt.Printf("  flags %q — rarely co-occurs with %q (confidence %.2f)\n",
				f.Value, f.Partner, f.Confidence)
		}
	}

	// The same machinery explains individual pairs.
	fmt.Println("\nvalue-level NPMI:")
	for _, pair := range [][2]string{{"Washington", "Oregon"}, {"Washington", "Seattle"}} {
		if s, ok := valueModel.NPMI(pair[0], pair[1]); ok {
			fmt.Printf("  NPMI(%q, %q) = %+.2f\n", pair[0], pair[1], s)
		}
	}
}
