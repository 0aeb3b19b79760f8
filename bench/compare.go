package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare and the smoke test need.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved may rest on.
const minPairs = 10

// compareMain judges a change's recorded runs against its parent's:
//
//	bench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR
//
// Runs pair up by workload and seed. A metric is improved when the change
// wins at least 9 of every 10 pairs, the medians differ by more than the
// parent's interquartile range, and no more operations fail than at the
// parent; regressed when the change's median is worse than the parent's by
// more than the metric's bound; unresolved when there are fewer than ten
// alternating pairs, or when the parent's own spread exceeds the bound and
// not every change run beats every parent run; otherwise unchanged. It
// exits 1 if anything regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: ./ or ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
		return 2
	}
	regressed := false
	fmt.Printf("%-13s %-18s %-11s %14s %-23s %14s %-23s %8s %7s %6s\n",
		"workload", "metric", "verdict", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "wins", "bound")
	for _, wl := range sp.Workloads {
		pairs := pairUp(parent[wl.Name], change[wl.Name])
		why := ""
		switch {
		case len(pairs) < minPairs:
			why = fmt.Sprintf("only %d pairs", len(pairs))
		case !alternating(pairs):
			why = "pairs do not alternate which side ran first"
		}
		pf, cf := failedShare(pairs)
		for _, m := range sp.EndToEnd {
			row := judge(pairs, m.Name, m.Better, m.Bound, pf, cf, why)
			regressed = regressed || row.verdict == "regressed"
			fmt.Printf("%-13s %-18s %-11s %14.6g %-23s %14.6g %-23s %7.2f%% %7s %5.1f%%\n",
				wl.Name, m.Name, row.verdict, row.pMed, fmtQ(row.pQ1, row.pQ3), row.cMed, fmtQ(row.cQ1, row.cQ3),
				100*row.delta, fmt.Sprintf("%d/%d", row.wins, len(pairs)), 100*m.Bound)
		}
		verdict := "unchanged"
		if cf > pf {
			verdict = "regressed"
			regressed = true
		}
		fmt.Printf("%-13s %-18s %-11s %14.6g %-23s %14.6g\n", wl.Name, "failed_share", verdict, pf, "", cf)
		if why != "" {
			fmt.Printf("%-13s unresolved: %s\n", wl.Name, why)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func fmtQ(q1, q3 float64) string { return fmt.Sprintf("[%.6g, %.6g]", q1, q3) }

// verdictRow is one workload × metric judgement.
type verdictRow struct {
	verdict        string
	pMed, pQ1, pQ3 float64
	cMed, cQ1, cQ3 float64
	delta          float64 // change vs parent median, positive = better
	wins           int
}

// judge applies the benchmark's decision rule to one metric.
func judge(pairs [][2]*record, name, better string, bound, pf, cf float64, unresolved string) verdictRow {
	var p, c []float64
	wins := 0
	sign := 1.0 // +1: higher is better
	if better == "lower" {
		sign = -1
	}
	for _, pr := range pairs {
		pv, cv := pr[0].Metrics[name].Value, pr[1].Metrics[name].Value
		p = append(p, pv)
		c = append(c, cv)
		if sign*(cv-pv) > 0 {
			wins++
		}
	}
	r := verdictRow{wins: wins, verdict: "unresolved"}
	if len(pairs) == 0 {
		return r
	}
	r.pMed, r.cMed = median(p), median(c)
	r.pQ1, r.pQ3 = quartiles(p)
	r.cQ1, r.cQ3 = quartiles(c)
	if r.pMed != 0 {
		r.delta = sign * (r.cMed - r.pMed) / math.Abs(r.pMed)
	}
	if unresolved != "" {
		return r
	}
	allBetter := true
	for _, pv := range p {
		for _, cv := range c {
			allBetter = allBetter && sign*(cv-pv) > 0
		}
	}
	spread := (r.pQ3 - r.pQ1) / math.Abs(r.pMed)
	switch {
	case 10*wins >= 9*len(pairs) && math.Abs(r.cMed-r.pMed) > r.pQ3-r.pQ1 && r.delta > 0 && cf <= pf:
		r.verdict = "improved"
	case spread > bound && !allBetter:
		r.verdict = "unresolved"
	case -r.delta > bound:
		r.verdict = "regressed"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// pairUp matches parent and change runs of one workload by seed, in start
// order within a seed.
func pairUp(parent, change []*record) [][2]*record {
	bySeed := func(rs []*record) map[int64][]*record {
		m := map[int64][]*record{}
		for _, r := range rs {
			m[r.Seed] = append(m[r.Seed], r)
		}
		for _, v := range m {
			sort.Slice(v, func(i, j int) bool { return v[i].StartedUnixNs < v[j].StartedUnixNs })
		}
		return m
	}
	ps, cs := bySeed(parent), bySeed(change)
	var seeds []int64
	for s := range ps {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var out [][2]*record
	for _, s := range seeds {
		for i := 0; i < len(ps[s]) && i < len(cs[s]); i++ {
			out = append(out, [2]*record{ps[s][i], cs[s][i]})
		}
	}
	return out
}

// alternating reports whether the parent ran first in about half the
// pairs, so drift in the machine's state cannot favour one side.
func alternating(pairs [][2]*record) bool {
	first := 0
	for _, pr := range pairs {
		if pr[0].StartedUnixNs < pr[1].StartedUnixNs {
			first++
		}
	}
	return abs(2*first-len(pairs)) <= 1
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// failedShare is failed ÷ attempted over each side's paired runs.
func failedShare(pairs [][2]*record) (parent, change float64) {
	var pa, pf, ca, cf int
	for _, pr := range pairs {
		pa += pr[0].Attempted
		pf += pr[0].Failed
		ca += pr[1].Attempted
		cf += pr[1].Failed
	}
	return float64(pf) / math.Max(float64(pa), 1), float64(cf) / math.Max(float64(ca), 1)
}

func loadSpec(path string) (*spec, error) {
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = filepath.Join("..", "BENCHMARK.json")
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// loadRecords reads every untraced run record under dir, by workload.
func loadRecords(dir string) (map[string][]*record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*record{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	return out, nil
}
