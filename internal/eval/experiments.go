package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Scale sizes an experiment run. Small keeps unit tests and benchmarks
// fast; Full is used by cmd/experiments to regenerate EXPERIMENTS.md.
type Scale struct {
	// Name labels the scale in output.
	Name string
	// TrainColumns sizes the WEB+Pub-XLS training corpus.
	TrainColumns int
	// TestColumns sizes each labeled test corpus (WIKI, Ent-XLS).
	TestColumns int
	// DirtyCases is the number of auto-eval dirty cases per figure.
	DirtyCases int
	// CorpusKs are the precision@k cut-offs for labeled-corpus figures
	// (Figure 4a).
	CorpusKs []int
	// CaseKs are the cut-offs for auto-eval figures (Figures 5–8).
	CaseKs []int
	// CSVKs are the cut-offs for the CSV suite (Figure 4b).
	CSVKs []int
	// TrainPairs sizes T+ and T− each.
	TrainPairs int
	// MemoryBudgets are the Figure 7 sweep points, in bytes.
	MemoryBudgets []int
	// SketchRatios are the Figure 8a sweep points (1 = exact).
	SketchRatios []float64
	// SmoothingFactors are the Figure 17a sweep points.
	SmoothingFactors []float64
}

// SmallScale returns a laptop-seconds configuration for tests and benches.
func SmallScale() Scale {
	return Scale{
		Name:             "small",
		TrainColumns:     6000,
		TestColumns:      3000,
		DirtyCases:       300,
		CorpusKs:         []int{5, 10, 25},
		CaseKs:           []int{10, 50, 100, 300},
		CSVKs:            []int{10, 20, 30, 40, 50},
		TrainPairs:       5000,
		MemoryBudgets:    []int{64 << 10, 1 << 20, 4 << 20},
		SketchRatios:     []float64{1, 0.1, 0.01},
		SmoothingFactors: []float64{0, 0.1, 0.2, 0.4, 0.8, 1},
	}
}

// FullScale returns the configuration used to regenerate EXPERIMENTS.md:
// a 10K-column training corpus (the candidate statistics, one per
// partition class of the 144 languages, stay in memory simultaneously —
// parameter sweeps need them live) and the paper's k grid scaled to corpus
// sizes a single machine can hold.
func FullScale() Scale {
	return Scale{
		Name:             "full",
		TrainColumns:     10000,
		TestColumns:      10000,
		DirtyCases:       2000,
		CorpusKs:         []int{50, 100, 200, 300},
		CaseKs:           []int{50, 100, 500, 1000, 2000},
		CSVKs:            []int{10, 20, 30, 40, 50},
		TrainPairs:       20000,
		MemoryBudgets:    []int{256 << 10, 4 << 20, 16 << 20, 64 << 20},
		SketchRatios:     []float64{1, 0.1, 0.01},
		SmoothingFactors: []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1},
	}
}

// Table is one rendered experiment artifact.
type Table struct {
	// ID is the paper artifact id (e.g. "Figure 5").
	ID string
	// Title describes the artifact.
	Title string
	// Header holds column names.
	Header []string
	// Rows holds the data, pre-formatted.
	Rows [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured Markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s — %s**\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Suite owns the shared state of an experiment run: the training corpus,
// the pipeline (statistics + training pairs), calibrations and the default
// detector, all built lazily and reused across experiments.
type Suite struct {
	// Scale sizes everything.
	Scale Scale
	// Seed drives all generation.
	Seed int64

	trainCorpus *corpus.Corpus
	pipe        *core.Pipeline
	cands       []*core.Calibration
	det         *core.Detector
	rep         *core.TrainReport

	wikiTest *corpus.Corpus // labeled, with planted errors
	entTest  *corpus.Corpus

	wikiCases map[int][]Case // ratio → auto-eval cases
	entCases  map[int][]Case
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(s Scale, seed int64) *Suite {
	return &Suite{Scale: s, Seed: seed, wikiCases: map[int][]Case{}, entCases: map[int][]Case{}}
}

// TrainCorpus lazily generates the WEB + Pub-XLS training mix.
func (s *Suite) TrainCorpus() *corpus.Corpus {
	if s.trainCorpus == nil {
		web := corpus.Generate(corpus.WebProfile(), s.Scale.TrainColumns*3/4, s.Seed)
		xls := corpus.Generate(corpus.PubXLSProfile(), s.Scale.TrainColumns/4, s.Seed+1)
		cols := append(append([]*corpus.Column{}, web.Columns...), xls.Columns...)
		s.trainCorpus = &corpus.Corpus{Name: "WEB+Pub-XLS", Columns: cols}
	}
	return s.trainCorpus
}

func (s *Suite) trainConfig() core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.DistSup.PositivePairs = s.Scale.TrainPairs
	cfg.DistSup.NegativePairs = s.Scale.TrainPairs
	cfg.DistSup.Seed = s.Seed
	return cfg
}

// options configures the suite's pipeline builds on the given number of
// workers (0 means one per CPU).
func (s *Suite) options(workers int) pipeline.Options {
	return pipeline.Options{Workers: workers, Train: s.trainConfig()}
}

// Pipeline lazily builds statistics and training pairs.
func (s *Suite) Pipeline() (*core.Pipeline, error) {
	if s.pipe == nil {
		// One counting worker holds each language's statistics once: the
		// full candidate space over the training corpus is the suite's
		// largest allocation. The per-language stages use every CPU.
		part, err := pipeline.CountPartial(context.Background(), pipeline.NewSliceSource(s.TrainCorpus().Columns), s.options(1))
		if err != nil {
			return nil, err
		}
		p, err := part.Prepare(s.options(0))
		if err != nil {
			return nil, err
		}
		s.pipe = p
	}
	return s.pipe, nil
}

// Calibrations lazily calibrates every candidate at the default precision
// target.
func (s *Suite) Calibrations() ([]*core.Calibration, error) {
	if s.cands == nil {
		p, err := s.Pipeline()
		if err != nil {
			return nil, err
		}
		cands, err := p.Calibrate(context.Background(), s.trainConfig().TargetPrecision, 0)
		if err != nil {
			return nil, err
		}
		s.cands = cands
	}
	return s.cands, nil
}

// Detector lazily builds the default detector (64 MB budget,
// max-confidence aggregation, exact stores).
func (s *Suite) Detector() (*core.Detector, *core.TrainReport, error) {
	if s.det == nil {
		cands, err := s.Calibrations()
		if err != nil {
			return nil, nil, err
		}
		det, rep, err := core.BuildDetector(cands, s.trainConfig().MemoryBudget, 0)
		if err != nil {
			return nil, nil, err
		}
		s.det, s.rep = det, rep
	}
	return s.det, s.rep, nil
}

// WikiTest lazily generates the labeled WIKI test corpus.
func (s *Suite) WikiTest() *corpus.Corpus {
	if s.wikiTest == nil {
		s.wikiTest = corpus.Generate(corpus.WikiProfile(), s.Scale.TestColumns, s.Seed+10)
	}
	return s.wikiTest
}

// EntTest lazily generates the labeled Ent-XLS test corpus.
func (s *Suite) EntTest() *corpus.Corpus {
	if s.entTest == nil {
		s.entTest = corpus.Generate(corpus.EntXLSProfile(), s.Scale.TestColumns, s.Seed+11)
	}
	return s.entTest
}

// autoCases lazily builds Section 4.4 cases at the given clean multiple.
func (s *Suite) autoCases(which string, ratio int) ([]Case, error) {
	var cacheMap map[int][]Case
	switch which {
	case "wiki":
		cacheMap = s.wikiCases
	case "ent":
		cacheMap = s.entCases
	default:
		return nil, fmt.Errorf("eval: unknown test corpus %q", which)
	}
	if cs, ok := cacheMap[ratio]; ok {
		return cs, nil
	}
	var src *corpus.Corpus
	var seed int64
	if which == "wiki" {
		p := corpus.WikiProfile()
		p.ErrorRate = 0
		src = corpus.Generate(p, s.Scale.TestColumns, s.Seed+20)
		seed = s.Seed + 30
	} else {
		p := corpus.EntXLSProfile()
		p.ErrorRate = 0
		src = corpus.Generate(p, s.Scale.TestColumns, s.Seed+21)
		seed = s.Seed + 31
	}
	cs, err := BuildAutoEval(src, s.Scale.DirtyCases, s.Scale.DirtyCases*ratio, seed)
	if err != nil {
		return nil, err
	}
	cacheMap[ratio] = cs
	return cs, nil
}

// autoDetectMethod wraps the default detector as a ranked method.
func (s *Suite) autoDetectMethod() (baselines.Detector, error) {
	det, _, err := s.Detector()
	if err != nil {
		return nil, err
	}
	return &baselines.AutoDetect{Det: det}, nil
}

// fmtP formats a precision value.
func fmtP(x float64) string { return fmt.Sprintf("%.3f", x) }

// resultRow renders one method's precision@k row.
func resultRow(r Result, ks []int) []string {
	row := []string{r.Method}
	for _, k := range ks {
		row = append(row, fmtP(r.PrecisionAt[k]))
	}
	return row
}

// Table3 reproduces Table 3: the corpora summary.
func (s *Suite) Table3() *Table {
	rows := [][]string{}
	add := func(name, role string, c *corpus.Corpus) {
		rows = append(rows, []string{name, role,
			fmt.Sprintf("%d", c.NumColumns()),
			fmt.Sprintf("%d", c.NumValues()),
			fmt.Sprintf("%d", c.DirtyColumns()),
		})
	}
	add("WEB+Pub-XLS", "train", s.TrainCorpus())
	add("WIKI", "test", s.WikiTest())
	add("Ent-XLS", "test", s.EntTest())
	add("CSV", "test", corpus.CSVSuite())
	return &Table{
		ID:     "Table 3",
		Title:  "summary of table corpora (synthetic substitutes)",
		Header: []string{"corpus", "role", "#col", "#values", "#dirty-col"},
		Rows:   rows,
	}
}

// Figure4a reproduces Figure 4(a): precision@k of every method on the
// labeled WIKI corpus.
func (s *Suite) Figure4a() (*Table, error) {
	return s.figure4("Figure 4a", "precision@k on WIKI (labeled corpus, top prediction per column)",
		s.WikiTest().Columns, s.Scale.CorpusKs)
}

// Figure4b reproduces Figure 4(b): precision@k on the labeled CSV suite.
func (s *Suite) Figure4b() (*Table, error) {
	return s.figure4("Figure 4b", "precision@k on the CSV suite (441 labeled columns)",
		corpus.CSVSuite().Columns, s.Scale.CSVKs)
}

// figure4 ranks Auto-Detect, every baseline and their Union by
// precision@k on cols. Each baseline runs once per column; Union pools
// their saved predictions (baselines.Pool) instead of running them again.
func (s *Suite) figure4(id, title string, cols []*corpus.Column, ks []int) (*Table, error) {
	ad, err := s.autoDetectMethod()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Header: append([]string{"method"}, kHeader(ks)...)}
	t.Rows = append(t.Rows, resultRow(EvaluateCorpus(ad, cols, ks), ks))
	members := baselines.All()
	saved := make([][][]baselines.Prediction, len(members))
	for i, m := range members {
		saved[i] = detectLabeled(m, cols)
		t.Rows = append(t.Rows, resultRow(scoreLabeled(m.Name(), cols, saved[i], ks), ks))
	}
	union := make([][]baselines.Prediction, len(cols))
	for ci := range cols {
		per := make([][]baselines.Prediction, len(members))
		for i := range members {
			per[i] = saved[i][ci]
		}
		union[ci] = baselines.Pool(per...)
	}
	t.Rows = append(t.Rows, resultRow(scoreLabeled((&baselines.Union{}).Name(), cols, union, ks), ks))
	return t, nil
}

// Table4 reproduces Table 4: the top-10 most confident incompatible pairs
// found on WIKI.
func (s *Suite) Table4() (*Table, error) {
	det, _, err := s.Detector()
	if err != nil {
		return nil, err
	}
	type hit struct {
		v1, v2 string
		conf   float64
		dirty  bool
	}
	var hits []hit
	for _, col := range s.WikiTest().Columns {
		fs := det.DetectColumn(col.Values)
		if len(fs) == 0 {
			continue
		}
		top := fs[0]
		correct := false
		for _, di := range col.Dirty {
			if col.Values[di] == top.Value {
				correct = true
			}
		}
		hits = append(hits, hit{top.Value, top.Partner, top.Confidence, correct})
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].conf > hits[j].conf })
	if len(hits) > 10 {
		hits = hits[:10]
	}
	t := &Table{
		ID:     "Table 4",
		Title:  "top-10 predicted incompatible values on WIKI",
		Header: []string{"k", "v1 (suspect)", "v2 (partner)", "confidence", "labeled-error"},
	}
	for i, h := range hits {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1), h.v1, h.v2, fmtP(h.conf), fmt.Sprintf("%v", h.dirty),
		})
	}
	return t, nil
}

// autoEvalFigure runs the Section 4.4 protocol for one corpus at the three
// dirty:clean ratios of Figures 5 and 6.
func (s *Suite) autoEvalFigure(id, title, which string) (*Table, error) {
	ad, err := s.autoDetectMethod()
	if err != nil {
		return nil, err
	}
	methods := []baselines.Detector{
		ad, &baselines.FRegex{}, &baselines.PWheel{}, &baselines.DBoost{},
		&baselines.SVDD{}, &baselines.DBOD{}, &baselines.LOF{},
	}
	ks := s.Scale.CaseKs
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append([]string{"ratio", "method"}, kHeader(ks)...),
	}
	for _, ratio := range []int{1, 5, 10} {
		cases, err := s.autoCases(which, ratio)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			r := EvaluateCases(m, cases, ks)
			row := append([]string{fmt.Sprintf("1:%d", ratio)}, resultRow(r, ks)...)
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Figure5 reproduces Figure 5: auto-eval precision@k on WIKI.
func (s *Suite) Figure5() (*Table, error) {
	return s.autoEvalFigure("Figure 5", "auto-eval precision@k on WIKI (dirty:clean 1:1, 1:5, 1:10)", "wiki")
}

// Figure6 reproduces Figure 6: auto-eval precision@k on Ent-XLS.
func (s *Suite) Figure6() (*Table, error) {
	return s.autoEvalFigure("Figure 6", "auto-eval precision@k on Ent-XLS (dirty:clean 1:1, 1:5, 1:10)", "ent")
}

// Figure7 reproduces Figure 7: quality under different memory budgets.
func (s *Suite) Figure7() (*Table, error) {
	cands, err := s.Calibrations()
	if err != nil {
		return nil, err
	}
	cases, err := s.autoCases("ent", 10)
	if err != nil {
		return nil, err
	}
	ks := s.Scale.CaseKs
	t := &Table{
		ID:     "Figure 7",
		Title:  "precision@k vs memory budget on Ent-XLS (1:10)",
		Header: append([]string{"budget", "#langs"}, kHeader(ks)...),
	}
	for _, budget := range s.Scale.MemoryBudgets {
		det, rep, err := core.BuildDetector(cands, budget, 0)
		if err != nil {
			return nil, err
		}
		r := EvaluateCases(&baselines.AutoDetect{Det: det}, cases, ks)
		row := []string{formatBytes(budget), fmt.Sprintf("%d", len(rep.Selected))}
		for _, k := range ks {
			row = append(row, fmtP(r.PrecisionAt[k]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure8a reproduces Figure 8(a): count-min sketch compression at 100%,
// 10% and 1% of the exact co-occurrence store size.
func (s *Suite) Figure8a() (*Table, error) {
	cands, err := s.Calibrations()
	if err != nil {
		return nil, err
	}
	cases, err := s.autoCases("ent", 10)
	if err != nil {
		return nil, err
	}
	ks := s.Scale.CaseKs
	t := &Table{
		ID:     "Figure 8a",
		Title:  "precision@k with count-min sketch compression on Ent-XLS (1:10)",
		Header: append([]string{"store-size", "bytes"}, kHeader(ks)...),
	}
	for _, ratio := range s.Scale.SketchRatios {
		sk := ratio
		if sk >= 1 {
			sk = 0 // exact
		}
		det, _, err := core.BuildDetector(cands, s.trainConfig().MemoryBudget, sk)
		if err != nil {
			return nil, err
		}
		r := EvaluateCases(&baselines.AutoDetect{Det: det}, cases, ks)
		row := []string{fmt.Sprintf("%.0f%%", ratio*100), formatBytes(det.Bytes())}
		for _, k := range ks {
			row = append(row, fmtP(r.PrecisionAt[k]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure8b reproduces Figure 8(b): aggregation strategies, plus the best
// single language (BestOne).
func (s *Suite) Figure8b() (*Table, error) {
	det, _, err := s.Detector()
	if err != nil {
		return nil, err
	}
	cands, err := s.Calibrations()
	if err != nil {
		return nil, err
	}
	cases, err := s.autoCases("ent", 10)
	if err != nil {
		return nil, err
	}
	ks := s.Scale.CaseKs
	t := &Table{
		ID:     "Figure 8b",
		Title:  "aggregation strategies on Ent-XLS (1:10)",
		Header: append([]string{"aggregation"}, kHeader(ks)...),
	}
	for _, rule := range Rules {
		r := EvaluateCases(&Ablation{Det: det, Rule: rule}, cases, ks)
		t.Rows = append(t.Rows, resultRow(r, ks))
	}

	// BestOne: the single language with the largest coverage, regardless
	// of memory.
	var best *core.Calibration
	for _, c := range cands {
		if best == nil || c.CoverageCount() > best.CoverageCount() {
			best = c
		}
	}
	single, err := core.NewDetector([]*core.Calibration{best})
	if err != nil {
		return nil, err
	}
	r := EvaluateCases(&Ablation{Det: single, Rule: MaxPrecision, Row: "BestOne"}, cases, ks)
	t.Rows = append(t.Rows, resultRow(r, ks))
	return t, nil
}

// Figure8c reproduces Figure 8(c): sensitivity to the training corpus —
// the small WIKI corpus versus the larger WEB corpus, tested on Ent-XLS.
func (s *Suite) Figure8c() (*Table, error) {
	cases, err := s.autoCases("ent", 10)
	if err != nil {
		return nil, err
	}
	ks := s.Scale.CaseKs
	t := &Table{
		ID:     "Figure 8c",
		Title:  "training corpus sensitivity, tested on Ent-XLS (1:10)",
		Header: append([]string{"train-corpus", "#col"}, kHeader(ks)...),
	}

	// WIKI training corpus: an order of magnitude smaller, like the paper's
	// 30M-vs-350M comparison.
	wp := corpus.WikiProfile()
	wp.ErrorRate = 0
	wp.Labeled = false
	wikiTrain := corpus.Generate(wp, s.Scale.TrainColumns/10, s.Seed+40)

	for _, tc := range []struct {
		name string
		c    *corpus.Corpus
	}{
		{"WIKI (small)", wikiTrain},
		{"WEB (large)", s.TrainCorpus()},
	} {
		var det *core.Detector
		if tc.c == s.trainCorpus {
			det, _, err = s.Detector()
			if err != nil {
				return nil, err
			}
		} else {
			res, err := pipeline.Run(context.Background(), pipeline.NewSliceSource(tc.c.Columns), s.options(1))
			if err != nil {
				return nil, err
			}
			det = res.Detector
		}
		r := EvaluateCases(&baselines.AutoDetect{Det: det}, cases, ks)
		row := []string{tc.name, fmt.Sprintf("%d", tc.c.NumColumns())}
		for _, k := range ks {
			row = append(row, fmtP(r.PrecisionAt[k]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table5 reproduces Table 5: average running time per column.
func (s *Suite) Table5() (*Table, error) {
	ad, err := s.autoDetectMethod()
	if err != nil {
		return nil, err
	}
	methods := []baselines.Detector{
		&baselines.FRegex{}, &baselines.PWheel{}, &baselines.DBoost{},
		&baselines.Linear{}, ad,
	}
	cols := s.EntTest().Columns
	n := len(cols)
	if n > 500 {
		n = 500
	}
	t := &Table{
		ID:     "Table 5",
		Title:  "average running time per column",
		Header: []string{"method", "ms/column"},
	}
	for _, m := range methods {
		start := time.Now()
		for _, col := range cols[:n] {
			m.Detect(col.Values)
		}
		avg := time.Since(start).Seconds() * 1000 / float64(n)
		t.Rows = append(t.Rows, []string{m.Name(), fmt.Sprintf("%.3f", avg)})
	}
	return t, nil
}

// Figure17a reproduces Figure 17(a): sensitivity to the smoothing factor.
// It recalibrates and reselects at each factor, restoring the default
// afterwards.
func (s *Suite) Figure17a() (*Table, error) {
	p, err := s.Pipeline()
	if err != nil {
		return nil, err
	}
	cases, err := s.autoCases("ent", 10)
	if err != nil {
		return nil, err
	}
	k := s.Scale.CaseKs[len(s.Scale.CaseKs)-2]
	t := &Table{
		ID:     "Figure 17a",
		Title:  fmt.Sprintf("precision@%d vs smoothing factor f on Ent-XLS (1:10)", k),
		Header: []string{"f", fmt.Sprintf("p@%d", k)},
	}
	cfg := s.trainConfig()
	defer func() {
		p.SetSmoothing(cfg.Smoothing)
		s.cands = nil
		s.det = nil
	}()
	for _, f := range s.Scale.SmoothingFactors {
		p.SetSmoothing(f)
		cands, err := p.Calibrate(context.Background(), cfg.TargetPrecision, 0)
		if err != nil {
			return nil, err
		}
		det, _, err := core.BuildDetector(cands, cfg.MemoryBudget, 0)
		if err != nil {
			// f = 1 collapses NPMI to 0 everywhere: no language can fire.
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", f), "0.000"})
			continue
		}
		r := EvaluateCases(&baselines.AutoDetect{Det: det}, cases, []int{k})
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", f), fmtP(r.PrecisionAt[k])})
	}
	return t, nil
}

// Figure17b reproduces Figure 17(b): the cumulative NPMI distribution of
// two generalization languages (the paper's L1 and L2).
func (s *Suite) Figure17b() (*Table, error) {
	p, err := s.Pipeline()
	if err != nil {
		return nil, err
	}
	langs := []pattern.Language{pattern.L1(), pattern.L2()}
	grid := []float64{-1, -0.8, -0.6, -0.4, -0.2, 0, 0.2, 0.4, 0.6, 0.8, 1}
	t := &Table{
		ID:     "Figure 17b",
		Title:  "CDF of pair NPMI under L1 and L2",
		Header: append([]string{"language"}, gridHeader(grid)...),
	}
	for _, want := range langs {
		var ls *stats.LanguageStats
		for _, cand := range p.Stats {
			if cand.Language() == want {
				ls = cand
				break
			}
		}
		if ls == nil {
			continue
		}
		dist := ls.PairNPMIDistribution()
		row := []string{want.String()}
		for _, x := range grid {
			row = append(row, fmtP(cdfAt(dist, x)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationSelection compares threshold/selection strategies on Ent-XLS
// (1:10): the paper's ST greedy selection (Algorithm 1), the DT
// local-search heuristic (Definition 4, this repo's extension), and a
// naive variant that reuses the ST language set but forces one shared
// threshold across languages (what Section 3.2 argues against: NPMI scores
// are not comparable across languages).
func (s *Suite) AblationSelection() (*Table, error) {
	p, err := s.Pipeline()
	if err != nil {
		return nil, err
	}
	cands, err := s.Calibrations()
	if err != nil {
		return nil, err
	}
	cases, err := s.autoCases("ent", 10)
	if err != nil {
		return nil, err
	}
	ks := s.Scale.CaseKs
	t := &Table{
		ID:     "Ablation ST/DT",
		Title:  "selection & threshold strategies on Ent-XLS (1:10)",
		Header: append([]string{"strategy", "#langs", "coverage"}, kHeader(ks)...),
	}
	addRow := func(name string, sel *core.Selection) error {
		det, err := core.NewDetector(sel.Chosen)
		if err != nil {
			return err
		}
		r := EvaluateCases(&baselines.AutoDetect{Det: det}, cases, ks)
		row := []string{name, fmt.Sprintf("%d", len(sel.Chosen)), fmt.Sprintf("%d", sel.Coverage)}
		for _, k := range ks {
			row = append(row, fmtP(r.PrecisionAt[k]))
		}
		t.Rows = append(t.Rows, row)
		return nil
	}

	cfg := s.trainConfig()
	st, err := core.SelectGreedy(cands, cfg.MemoryBudget)
	if err != nil {
		return nil, err
	}
	if err := addRow("ST greedy (Alg. 1)", st); err != nil {
		return nil, err
	}

	dt, err := core.SelectDT(cands, p.Data, cfg.MemoryBudget, cfg.TargetPrecision, 16)
	if err != nil {
		return nil, err
	}
	if err := addRow("DT local search", dt); err != nil {
		return nil, err
	}

	// Naive shared threshold: ST's languages with one uncalibrated global
	// threshold θ = −0.5 (the "clearly negative NPMI" intuition of
	// Example 2). Section 3.2's point is that NPMI is not comparable
	// across languages, so any fixed θ is miscalibrated for most of them.
	shared := make([]*core.Calibration, len(st.Chosen))
	for i, c := range st.Chosen {
		cc := *c
		cc.Theta = -0.5
		shared[i] = &cc
	}
	sharedCov := 0
	for _, e := range p.Data.Examples {
		if !e.Incompatible {
			continue
		}
		for _, cc := range shared {
			if cc.Covers(cc.Stats.NPMIRunsLOO(e.URuns, e.VRuns, false)) {
				sharedCov++
				break
			}
		}
	}
	if err := addRow("shared θ=-0.5 (naive)", &core.Selection{Chosen: shared, Coverage: sharedCov, Bytes: st.Bytes}); err != nil {
		return nil, err
	}
	return t, nil
}

// cdfAt returns the fraction of sorted values ≤ x.
func cdfAt(sorted []float64, x float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo := sort.SearchFloat64s(sorted, x)
	for lo < len(sorted) && sorted[lo] <= x {
		lo++
	}
	return float64(lo) / float64(len(sorted))
}

func kHeader(ks []int) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("p@%d", k)
	}
	return out
}

func gridHeader(grid []float64) []string {
	out := make([]string, len(grid))
	for i, g := range grid {
		out[i] = fmt.Sprintf("≤%+.1f", g)
	}
	return out
}

func formatBytes(b int) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// All runs every experiment in paper order.
func (s *Suite) All() ([]*Table, error) {
	tables := []*Table{s.Table3()}
	type exp func() (*Table, error)
	for _, e := range []exp{
		s.Figure4a, s.Figure4b, s.Table4,
		s.Figure5, s.Figure6, s.Figure7,
		s.Figure8a, s.Figure8b, s.Figure8c,
		s.Table5, s.Figure17a, s.Figure17b,
		s.AblationSelection,
	} {
		t, err := e()
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}
