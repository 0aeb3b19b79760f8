package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/corpus"
	"repro/internal/dbsource"
	"repro/internal/jobs"
	"repro/internal/service"
)

// pollEvery is how often the audit client polls its unfinished jobs. It
// bounds the resolution of job latency (jobs take hundreds of
// milliseconds); every poll decodes the job's whole state, so polling
// faster would load the server measurably.
const pollEvery = 20 * time.Millisecond

// auditJob is one job of a batch, with its columns in the order the
// executor audits them.
type auditJob struct {
	name  string
	body  []byte // POST /v1/jobs body
	cols  []*corpus.Column
	hints []string
}

// auditWorkload submits batches of audit jobs through /v1/jobs (table jobs
// and a whole-database job, run by loadWidth job workers) and pages every
// finished job's findings back through /v1/jobs/{id}/results.
type auditWorkload struct {
	o      options
	m      *model
	srv    *server
	mgr    *jobs.Manager
	client *http.Client
	jobs   []*auditJob // one batch: table jobs, then the database job
	panel  []*auditJob
	dsn    string

	// Every finished job's paged findings are compared with its reference
	// as they come back; only the outcome is kept.
	want       map[*auditJob][]jobFinding
	ref        [][]audit.Finding // the batch's reference, column by column
	mismatches []string
	flaps      int
	errs       []string
}

// jobFinding is one entry of a results page.
type jobFinding struct {
	Column string `json:"column"`
	audit.Finding
}

// dbColumns are the columns of the audited database's tables: names and
// declared types that schema introspection turns into domain hints.
var dbColumns = []struct{ name, domain, typ string }{
	{"email", "email", "TEXT"},
	{"signup_date", "date_iso", "TEXT"},
	{"phone", "phone_dash", "TEXT"},
	{"ship_zip", "zip5", "TEXT"},
	{"amount", "currency_usd", "TEXT"},
	{"sku", "sku", "TEXT"},
	{"order_id", "id_prefixed", "TEXT"},
	{"rate", "percent", "TEXT"},
	{"year", "year", "INTEGER"},
	{"city", "city", "TEXT"},
	{"updated", "datetime_space", "TIMESTAMP"},
	{"website", "url", "TEXT"},
}

// dbSeq names the in-memory databases this process registers.
var dbSeq atomic.Int64

// auditJobs generates one batch for seed: tableJobs table jobs of
// Ent-XLS columns and one database job over a freshly registered mem://
// database.
func auditJobs(sc scale, seed int64) ([]*auditJob, string, error) {
	r := rand.New(rand.NewSource(seed))
	var out []*auditJob
	ent := corpus.NewStream(corpus.EntXLSProfile(), seed*5+1)
	for j := 0; j < sc.auditTableJobs; j++ {
		cols := make([]*corpus.Column, sc.auditJobColumns)
		payload := map[string][]string{}
		for i := range cols {
			c := ent.Next()
			c.Name = fmt.Sprintf("%s_%04d", c.Domain, i)
			cols[i] = c
			payload[c.Name] = c.Values
		}
		plant(r, cols)
		sort.Slice(cols, func(a, b int) bool { return cols[a].Name < cols[b].Name })
		body, err := json.Marshal(map[string]any{"columns": payload})
		if err != nil {
			return nil, "", err
		}
		out = append(out, &auditJob{name: "table-" + strconv.Itoa(j), body: body, cols: cols, hints: make([]string, len(cols))})
	}

	db := dbsource.NewMemDB()
	var units []*corpus.Column
	var hints []string
	for t := 0; t < sc.auditDBTables; t++ {
		table := fmt.Sprintf("t%02d", t)
		var memCols []dbsource.MemCol
		for k := 0; k < 10; k++ {
			spec := dbColumns[(t+k)%len(dbColumns)]
			c, err := corpus.GenerateColumn(r, spec.domain, sc.auditDBRows)
			if err != nil {
				return nil, "", err
			}
			c.Name, c.Source, c.Table = table+"."+spec.name, dbsource.DriverName, table
			c.Dirty = []int{}
			if r.Float64() < plantRate {
				corpus.InjectError(r, c)
			}
			vals := make([]any, len(c.Values))
			for i, v := range c.Values {
				vals[i] = v
			}
			memCols = append(memCols, dbsource.MemCol{Name: spec.name, Type: spec.typ, Values: vals})
			units = append(units, c)
			hints = append(hints, dbsource.NameHint(spec.name, spec.typ))
		}
		db.AddTable(table, memCols...)
	}
	name := fmt.Sprintf("bench-audit-%d", dbSeq.Add(1))
	dbsource.Register(name, db)
	dsn := "mem://" + name
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return units[order[a]].Name < units[order[b]].Name })
	dbJob := &auditJob{name: "database"}
	for _, i := range order {
		dbJob.cols = append(dbJob.cols, units[i])
		dbJob.hints = append(dbJob.hints, hints[i])
	}
	body, err := json.Marshal(map[string]any{"database": map[string]string{"dsn": dsn}})
	if err != nil {
		return nil, "", err
	}
	dbJob.body = body
	return append(out, dbJob), dsn, nil
}

func (w *auditWorkload) setup(ctx context.Context) error {
	m, err := buildServingModel(ctx, w.o.work, w.o.sc)
	if err != nil {
		return err
	}
	if w.jobs, w.dsn, err = auditJobs(w.o.sc, w.o.seed); err != nil {
		return err
	}
	if w.panel, _, err = auditJobs(w.o.sc, panelSeed); err != nil {
		return err
	}
	w.m = m
	w.want, w.ref, w.mismatches, w.flaps, w.errs = nil, nil, nil, 0, nil
	svc := service.New(m.det, m.sem)
	svc.AllowDBAudit = true
	dir := filepath.Join(w.o.work, "jobs")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	w.mgr, err = jobs.Open(context.Background(), jobs.Config{
		Dir:     dir,
		Workers: loadWidth,
		Model:   svc.Model,
	})
	if err != nil {
		return err
	}
	svc.Jobs = w.mgr
	if w.srv, err = startServer(svc); err != nil {
		return err
	}
	w.client = newClient()
	return nil
}

func (w *auditWorkload) close() error {
	closeClient(w.client)
	w.client = nil
	var err error
	if w.srv != nil {
		err = w.srv.close()
		w.srv = nil
	}
	if w.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if cerr := w.mgr.Close(ctx); err == nil {
			err = cerr
		}
		w.mgr = nil
	}
	return err
}

// measure submits one batch, waits for every job, pages the findings
// back, and repeats until d has passed. Each batch starts from a collected
// heap, so garbage one batch left behind is not charged to the next.
func (w *auditWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	if w.want == nil {
		w.want = map[*auditJob][]jobFinding{}
		for _, job := range w.jobs {
			flat, ref := w.expected(ctx, job)
			w.want[job] = flat
			w.ref = append(w.ref, ref...)
		}
	}
	start := time.Now()
	prevEnd := start
	for ctx.Err() == nil && (len(ph.rounds) == 0 || time.Since(start) < d) {
		runtime.GC()
		first := time.Now()
		ph.genLagMS = append(ph.genLagMS, ms(first.Sub(prevEnd)))
		ph.rounds = append(ph.rounds, w.batch(tr, &ph))
		prevEnd = time.Now()
	}
	return ph, ctx.Err()
}

// batch submits every job of the batch at once (the manager queues
// them for its loadWidth workers) and polls until all have finished. A
// job's latency runs from its submission to the poll that saw it done;
// the batch's throughput is its columns over first submission to last
// completion. Then it pages each job's findings back and checks them.
func (w *auditWorkload) batch(tr *tracer, ph *phase) round {
	type running struct {
		job  *auditJob
		id   string
		sent time.Time
	}
	var rd round
	var inflight, finished []running
	first := time.Now()
	last := first
	for _, job := range w.jobs {
		sent := time.Now()
		ph.attempted++
		status, body, err := do(w.client, http.MethodPost, w.srv.url+"/v1/jobs", job.body)
		var st struct{ ID string }
		if err == nil && status == http.StatusAccepted {
			err = json.Unmarshal(body, &st)
		} else if err == nil {
			err = fmt.Errorf("submit answered %d: %s", status, body)
		}
		if err != nil {
			w.fail(ph, err)
			continue
		}
		inflight = append(inflight, running{job, st.ID, sent})
	}
	for len(inflight) > 0 {
		time.Sleep(pollEvery)
		for i := 0; i < len(inflight); {
			r := inflight[i]
			status, err := w.status(r.id)
			if err == nil && !jobs.Status(status).Terminal() {
				i++
				continue
			}
			now := time.Now()
			switch {
			case err != nil:
				w.fail(ph, err)
			case status != string(jobs.StatusDone):
				w.fail(ph, fmt.Errorf("job %s (%s) ended %s", r.id, r.job.name, status))
			default:
				tr.record("job", r.job.name+"/"+r.id, 0, r.sent, now)
				rd.latencyMS = append(rd.latencyMS, ms(now.Sub(r.sent)))
				finished = append(finished, r)
				last = now
			}
			inflight = append(inflight[:i], inflight[i+1:]...)
		}
	}
	rd.seconds = last.Sub(first).Seconds()
	for _, r := range finished {
		t := time.Now()
		fs, err := w.results(r.id)
		if err != nil {
			w.fail(ph, err)
			continue
		}
		switch compareJobFindings(fs, w.want[r.job]) {
		case mismatch:
			w.mismatches = append(w.mismatches, fmt.Sprintf("job %s: %d findings paged back, reference has %d or differs",
				r.job.name, len(fs), len(w.want[r.job])))
		case flap:
			w.flaps++
		}
		rd.columns += len(r.job.cols)
		ph.clientMS = append(ph.clientMS, ms(time.Since(t)))
	}
	return rd
}

func (w *auditWorkload) fail(ph *phase, err error) {
	ph.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// status polls a job's state.
func (w *auditWorkload) status(id string) (string, error) {
	code, body, err := do(w.client, http.MethodGet, w.srv.url+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("status of %s answered %d: %s", id, code, body)
	}
	var st struct{ Status string }
	err = json.Unmarshal(body, &st)
	return st.Status, err
}

// results pages a finished job's findings back.
func (w *auditWorkload) results(id string) ([]jobFinding, error) {
	var all []jobFinding
	for page := 0; ; {
		url := fmt.Sprintf("%s/v1/jobs/%s/results?page=%d&page_size=1000", w.srv.url, id, page)
		code, body, err := do(w.client, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("results of %s answered %d: %s", id, code, body)
		}
		var p struct {
			Findings []jobFinding `json:"findings"`
			NextPage *int         `json:"next_page"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			return nil, err
		}
		all = append(all, p.Findings...)
		if p.NextPage == nil {
			return all, nil
		}
		page = *p.NextPage
	}
}

// expected flattens a job's reference findings the way the results pages
// list them: columns in audit order, findings in detector order.
func (w *auditWorkload) expected(ctx context.Context, job *auditJob) ([]jobFinding, [][]audit.Finding) {
	ref := reference(ctx, w.m.det, w.m.sem, job.cols, job.hints)
	var out []jobFinding
	for i, fs := range ref {
		for _, f := range fs {
			out = append(out, jobFinding{Column: job.cols[i].Name, Finding: f})
		}
	}
	return out, ref
}

func (w *auditWorkload) verify(ctx context.Context) (verdict, error) {
	v := verdict{mismatches: w.mismatches, flaps: w.flaps, ensemble: ensembleIDs(w.m.det)}
	v.sha = findingsSHA(w.ref)
	var cols []*corpus.Column
	var found [][]audit.Finding
	for _, job := range w.panel {
		_, ref := w.expected(ctx, job)
		cols = append(cols, job.cols...)
		found = append(found, ref...)
	}
	v.precision, v.recall, v.planted = quality(cols, found)
	logFailures("audit-batch", w.errs)
	return v, ctx.Err()
}

func compareJobFindings(got, want []jobFinding) match {
	if len(got) != len(want) {
		return mismatch
	}
	g, wf := make([]audit.Finding, len(got)), make([]audit.Finding, len(want))
	for i := range got {
		if got[i].Column != want[i].Column {
			return mismatch
		}
		g[i], wf[i] = got[i].Finding, want[i].Finding
	}
	return compareFindings(g, wf)
}

func (w *auditWorkload) layers(ctx context.Context, tr *tracer, lm metrics) error {
	var items []replayItem
	table, db := w.jobs[0], w.jobs[len(w.jobs)-1]
	for _, c := range table.cols[:min(len(table.cols), w.o.sc.replayColumns)] {
		items = append(items, replayItem{col: c})
	}
	for i, c := range db.cols {
		items = append(items, replayItem{col: c, hint: db.hints[i]})
	}
	return replayLayers(ctx, layerInput{
		det: w.m.det, sem: w.m.sem, items: items, work: w.o.work,
		builds: []buildStats{w.m.build}, buildShards: w.m.shards, buildLangs: w.o.sc.langs,
		reg: w.srv.reg, dbDSN: w.dsn,
	}, tr, lm)
}
