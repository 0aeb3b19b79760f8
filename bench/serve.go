package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/observe"
	"repro/internal/service"
)

// server is the system under test: service.Server's handler on a real
// loopback listener.
type server struct {
	svc  *service.Server
	reg  *observe.Registry
	hs   *http.Server
	url  string
	done chan error
}

func startServer(svc *service.Server) (*server, error) {
	reg := observe.NewRegistry()
	svc.Metrics = reg
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:  svc,
		reg:  reg,
		hs:   &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down and waits for Serve to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// newClient returns an HTTP client holding at most loadWidth connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     loadWidth,
		MaxIdleConnsPerHost: loadWidth,
		DisableCompression:  true,
	}}
}

func closeClient(c *http.Client) {
	if c != nil {
		c.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveWorkload posts columns to /v1/check-column in rounds of two
// windows: an open loop of Poisson arrivals, each request timed from its
// scheduled send time, then a closed loop of loadWidth clients measuring
// throughput.
type serveWorkload struct {
	o    options
	wide bool

	m       *model
	srv     *server
	client  *http.Client
	cols    []*corpus.Column
	bodies  [][]byte
	panel   []*corpus.Column
	order   []int // seeded send order, cycled
	next    atomic.Int64
	windows int64 // open-loop windows run; seeds each window's arrivals

	// Every response is checked after measuring: the first body seen per
	// column against the reference, later ones against the first.
	seen map[int][]byte
	odd  []oddBody
	errs []string // first few failed requests, for the log
}

// oddBody is a response that differed from the first one for its column.
type oddBody struct {
	col  int
	body []byte
}

func (w *serveWorkload) setup(ctx context.Context) error {
	m, err := buildServingModel(ctx, w.o.work, w.o.sc)
	if err != nil {
		return err
	}
	sc := w.o.sc
	if w.wide {
		w.cols = wideColumns(sc.wideColumns, sc.wideRows[0], sc.wideRows[1], w.o.seed)
		w.panel = wideColumns(sc.panelColumns[1], sc.wideRows[0], sc.wideRows[1], panelSeed)
	} else {
		w.cols = narrowColumns(sc.narrowColumns, w.o.seed)
		w.panel = narrowColumns(sc.panelColumns[0], panelSeed)
	}
	w.bodies = make([][]byte, len(w.cols))
	for i, c := range w.cols {
		if w.bodies[i], err = json.Marshal(map[string][]string{"values": c.Values}); err != nil {
			return err
		}
	}
	w.order = rand.New(rand.NewSource(w.o.seed)).Perm(len(w.cols))
	w.seen = map[int][]byte{}
	w.odd, w.errs = nil, nil
	w.m = m
	if w.srv, err = startServer(service.New(m.det, m.sem)); err != nil {
		return err
	}
	w.client = newClient()
	return nil
}

func (w *serveWorkload) close() error {
	closeClient(w.client)
	w.client = nil
	if w.srv == nil {
		return nil
	}
	err := w.srv.close()
	w.srv = nil
	return err
}

func (w *serveWorkload) rate() float64 {
	if w.wide {
		return w.o.sc.wideRate
	}
	return w.o.sc.narrowRate
}

func (w *serveWorkload) nextCol() int {
	return w.order[int(w.next.Add(1)-1)%len(w.order)]
}

// reqStats is one client goroutine's record of its requests.
type reqStats struct {
	lat      []float64
	clientMS []float64
	ok       int
	failed   int
	errs     []string
	first    map[int][]byte
	odd      []oddBody
}

// send posts column col and records the outcome; latency runs from origin.
func (w *serveWorkload) send(col int, origin time.Time, tr *tracer, st *reqStats) {
	status, body, err := do(w.client, http.MethodPost, w.srv.url+"/v1/check-column", w.bodies[col])
	end := time.Now()
	tr.record("check-column", strconv.Itoa(col), 0, origin, end)
	st.lat = append(st.lat, end.Sub(origin).Seconds()*1e3)
	switch {
	case err != nil:
		st.fail(err.Error())
	case status != http.StatusOK:
		st.fail(fmt.Sprintf("status %d: %s", status, body))
	default:
		st.ok++
		if prev, ok := st.first[col]; !ok {
			st.first[col] = body
		} else if !bytes.Equal(prev, body) {
			st.odd = append(st.odd, oddBody{col, body})
		}
	}
	st.clientMS = append(st.clientMS, time.Since(end).Seconds()*1e3)
}

func (st *reqStats) fail(why string) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, why)
	}
}

// merge folds one client's record into the phase and the response log.
func (w *serveWorkload) merge(st *reqStats, ph *phase) {
	for col, body := range st.first {
		if prev, ok := w.seen[col]; !ok {
			w.seen[col] = body
		} else if !bytes.Equal(prev, body) {
			w.odd = append(w.odd, oddBody{col, body})
		}
	}
	w.odd = append(w.odd, st.odd...)
	w.errs = append(w.errs, st.errs...)
	ph.attempted += st.ok + st.failed
	ph.failed += st.failed
	ph.clientMS = append(ph.clientMS, st.clientMS...)
}

// serveRounds is the number of open- plus closed-loop windows per phase.
const serveRounds = 10

func (w *serveWorkload) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	var ph, warm phase
	for _, st := range w.closedLoop(ctx, 0, min(len(w.cols), 200), nil) {
		w.merge(st, &warm) // warm the connections and the heap, untimed
	}
	// The open loop gets three quarters of each round: its tail latency
	// needs the samples more than the closed loop's throughput does.
	open, closedWin := d*3/(4*serveRounds), d/(4*serveRounds)
	for k := 0; k < serveRounds && ctx.Err() == nil; k++ {
		var rd round
		// Each window starts from a collected heap, so garbage one window
		// left behind is not charged to the next.
		runtime.GC()
		for _, st := range w.openLoop(open, tr, &ph) {
			w.merge(st, &ph)
			rd.latencyMS = append(rd.latencyMS, st.lat...)
		}
		runtime.GC()
		start := time.Now()
		closed := w.closedLoop(ctx, closedWin, 0, tr)
		rd.seconds = time.Since(start).Seconds()
		for _, st := range closed {
			w.merge(st, &ph)
			rd.columns += st.ok
		}
		ph.rounds = append(ph.rounds, rd)
	}
	return ph, ctx.Err()
}

// openLoop sends requests at Poisson arrival times for d. Each of
// loadWidth clients takes the next due request; one that finds every
// client busy waits, and that wait counts in its latency.
func (w *serveWorkload) openLoop(d time.Duration, tr *tracer, ph *phase) []*reqStats {
	type due struct {
		col int
		at  time.Time
	}
	w.windows++
	r := rand.New(rand.NewSource(w.o.seed*1000 + w.windows))
	start := time.Now().Add(10 * time.Millisecond)
	var sched []due
	for t := r.ExpFloat64() / w.rate(); t < d.Seconds(); t += r.ExpFloat64() / w.rate() {
		sched = append(sched, due{w.nextCol(), start.Add(time.Duration(t * float64(time.Second)))})
	}
	// Sized to the whole schedule so the dispatcher never blocks.
	queue := make(chan due, len(sched))
	stats := make([]*reqStats, loadWidth)
	var wg sync.WaitGroup
	for i := range stats {
		st := &reqStats{first: map[int][]byte{}}
		stats[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				w.send(q.col, q.at, tr, st)
			}
		}()
	}
	// The dispatcher pins a low-slack thread and exits without unpinning,
	// so that thread ends with it instead of returning to Go's pool.
	lag := make([]float64, 0, len(sched))
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		ps := newPreciseSleeper()
		for _, q := range sched {
			ps.sleepUntil(q.at)
			lag = append(lag, time.Since(q.at).Seconds()*1e3)
			queue <- q
		}
		close(queue)
	}()
	<-dispatched
	wg.Wait()
	ph.genLagMS = append(ph.genLagMS, lag...)
	return stats
}

// closedLoop runs loadWidth clients back to back, each sending its next
// request when the last one returns, for d or (when d is 0) for n requests
// in total. Its latencies are not reported: the open loop owns latency,
// the closed loop throughput.
func (w *serveWorkload) closedLoop(ctx context.Context, d time.Duration, n int, tr *tracer) []*reqStats {
	deadline := time.Now().Add(d)
	var sent atomic.Int64
	stats := make([]*reqStats, loadWidth)
	var wg sync.WaitGroup
	for i := range stats {
		st := &reqStats{first: map[int][]byte{}}
		stats[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if d > 0 && !time.Now().Before(deadline) {
					return
				}
				if d == 0 && sent.Add(1) > int64(n) {
					return
				}
				w.send(w.nextCol(), time.Now(), tr, st)
			}
		}()
	}
	wg.Wait()
	return stats
}

func (w *serveWorkload) verify(ctx context.Context) (verdict, error) {
	var v verdict
	ref := reference(ctx, w.m.det, w.m.sem, w.cols, nil)
	want := make([][]byte, len(ref))
	for i, fs := range ref {
		want[i] = encodeColumnBody(fs)
	}
	check := func(col int, body []byte) {
		switch bodyMatches(body, want[col], ref[col]) {
		case mismatch:
			v.mismatches = append(v.mismatches, fmt.Sprintf("column %d: got %s want %s", col, body, want[col]))
		case flap:
			v.flaps++
		}
	}
	for col, body := range w.seen {
		check(col, body)
	}
	for _, o := range w.odd {
		check(o.col, o.body)
	}
	v.sha = findingsSHA(ref)
	v.ensemble = ensembleIDs(w.m.det)
	v.precision, v.recall, v.planted = quality(w.panel, reference(ctx, w.m.det, w.m.sem, w.panel, nil))
	logFailures("check-column", w.errs)
	return v, ctx.Err()
}

func (w *serveWorkload) layers(ctx context.Context, tr *tracer, lm metrics) error {
	n := w.o.sc.replayColumns
	if w.wide {
		n = w.o.sc.replayWide
	}
	items := make([]replayItem, 0, n)
	for _, col := range w.order[:min(n, len(w.order))] {
		items = append(items, replayItem{col: w.cols[col]})
	}
	return replayLayers(ctx, layerInput{
		det: w.m.det, sem: w.m.sem, items: items, work: w.o.work,
		builds: []buildStats{w.m.build}, buildShards: w.m.shards, buildLangs: w.o.sc.langs,
		reg: w.srv.reg,
	}, tr, lm)
}
