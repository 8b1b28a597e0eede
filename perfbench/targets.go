package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dsteiner/internal/core"
	"dsteiner/internal/graph"
	"dsteiner/internal/steinersvc"
)

// ranks is the shipped default rank count (steinersvc -ranks and the
// examples); every workload runs core.Default(ranks).
const ranks = 4

// reply is one answer as the client saw it.
type reply struct {
	start, end time.Time // client-side call interval
	err        error

	edges     []graph.Edge
	total     graph.Dist
	skipped   []graph.VID
	paid      graph.Dist
	objective graph.Dist

	res      *core.Result // the program's Result (engine targets only)
	phaseSec float64      // sum of the reply's phase seconds (svc misses)
	phases   []core.PhaseStat
	cached   bool // svc: answered by the solution cache
	bytes    int  // svc: response body size
}

func (r reply) ms() float64 { return float64(r.end.Sub(r.start).Nanoseconds()) / 1e6 }

// target is one workload's serving stack.
type target interface {
	// do sends one query and waits for its answer, recording spans under
	// query number qid when tr is non-nil.
	do(q query, tr *tracer, qid int64) reply
	close() error
}

// engineTarget serves queries from a resident core.Engine: loopback ranks,
// or a TCP coordinator whose rankd workers run in this process.
type engineTarget struct {
	e     *core.Engine
	fleet *fleet // nil on loopback
}

// fleet is the in-process rankd workers of a TCP engine.
type fleet struct {
	wg   sync.WaitGroup
	errs []error
}

// newEngine builds a loopback engine (workers == 0) or a BackendTCP engine
// whose ranks live in `workers` in-process RunWorker sessions speaking the
// real wire protocol over localhost TCP.
func newEngine(g *graph.Graph, nranks, workers int) (*engineTarget, error) {
	opts := core.Default(nranks)
	if workers == 0 {
		e, err := core.NewEngine(g, opts)
		if err != nil {
			return nil, err
		}
		return &engineTarget{e: e}, nil
	}
	f := &fleet{errs: make([]error, workers)}
	opts.Backend = core.BackendTCP
	opts.Workers = workers
	opts.ListenAddr = "127.0.0.1:0"
	opts.OnListen = func(addr string) {
		for i := range workers {
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.errs[i] = core.RunWorker(addr, core.WorkerConfig{})
			}()
		}
	}
	e, err := core.NewEngine(g, opts)
	if err != nil {
		f.wg.Wait()
		return nil, err
	}
	return &engineTarget{e: e, fleet: f}, nil
}

func (t *engineTarget) do(q query, tr *tracer, qid int64) reply {
	start := time.Now()
	res, err := t.e.SolveSpec(q.spec)
	end := time.Now()
	r := reply{start: start, end: end, err: err, res: res}
	if err != nil {
		return r
	}
	r.edges = res.Tree
	r.total, r.skipped, r.paid, r.objective = res.TotalDistance, res.Skipped, res.PaidPenalty, res.Objective
	r.phases = res.Phases
	r.phaseSec = res.TotalSeconds()
	if tr != nil {
		root, solve := tr.id(), tr.id()
		tr.add(root, 0, "query", qid, start, end, false)
		tr.add(solve, root, "core.solve", qid, start, end, false)
		tr.addPhases(solve, qid, start, res.Phases)
	}
	return r
}

func (t *engineTarget) close() error {
	t.e.Close()
	if t.fleet == nil {
		return nil
	}
	t.fleet.wg.Wait()
	return errors.Join(t.fleet.errs...)
}

// svcTarget serves queries from steinersvc over real loopback HTTP.
type svcTarget struct {
	svc    *steinersvc.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// newSvc builds a steinersvc.Service over g with the service's shipped
// defaults except the cache size, and serves it on an ephemeral loopback
// port.
func newSvc(g *graph.Graph, cacheEntries int) (*svcTarget, error) {
	svc, err := steinersvc.New(g, core.Default(ranks), steinersvc.Config{
		Engines: 1, CacheEntries: cacheEntries, JobQueue: 64,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	t := &svcTarget{
		svc:    svc,
		srv:    &http.Server{Handler: svc},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/solve",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, nil
}

func (t *svcTarget) do(q query, tr *tracer, qid int64) reply {
	qStart := time.Now()
	req := steinersvc.SolveRequest{Mode: q.spec.Mode.String()}
	for _, v := range q.spec.Seeds {
		req.Seeds = append(req.Seeds, int32(v))
	}
	for _, p := range q.spec.Penalties {
		req.Penalties = append(req.Penalties, int64(p))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return reply{start: qStart, end: time.Now(), err: err}
	}
	hStart := time.Now()
	data, status, err := t.post(body)
	hEnd := time.Now()
	r := reply{start: qStart, bytes: len(data)}
	var resp steinersvc.SolveResponse
	switch {
	case err != nil:
		r.err = err
	case status != http.StatusOK:
		r.err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(data))
	default:
		r.err = json.Unmarshal(data, &resp)
	}
	r.end = time.Now()
	if r.err != nil {
		return r
	}
	r.cached = resp.Cached
	r.total, r.paid = graph.Dist(resp.Total), graph.Dist(resp.PaidPenalty)
	r.objective = r.total
	if resp.Objective != nil {
		r.objective = graph.Dist(*resp.Objective)
	}
	for _, e := range resp.Edges {
		r.edges = append(r.edges, graph.Edge{U: graph.VID(e.U), V: graph.VID(e.V), W: e.W})
	}
	for _, v := range resp.Skipped {
		r.skipped = append(r.skipped, graph.VID(v))
	}
	for _, ph := range resp.Phases {
		r.phases = append(r.phases, core.PhaseStat{Name: ph.Name, Seconds: ph.Seconds, Sent: ph.Sent})
		r.phaseSec += ph.Seconds
	}
	if tr != nil {
		root, h := tr.id(), tr.id()
		tr.add(root, 0, "query", qid, qStart, r.end, false)
		tr.add(h, root, "svc.http", qid, hStart, hEnd, false)
		if !r.cached {
			// The engine solve happened inside the request; the response
			// reports only its phase durations, so the core.solve span is
			// derived: it ends with the request and lasts their sum.
			sStart := hEnd.Add(-time.Duration(r.phaseSec * float64(time.Second)))
			s := tr.id()
			tr.add(s, h, "core.solve", qid, sStart, hEnd, true)
			tr.addPhases(s, qid, sStart, r.phases)
		}
	}
	return r
}

func (t *svcTarget) post(body []byte) ([]byte, int, error) {
	resp, err := t.client.Post(t.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (t *svcTarget) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t.client.CloseIdleConnections()
	errHTTP := t.srv.Shutdown(ctx)
	if err := <-t.served; !errors.Is(err, http.ErrServerClosed) {
		errHTTP = errors.Join(errHTTP, err)
	}
	return errors.Join(errHTTP, t.svc.Shutdown(ctx))
}

// setUp builds workload w's serving stack from the serialized graph,
// recording a "setup" span with a child per layer call. The returned times
// are the whole set-up and its per-layer parts.
func setUp(w string, data []byte, tr *tracer) (target, setupTimes, error) {
	var st setupTimes
	root := tr.id()
	start := time.Now()
	var g *graph.Graph
	var err error
	st.load, err = tr.timed(root, "graph.load", func() error {
		g, err = graph.ReadBinary(bytes.NewReader(data))
		return err
	})
	if err != nil {
		return nil, st, fmt.Errorf("load graph: %w", err)
	}
	var t target
	switch w {
	case "engine-tree", "tcp-tree":
		workers := 0
		if w == "tcp-tree" {
			workers = 2
		}
		st.engine, err = tr.timed(root, "core.new_engine", func() error {
			t, err = newEngine(g, ranks, workers)
			return err
		})
	case "svc-mixed":
		st.svc, err = tr.timed(root, "svc.new", func() error {
			t, err = newSvc(g, 256)
			return err
		})
	default:
		return nil, st, fmt.Errorf("unknown workload %q", w)
	}
	end := time.Now()
	tr.add(root, 0, "setup", -1, start, end, false)
	st.total = end.Sub(start)
	return t, st, err
}

// setupTimes is one set-up's duration and its per-layer parts.
type setupTimes struct {
	total, load, engine, svc time.Duration
}

// sample is one query and its reply.
type sample struct {
	q   query
	rep reply
	qid int64 // query sequence number, shared with its spans
}

// window is one timed closed-loop window: its samples, and its wall time
// from the start to the last completion.
type window struct {
	samples []sample
	wall    time.Duration
}

func (w window) qps() float64 { return float64(len(w.samples)) / w.wall.Seconds() }

// join is the window made of w and o back to back.
func (w window) join(o window) window {
	return window{append(append([]sample(nil), w.samples...), o.samples...), w.wall + o.wall}
}

// drive runs a closed loop of `clients` clients against t for d: each
// client sends its next query (from next) when its previous reply arrives.
// Queries already sent when d ends complete.
func drive(t target, clients int, next func() query, d time.Duration, tr *tracer, qid func() int64) window {
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var last time.Time
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				q, id := next(), qid()
				r := t.do(q, tr, id)
				mu.Lock()
				out = append(out, sample{q, r, id})
				if r.end.After(last) {
					last = r.end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return window{out, last.Sub(start)}
}
