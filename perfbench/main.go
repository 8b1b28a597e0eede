// Command perfbench is the repository benchmark. It runs one named workload
// against the shipped default configuration (core.Default(4): priority
// queue, arcblock partition), checks every answer, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics — by name
// and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload engine-tree --seed 1 --seconds 30 --trace 0
//
// Workloads (closed loop; see README.md):
//
//	engine-tree  resident 4-rank loopback Engine, 1 client, 64 tree sets (k=16)
//	tcp-tree     the same sets on BackendTCP with 2 in-process rankd workers
//	svc-mixed    steinersvc over loopback HTTP, 2 clients: 30% cached hot
//	             trees, 50% fresh trees, 20% fresh prize queries (k=512)
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dsteiner/internal/core"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 31

// minSamples is the fewest queries a run needs for p90 to have ten samples
// beyond it.
const minSamples = 100

// warmQueries run before the timed window on engine-tree and tcp-tree.
const warmQueries = 4

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	root     string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "engine-tree | tcp-tree | svc-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: drives the graph generator and every query draw")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "directory for the stamped result and the trace (empty: none)")
	flag.StringVar(&cfg.root, "root", ".", "repository root, hashed into the stamp")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		os.Exit(2)
	}
	switch cfg.workload {
	case "engine-tree", "tcp-tree", "svc-mixed":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg config) error {
	t0 := time.Now()
	in, err := makeInputs(cfg.seed)
	if err != nil {
		return err
	}
	stamp := makeStamp(cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(t0)
	}

	// Set-up: from the serialized graph bytes to ready to serve, setupReps
	// times, each from a collected heap. The first half runs before the
	// timed windows (the last of them serves the run) and the rest after,
	// so a burst of interference on the box cannot move every sample.
	var setups []setupTimes
	setUpOnce := func() (target, error) {
		runtime.GC()
		t, st, err := setUp(cfg.workload, in.graphBytes, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
		return t, nil
	}
	heap0 := liveHeap()
	before := setupReps/2 + 1
	var t target
	for i := range before {
		if t, err = setUpOnce(); err != nil {
			return err
		}
		if i < before-1 {
			if err := t.close(); err != nil {
				return fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	heapMB := (liveHeap() - heap0) / (1 << 20)

	next, clients, err := warmUp(cfg.workload, in, t)
	if err != nil {
		t.close()
		return fmt.Errorf("warm-up: %w", err)
	}
	var qid atomic.Int64
	nextID := func() int64 { return qid.Add(1) }

	// Timed windows: one untraced window, or a traced run's untraced
	// quarter, traced half and untraced quarter, so drift over the run
	// cancels out of the traced/untraced comparison.
	length := time.Duration(cfg.seconds) * time.Second
	var plain, traced window
	var allocKB float64
	var faults int64
	if !cfg.trace {
		plain = drive(t, clients, next, length, nil, nextID)
	} else {
		plain = drive(t, clients, next, length/4, nil, nextID)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		traced = drive(t, clients, next, length/2, tr, nextID)
		runtime.ReadMemStats(&m1)
		allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(traced.samples))
		plain = plain.join(drive(t, clients, next, length/4, nil, nextID))
		if et, ok := t.(*engineTarget); ok {
			faults = et.e.FaultStats().Detected
		}
	}
	all := plain.join(traced).samples
	if err := t.close(); err != nil {
		return fmt.Errorf("tear-down: %w", err)
	}
	for range setupReps - before {
		if t, err = setUpOnce(); err != nil {
			return err
		}
		if err := t.close(); err != nil {
			return fmt.Errorf("tear-down: %w", err)
		}
	}

	v, err := check(cfg.workload, in.graphBytes, all)
	if err != nil {
		return err
	}
	var ms []metric
	if !cfg.trace {
		ms = endToEnd(plain, setups, heapMB, v)
	} else {
		ms, err = perLayer(cfg, in, tr, setups, plain, traced, allocKB, faults)
		if err != nil {
			return err
		}
	}

	res := result{Correct: v.failed == 0, Attempted: len(all), Failed: v.failed, Metrics: map[string]valueUnit{}}
	for i := range ms {
		ms[i].value = zeroNaN(ms[i].value)
		res.Metrics[ms[i].name] = valueUnit{ms[i].value, ms[i].unit}
	}
	report(cfg, stamp, ms, res, v)
	if err := writeOut(cfg, stamp, res, tr); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// warmUp runs the warm-up queries and returns the workload's query source
// and client count. svc-mixed pre-solves its hot pool so the window's hot
// queries are cache hits.
func warmUp(w string, in *inputs, t target) (func() query, int, error) {
	var n atomic.Int64
	if w != "svc-mixed" {
		for _, set := range in.treeSets[:warmQueries] {
			if r := t.do(query{classTree, core.TreeSpec(set)}, nil, 0); r.err != nil {
				return nil, 0, r.err
			}
		}
		return func() query {
			i := n.Add(1) - 1
			return query{classTree, core.TreeSpec(in.treeSets[i%numTreeSets])}
		}, 1, nil
	}
	warm := []query{{classPrize, in.warmPrize}}
	for _, set := range in.hot {
		warm = append(warm, query{classHot, core.TreeSpec(set)})
	}
	for _, q := range warm {
		if r := t.do(q, nil, 0); r.err != nil {
			return nil, 0, r.err
		}
	}
	var hot, fresh, prize atomic.Int64
	take := func(c *atomic.Int64) int64 { return c.Add(1) - 1 }
	return func() query {
		switch c := in.class(take(&n)); c {
		case classHot:
			return query{c, core.TreeSpec(in.hot[take(&hot)%numHotSets])}
		case classFresh:
			return query{c, core.TreeSpec(in.fresh(take(&fresh)))}
		default:
			return query{c, in.prize(take(&prize))}
		}
	}, 2, nil
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced window.
func endToEnd(plain window, setups []setupTimes, heapMB float64, v *verdict) []metric {
	lat := make([]float64, len(plain.samples))
	for i, s := range plain.samples {
		lat[i] = s.rep.ms()
	}
	return []metric{
		{"setup_s", "s", medianOf(setups, func(s setupTimes) float64 { return s.total.Seconds() })},
		{"qps", "1/s", plain.qps()},
		{"latency_p50_ms", "ms", quantile(lat, 0.5)},
		{"latency_p90_ms", "ms", quantile(lat, 0.9)},
		{"ok_rate", "ratio", 1 - float64(v.failed)/float64(len(lat))},
		{"cost_ratio", "ratio", v.costRatio()},
		{"heap_mb", "MiB", heapMB},
	}
}

// perLayer computes the traced run's per-layer metrics, then runs the
// layer-tax ladder.
func perLayer(cfg config, in *inputs, tr *tracer, setups []setupTimes,
	plain, traced window, allocKB float64, faults int64) ([]metric, error) {
	secs := func(f func(setupTimes) time.Duration) float64 {
		return medianOf(setups, func(s setupTimes) float64 { return f(s).Seconds() })
	}
	ms := []metric{
		{"graph.load_s", "s", secs(func(s setupTimes) time.Duration { return s.load })},
		{"core.new_engine_s", "s", secs(func(s setupTimes) time.Duration { return s.engine })},
		{"svc.new_s", "s", secs(func(s setupTimes) time.Duration { return s.svc })},
		{"core.alloc_kb_per_query", "KiB", allocKB},
	}

	// The core layers' counters come from the Results of the traced
	// window's solves; svc-mixed gets no Result over HTTP, so it replays
	// the window's first prize misses (the class its p90 falls in) on a
	// direct core.Default(4) engine.
	var rs []reply
	if cfg.workload == "svc-mixed" {
		var qs []query
		for _, s := range traced.samples {
			if s.q.class == classPrize && !s.rep.cached && len(qs) < 5 {
				qs = append(qs, s.q)
			}
		}
		var err error
		if rs, err = replay(in.graphBytes, qs); err != nil {
			return nil, err
		}
		ms = append(ms, svcMetrics(traced, tr)...)
	} else {
		for _, s := range traced.samples {
			rs = append(rs, s.rep)
		}
		ms = append(ms,
			metric{"svc.cache_hit_ratio", "ratio", 0}, metric{"svc.hit_ms", "ms", 0},
			metric{"svc.miss_overhead_ms", "ms", 0}, metric{"svc.response_kb", "KiB", 0},
			metric{"svc.engine_busy_frac", "ratio", 0})
	}
	ms = append(ms, coreMetrics(rs, in.n)...)
	ms = append(ms, wireMetrics(rs, faults)...)

	lad, err := ladder(in.graphBytes, in.treeSets)
	if err != nil {
		return nil, err
	}
	ms = append(ms, lad...)
	return append(ms,
		metric{"trace.overhead_frac", "ratio", 1 - traced.qps()/plain.qps()},
		metric{"trace.queries", "count", float64(len(traced.samples))}), nil
}

// liveHeap is the live heap in bytes after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// stamp identifies the box and the code a result came from, so drift can
// be told apart from a change of machine.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func makeStamp(cfg config) stamp {
	return stamp{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(cfg.root), SourceHash: sourceHash(cfg.root),
	}
}

// gitCommit is root's checked-out commit, or "unknown" when root is not a
// git work tree (a bare source checkout).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every .go, go.mod and .sh file under root (outside
// dot-directories), so results from a checkout without git history still
// name the code they measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".sh") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// report prints the stamped, human-readable result.
func report(cfg config, st stamp, ms []metric, res result, v *verdict) {
	fmt.Printf("perfbench %s seed=%d trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		cfg.workload, st.Seed, cfg.trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit, st.SourceHash)
	fmt.Printf("  answers: %d attempted (the latency sample count), %d failed (error_rate %.4f); checks run: %v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), v.checks)
	if n := v.checks["prize"]; n > 0 {
		fmt.Printf("  prize answers skip %.1f of %d terminals on average\n", float64(v.skipped)/float64(n), prizeK)
	}
	if res.Attempted < minSamples {
		fmt.Printf("  WARNING: fewer than %d samples; p90 has fewer than 10 beyond it\n", minSamples)
	}
	for _, p := range v.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	for _, m := range ms {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// writeOut writes the stamped result and, on a traced run, the spans.
func writeOut(cfg config, st stamp, res result, tr *tracer) error {
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace0", cfg.workload, cfg.seed)
	if cfg.trace {
		name = fmt.Sprintf("%s-seed%d-trace1", cfg.workload, cfg.seed)
	}
	doc := map[string]any{"stamp": st, "result": res}
	if tr != nil {
		doc["spans"] = tr.spans
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, name+".json"), data, 0o644)
}
