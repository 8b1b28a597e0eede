package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"dsteiner/internal/baseline"
	"dsteiner/internal/core"
	"dsteiner/internal/graph"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// coreMetrics reads the per-query counters the program returns in
// core.Result: the core, phase, runtime, mst and memory layers. rs are
// replies carrying a Result; n is the graph's vertex count.
func coreMetrics(rs []reply, n int) []metric {
	phase1 := func(r reply) core.PhaseStat { return r.res.Phase(core.PhaseVoronoi) }
	ms := []metric{
		{"core.solve_ms", "ms", medianOf(rs, reply.ms)},
		{"core.outside_phases_ms", "ms", medianOf(rs, func(r reply) float64 {
			return r.ms() - r.res.TotalSeconds()*1e3
		})},
		{"mem.algorithm_mb", "MiB", medianOf(rs, func(r reply) float64 {
			return float64(r.res.Memory.AlgorithmBytes()) / (1 << 20)
		})},
	}
	for _, name := range core.PhaseNames {
		ms = append(ms, metric{"phase." + phaseKey(name) + "_ms", "ms", medianOf(rs, func(r reply) float64 {
			return r.res.Phase(name).Seconds * 1e3
		})})
	}
	return append(ms,
		metric{"runtime.msgs_per_query", "count", medianOf(rs, func(r reply) float64 {
			return float64(r.res.TotalMessages())
		})},
		metric{"runtime.ns_per_msg", "ns", medianOf(rs, func(r reply) float64 {
			p := phase1(r)
			return p.Seconds * 1e9 / float64(p.Processed)
		})},
		metric{"runtime.useful_ratio", "ratio", medianOf(rs, func(r reply) float64 {
			return float64(n) / float64(phase1(r).Processed)
		})},
		metric{"runtime.rank_imbalance", "ratio", medianOf(rs, func(r reply) float64 {
			p := phase1(r)
			return float64(p.MaxRankWork) / (float64(p.Processed) / ranks)
		})},
		metric{"mst.dist_graph_edges", "count", medianOf(rs, func(r reply) float64 {
			return float64(r.res.DistGraphEdges)
		})},
		metric{"mst.rounds", "count", medianOf(rs, func(r reply) float64 { return float64(r.res.MSTRounds) })},
		metric{"mst.fragment_msgs", "count", medianOf(rs, func(r reply) float64 {
			return float64(r.res.FragmentMsgs)
		})},
	)
}

// wireMetrics reads the per-query transport counters (core.Result.Net),
// all zero on the loopback backend, plus the session faults the
// coordinator detected.
func wireMetrics(rs []reply, faults int64) []metric {
	var small, all float64
	for _, r := range rs {
		n := r.res.Net
		small += float64(n.FlushesSmall)
		all += float64(n.FlushesSmall + n.FlushesMid + n.FlushesLarge)
	}
	share := 0.0
	if all > 0 {
		share = small / all
	}
	return []metric{
		{"wire.bytes_out_per_query", "B", medianOf(rs, func(r reply) float64 { return float64(r.res.Net.BytesOut) })},
		{"wire.frames_out_per_query", "count", medianOf(rs, func(r reply) float64 { return float64(r.res.Net.FramesOut) })},
		{"wire.encode_ms_per_query", "ms", medianOf(rs, func(r reply) float64 { return float64(r.res.Net.EncodeNs) / 1e6 })},
		{"wire.decode_ms_per_query", "ms", medianOf(rs, func(r reply) float64 { return float64(r.res.Net.DecodeNs) / 1e6 })},
		{"wire.small_flush_share", "ratio", share},
		{"wire.faults", "count", float64(faults)},
	}
}

// svcMetrics reads the steinersvc layer from the traced window's HTTP
// replies and spans.
func svcMetrics(w window, tr *tracer) []metric {
	var hits []sample
	var busy float64
	for _, s := range w.samples {
		if s.rep.cached {
			hits = append(hits, s)
		} else {
			busy += s.rep.phaseSec
		}
	}
	// svc.http self time on a miss: the HTTP round trip minus the solve
	// the response reports — pool wait, JSON and HTTP.
	var overhead []float64
	child := map[int64]float64{}
	for _, sp := range tr.spans {
		if sp.Name == "core.solve" {
			child[sp.Parent] += float64(sp.End-sp.Start) / 1e6
		}
	}
	for _, sp := range tr.spans {
		if d, ok := child[sp.ID]; ok && sp.Name == "svc.http" {
			overhead = append(overhead, float64(sp.End-sp.Start)/1e6-d)
		}
	}
	reps := make([]reply, len(w.samples))
	for i, s := range w.samples {
		reps[i] = s.rep
	}
	return []metric{
		{"svc.cache_hit_ratio", "ratio", float64(len(hits)) / float64(len(w.samples))},
		{"svc.hit_ms", "ms", median(httpMs(tr, hits))},
		{"svc.miss_overhead_ms", "ms", median(overhead)},
		{"svc.response_kb", "KiB", medianOf(reps, func(r reply) float64 { return float64(r.bytes) / 1024 })},
		{"svc.engine_busy_frac", "ratio", busy / w.wall.Seconds()},
	}
}

// httpMs is the svc.http span duration of each sample in ss.
func httpMs(tr *tracer, ss []sample) []float64 {
	want := map[int64]bool{}
	for _, s := range ss {
		want[s.qid] = true
	}
	var out []float64
	for _, sp := range tr.spans {
		if sp.Name == "svc.http" && want[sp.Query] {
			out = append(out, float64(sp.End-sp.Start)/1e6)
		}
	}
	return out
}

// replay answers queries on a fresh loopback core.Default(4) engine over a
// graph decoded from data, after one warm-up query, and returns the
// replies with their Results.
func replay(data []byte, qs []query) ([]reply, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	g, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t, err := newEngine(g, ranks, 0)
	if err != nil {
		return nil, err
	}
	defer t.close()
	var out []reply
	for i, q := range append(qs[:1:1], qs...) {
		r := t.do(q, nil, 0)
		if r.err != nil {
			return nil, fmt.Errorf("replay: %w", r.err)
		}
		if i > 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

// numLadderSets is how many of the fixed tree sets the ladder runs; odd, so
// every median is one measured query.
const numLadderSets = 9

// ladder runs the same tree sets through each layer of the stack, one set
// at a time across all layers so drift hits every layer alike:
//
//	L0 baseline.Mehlhorn (sequential floor)
//	L1 1-rank loopback engine
//	L2 4-rank loopback engine
//	L3 4 TCP ranks in 2 in-process rankd workers
//	L4 uncached steinersvc over loopback HTTP (4 ranks, 1 engine)
//
// It reports each layer's median and each ratio with its base, plus the
// 1-rank message count, which is deterministic per graph and set.
func ladder(data []byte, sets [][]graph.VID) (ms []metric, err error) {
	g, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var layers []target
	defer func() {
		for _, t := range layers {
			err = errors.Join(err, t.close())
		}
	}()
	for _, l := range []struct{ ranks, workers int }{{1, 0}, {ranks, 0}, {ranks, 2}} {
		t, err := newEngine(g, l.ranks, l.workers)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		layers = append(layers, t)
	}
	svc, err := newSvc(g, 0)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	layers = append(layers, svc)

	warm := query{class: classTree, spec: core.TreeSpec(sets[len(sets)-1])}
	for _, t := range layers {
		if r := t.do(warm, nil, 0); r.err != nil {
			return nil, fmt.Errorf("ladder warm-up: %w", r.err)
		}
	}
	times := make([][]float64, 1+len(layers))
	var msgs []float64
	for _, set := range sets[:numLadderSets] {
		start := time.Now()
		if _, err := baseline.Mehlhorn(g, set); err != nil {
			return nil, fmt.Errorf("ladder L0: %w", err)
		}
		times[0] = append(times[0], float64(time.Since(start).Nanoseconds())/1e6)
		for i, t := range layers {
			r := t.do(query{class: classTree, spec: core.TreeSpec(set)}, nil, 0)
			if r.err != nil {
				return nil, fmt.Errorf("ladder L%d: %w", i+1, r.err)
			}
			times[i+1] = append(times[i+1], r.ms())
			if i == 0 {
				msgs = append(msgs, float64(r.res.TotalMessages()))
			}
		}
	}
	l := make([]float64, len(times))
	for i, ts := range times {
		l[i] = median(ts)
	}
	return []metric{
		{"ladder.l0_mehlhorn_ms", "ms", l[0]},
		{"ladder.l1_1rank_ms", "ms", l[1]},
		{"ladder.l2_loopback_ms", "ms", l[2]},
		{"ladder.l3_tcp_ms", "ms", l[3]},
		{"ladder.l4_svc_ms", "ms", l[4]},
		{"ladder.l1_over_l0", "ratio", l[1] / l[0]},
		{"ladder.l2_over_l1", "ratio", l[2] / l[1]},
		{"ladder.l3_over_l2", "ratio", l[3] / l[2]},
		{"ladder.l4_over_l2", "ratio", l[4] / l[2]},
		{"runtime.msgs_1rank", "count", median(msgs)},
	}, nil
}
