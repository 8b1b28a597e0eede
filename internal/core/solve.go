package core

import (
	"context"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
)

// crossEdge is the value of the E_N table: the best background-graph edge
// (U, V) bridging a cell pair, with D = d1(s,u) + d(u,v) + d1(v,t).
type crossEdge struct {
	D    graph.Dist
	U, V graph.VID
}

// pickCross is the deterministic MIN used by both the local scan and the
// global Allreduce merge: order by (D, U, V). The paper needs a
// tie-breaking scheme to guarantee a unique cross-cell edge per cell pair
// (§III Step 2, Alg. 5's second collective); a total order gives uniqueness
// in a single reduction.
func pickCross(a, b crossEdge) crossEdge {
	if b.D != a.D {
		if b.D < a.D {
			return b
		}
		return a
	}
	if b.U != a.U {
		if b.U < a.U {
			return b
		}
		return a
	}
	if b.V < a.V {
		return b
	}
	return a
}

// seedKey packs an ordered seed pair (s < t) into a map key.
func seedKey(s, t graph.VID) int64 {
	if s > t {
		s, t = t, s
	}
	return int64(s)<<32 | int64(t)
}

func unpackSeedKey(k int64) (s, t graph.VID) {
	return graph.VID(k >> 32), graph.VID(k & 0xffffffff)
}

// Solve computes a 2-approximate Steiner minimal tree of g for the given
// seed vertices. Duplicate seeds are rejected with ErrDuplicateSeed; all
// seeds must lie in one connected component (guaranteed by the
// seed-selection strategies of internal/seeds), otherwise an error is
// returned.
//
// Solve is the one-shot convenience form: it builds a throwaway Engine,
// paying the O(|V|) session setup every call. Interactive workloads that
// issue many queries against one resident graph should hold an Engine (or
// internal/steinersvc's engine pool) instead.
func Solve(g *graph.Graph, seeds []graph.VID, opts Options) (*Result, error) {
	// Validate seeds and take the trivial single-seed exit before paying
	// the engine's O(|V|) session setup.
	dedup, err := canonSeedSet(g.NumVertices(), seeds, make(map[graph.VID]bool, len(seeds)))
	if err != nil {
		return nil, err
	}
	if len(dedup) == 1 {
		return &Result{Seeds: dedup}, nil
	}
	e, err := NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.Solve(dedup)
}

// SolveQuery is the one-shot form of Engine.SolveSpec: it answers one
// tree, forest or prize QuerySpec on a throwaway Engine.
func SolveQuery(g *graph.Graph, spec QuerySpec, opts Options) (*Result, error) {
	e, err := NewEngine(g, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.SolveSpec(spec)
}

// countSteinerVertices counts tree vertices that are not seeds. seeds must
// be sorted (Solve's dedup guarantees it). Sorted-slice dedup plus a merge
// against the seed list keeps this map-free — on large trees the map
// version's overflow buckets dominated a warm Engine solve's allocations.
func countSteinerVertices(tree []graph.Edge, seeds []graph.VID) int {
	verts := make([]graph.VID, 0, 2*len(tree))
	for _, e := range tree {
		verts = append(verts, e.U, e.V)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	count := 0
	si := 0
	for i, v := range verts {
		if i > 0 && verts[i-1] == v {
			continue
		}
		for si < len(seeds) && seeds[si] < v {
			si++
		}
		if si < len(seeds) && seeds[si] == v {
			continue
		}
		count++
	}
	return count
}

// memoryStats models the Fig. 8 accounting: measured sizes for the graph,
// per-rank shards, control state (rank-local slabs, or the shared arrays in
// GlobalCSR mode) and edge tables, plus a buffer-residency model (P
// outgoing buffers per rank at the configured batch size).
func memoryStats(g *graph.Graph, shardBytes, stateBytes int64, localENs []map[int64]crossEdge, res *Result, opts Options) MemoryStats {
	lens := make([]int64, len(localENs))
	for i, m := range localENs {
		lens[i] = int64(len(m))
	}
	return memoryStatsFromLens(g, shardBytes, stateBytes, lens, res, opts)
}

// memoryStatsFromLens is memoryStats over per-rank E_N table sizes — the
// form the TCP backend reports them in (the tables live in the workers,
// only their sizes travel back in the per-query WorkerDone frames).
func memoryStatsFromLens(g *graph.Graph, shardBytes, stateBytes int64, tableLens []int64, res *Result, opts Options) MemoryStats {
	const crossEntryBytes = 8 + 16 + 8 // key + crossEdge + map overhead approx
	const msgBytes = 24
	var tableBytes int64
	for _, n := range tableLens {
		tableBytes += n * crossEntryBytes
	}
	tableBytes += int64(res.DistGraphEdges) * crossEntryBytes // merged copy
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 64
	}
	return MemoryStats{
		GraphBytes:     g.MemoryBytes(),
		ShardBytes:     shardBytes,
		StateBytes:     stateBytes,
		EdgeTableBytes: tableBytes,
		DistGraphBytes: int64(res.DistGraphEdges) * 20 * int64(opts.Ranks),
		BufferBytes:    int64(opts.Ranks) * int64(opts.Ranks) * int64(batch) * msgBytes,
	}
}

// recorder tracks per-phase wall time and message deltas. Rank 0 writes the
// shared Result between barriers. In a distributed session the message
// counters live per process, so each process leader (its lowest hosted
// rank, rec.lo) snapshots local deltas and the totals are summed with an
// allreduce; loopback keeps the original rank-0-only snapshot with no
// extra collectives on the hot path.
type recorder struct {
	comm *rt.Comm
	res  *Result
	dist bool
	lo   int

	t0 time.Time
	s0 rt.Stats
}

// phase runs fn on every rank between barriers and records its duration,
// message counts and max-per-rank work (fn's return value, reduced MAX).
func (rec *recorder) phase(r *rt.Rank, name string, fn func() int64) {
	r.Barrier()
	if r.ID() == rec.lo {
		rec.t0 = time.Now()
		rec.s0 = rec.comm.Stats()
	}
	r.Barrier()
	// Tag the phase body with pprof labels so CPU profiles split by solver
	// phase and rank.
	var work int64
	pprof.Do(context.Background(),
		pprof.Labels("dsteiner_phase", name, "dsteiner_rank", strconv.Itoa(r.ID())),
		func(context.Context) { work = fn() })
	r.Barrier()
	maxWork := r.AllreduceMaxInt64(work)
	if !rec.dist {
		if r.ID() == 0 {
			s1 := rec.comm.Stats()
			rec.res.Phases = append(rec.res.Phases, PhaseStat{
				Name:        name,
				Seconds:     time.Since(rec.t0).Seconds(),
				Sent:        s1.Sent - rec.s0.Sent,
				Processed:   s1.Processed - rec.s0.Processed,
				MaxRankWork: maxWork,
			})
		}
		return
	}
	var dSent, dProcessed int64
	if r.ID() == rec.lo {
		s1 := rec.comm.Stats()
		dSent, dProcessed = s1.Sent-rec.s0.Sent, s1.Processed-rec.s0.Processed
	}
	sent := r.AllreduceSumInt64(dSent)
	processed := r.AllreduceSumInt64(dProcessed)
	if r.ID() == 0 {
		rec.res.Phases = append(rec.res.Phases, PhaseStat{
			Name:        name,
			Seconds:     time.Since(rec.t0).Seconds(),
			Sent:        sent,
			Processed:   processed,
			MaxRankWork: maxWork,
		})
	}
}
