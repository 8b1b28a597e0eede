package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// solveEnv is one query's per-process environment for the six-phase SPMD
// solve body. It was extracted from Engine.Solve so the body can run in
// two homes with identical code: every rank of a loopback Engine, and the
// hosted rank subset of a remote rankd worker — where the process holds
// only its shards, slabs and scratch tables, and everything global flows
// through collectives. Fields indexed by rank use GLOBAL rank ids; a
// worker populates only the hosted entries.
type solveEnv struct {
	// g is the resident global CSR; nil on remote workers, whose body
	// never touches it (the GlobalCSR reference mode is loopback-only).
	g    *graph.Graph
	opts Options
	comm *rt.Comm

	// Per-query inputs, identical on every process.
	dedup   []graph.VID
	seedIdx map[graph.VID]int32

	// Mode-specific inputs, also identical on every process: the query
	// mode, the dense-terminal→group map and group count (forest; nil/0
	// otherwise) and the dense-terminal penalties (prize; nil otherwise).
	mode      Mode
	groupOf   []int32
	numGroups int
	penalty   []graph.Dist

	// res is written by global rank 0 between barriers; only the process
	// hosting rank 0 publishes it. err is rank 0's solve error.
	res *Result
	err error

	// mstFragment selects the rank-parallel fragment merge for phases 3–5
	// (resolved from Options.MSTMode by the engine or worker, identically
	// on every process; always false for prize queries, whose moat-growing
	// plan needs the full replicated table).
	mstFragment bool

	// Pooled per-rank scratch (the owning Engine's or worker's pools).
	localENs []map[int64]crossEdge
	pruneds  []map[int64]crossEdge
	trees    [][]graph.Edge
	// owneds and frags are the fragment merge's pooled per-rank state: the
	// rank-sharded cross table and the fragment-label array. merges is the
	// replicated path's pooled wire scratch (encode buffer + merge target);
	// nil on loopback, which merges shared maps in-memory.
	owneds []map[int64]crossEdge
	frags  [][]int32
	merges []*mergeScratch
	// ghosts is phase 2's pooled per-rank ghost table.
	ghosts []ghostTable

	// dist is phase 4's replicated input, built once per process by the
	// first hosted rank to reach phase 4 and read by the others.
	dist distGraph

	// GlobalCSR reference-mode shared state (loopback only).
	st        *voronoi.State
	walked    []uint64
	walkedGen uint64
}

// rankBody runs the six solver phases on one rank. It must be invoked
// SPMD on every rank of the communicator — local or remote — with an
// identically-initialized env.
func (env *solveEnv) rankBody(r *rt.Rank) {
	g, opts, dedup, seedIdx := env.g, env.opts, env.dedup, env.seedIdx
	res := env.res
	rec := &recorder{comm: env.comm, res: res, dist: r.Distributed()}
	rec.lo, _ = env.comm.HostRange()

	// Rank-local accessors: the production path reads this rank's CSR
	// slab for adjacency and its StateSlab for control state; the
	// GlobalCSR reference path scans the shared global arrays exactly
	// as before the shard/slab refactors. Adjacency lookups take an
	// owned vertex first (edge weights are symmetric, so looking up
	// {u, v} from u's slab row equals the global edge weight); state
	// access through st touches only owned vertices — remote state
	// arrives via the mailbox (phase 2's ghost push), never direct
	// reads.
	adjOf := r.Adj
	edgeWeight := r.EdgeWeight
	var st voronoi.Control
	var markWalked func(graph.VID) bool
	if opts.GlobalCSR {
		adjOf = g.Adj
		edgeWeight = g.HasEdge
		st = env.st
		markWalked = func(v graph.VID) bool {
			if env.walked[v] == env.walkedGen {
				return false
			}
			env.walked[v] = env.walkedGen
			return true
		}
	} else {
		sl := voronoi.SlabOf(r)
		st = sl
		markWalked = sl.MarkWalked
	}

	// Phase 1: Voronoi cells (Alg. 4).
	faultpoint.Hit("solve.phase1")
	rec.phase(r, PhaseVoronoi, func() int64 {
		var ts rt.TraversalStats
		switch {
		case opts.GlobalCSR && opts.BSP:
			ts = voronoi.RunRankGlobalBSP(r, g, dedup, env.st)
		case opts.GlobalCSR:
			ts = voronoi.RunRankGlobal(r, g, dedup, env.st)
		case opts.BSP:
			ts = voronoi.RunRankBSP(r, dedup)
		default:
			ts = voronoi.RunRank(r, dedup)
		}
		return ts.Processed
	})

	// Phase 2: local min-distance cross-cell edges (Alg. 5,
	// LOCAL_MIN_DIST_EDGE_ASYNC) as one ghost push plus a local scan.
	// The lower endpoint of every cut edge records the candidate, so
	// each owned reached vertex v pushes its final (src, dist) once to
	// every other rank owning a neighbour u < v. The receivers' Merge
	// absorbs the pushes into their ghost tables and queues nothing, so
	// the traversal ends as soon as the pushes are delivered. Each rank
	// then scans its owned reached vertices u against their neighbours
	// v > u, reading v's state from its own control state or, for a
	// remote v, from the sorted ghost table.
	localEN := env.localENs[r.ID()]
	gt := &env.ghosts[r.ID()]
	faultpoint.Hit("solve.phase2")
	rec.phase(r, PhaseLocalMinEdge, func() int64 {
		gt.reset(r.NumRanks())
		r.Traverse(&rt.Traversal{
			BSP: opts.BSP,
			Init: func(r *rt.Rank) {
				last, me := gt.last, r.ID()
				r.OwnedVertices(func(v graph.VID) {
					sv, _, dv := st.Get(v)
					if sv == graph.NilVID {
						return
					}
					adj, _ := adjOf(v)
					for _, u := range adj {
						if u >= v {
							break // rows are sorted; only lower neighbours record
						}
						// v's arcs are scanned consecutively, so last[p]
						// dedups the sends to one per (v, rank p).
						if p := r.Owner(u); p != me && last[p] != v {
							last[p] = v
							r.Send(rt.Msg{Target: u, From: v, Seed: sv, Dist: dv})
						}
					}
				})
			},
			Merge: func(_ *rt.Rank, m rt.Msg) bool {
				gt.rows = append(gt.rows, ghostRow{V: m.From, Src: m.Seed, Dist: m.Dist})
				return false
			},
		})
		gt.index()
		r.OwnedVertices(func(u graph.VID) {
			su, _, du := st.Get(u)
			if su == graph.NilVID {
				return
			}
			adj, ws := adjOf(u)
			for i := len(adj) - 1; i >= 0 && adj[i] > u; i-- {
				v := adj[i]
				var sv graph.VID
				var dv graph.Dist
				if r.Owns(v) {
					sv, _, dv = st.Get(v)
				} else {
					sv, dv = gt.lookup(v)
				}
				if sv == graph.NilVID || sv == su {
					continue
				}
				// Forest mode: a candidate joining cells of two different
				// groups can never appear in any group's tree, so it is
				// excluded here — the merged distance graph then holds
				// intra-group edges only.
				if env.groupOf != nil && env.groupOf[seedIdx[su]] != env.groupOf[seedIdx[sv]] {
					continue
				}
				cand := crossEdge{D: du + graph.Dist(ws[i]) + dv, U: u, V: v}
				key := seedKey(su, sv)
				if cur, ok := localEN[key]; ok {
					localEN[key] = pickCross(cur, cand)
				} else {
					localEN[key] = cand
				}
			}
		})
		return int64(len(gt.rows)) // the pushes this rank absorbed
	})

	// Phase 3: global min-distance edges. The fragment merge routes each
	// record to the rank owning the pair's lower seed, leaving a disjoint
	// table shard per rank; the replicated path is the paper's
	// MPI_Allreduce(MPI_MIN) over the per-rank E_N tables. With
	// CollectiveChunk set (replicated only), the table is reduced in
	// key-partitioned chunks, trading collective-buffer memory for extra
	// rounds (the paper's §V-F mitigation for the |S|=10K blowup).
	var merged map[int64]crossEdge
	var owned map[int64]crossEdge
	fs := &fragStats{}
	ok := true
	faultpoint.Hit("solve.phase3")
	rec.phase(r, PhaseGlobalMinEdge, func() int64 {
		if env.mstFragment {
			owned, ok = env.fragmentRoute(r, localEN, fs)
			return 0
		}
		if opts.CollectiveChunk <= 0 {
			merged, ok = env.mergeCrossTables(r, localEN, fs)
			if r.ID() == 0 {
				res.CollectiveChunks = 1
			}
			return 0
		}
		maxSize := r.AllreduceMaxInt64(int64(len(localEN)))
		numChunks := int((maxSize + int64(opts.CollectiveChunk) - 1) / int64(opts.CollectiveChunk))
		if numChunks < 1 {
			numChunks = 1
		}
		merged = make(map[int64]crossEdge, len(localEN))
		for c := 0; c < numChunks; c++ {
			sub := map[int64]crossEdge{}
			for k, v := range localEN {
				if int(uint64(k)%uint64(numChunks)) == c {
					sub[k] = v
				}
			}
			part, partOK := env.mergeCrossTables(r, sub, fs)
			if !partOK {
				ok = false
				return 0
			}
			for k, v := range part {
				merged[k] = v
			}
		}
		if r.ID() == 0 {
			res.CollectiveChunks = numChunks
		}
		return 0
	})
	if !ok {
		return // cross-table decode failure: all ranks bail together
	}

	// Phase 4: MST of the distance graph G'₁ (Alg. 3 line 17). The
	// fragment merge runs distributed Borůvka rounds over the sharded
	// table; the replicated path computes a sequential MST locally on
	// every rank — G'₁ is small, so replication avoids remote copies, as
	// in the paper. Its edge list and the prize plan are built once per
	// process (env.dist) and shared by the hosted ranks. seedIdx is shared
	// read-only (built before the SPMD body).
	pruned := env.pruneds[r.ID()]
	var mstPairs map[int64]bool
	faultpoint.Hit("solve.phase4")
	rec.phase(r, PhaseMST, func() int64 {
		if env.mstFragment {
			ok = env.fragmentMST(r, owned, pruned, fs)
			return 0
		}
		if r.Distributed() {
			// The replicated gather's payload total, for comparison with
			// the fragment merge's CrossTableBytes.
			if bytes := r.AllreduceSumInt64(fs.bytes); r.ID() == 0 {
				res.CrossTableBytes = bytes
			}
		}
		dg := &env.dist
		dg.once.Do(func() { dg.build(env, merged) })
		if r.ID() == 0 {
			res.DistGraphEdges = len(dg.edges)
			if env.mode == ModePrize {
				res.Skipped = dg.skipped
			}
		}
		wedges, keptCount := dg.mstInput, dg.keptCount

		var forest mst.Result
		switch opts.MST {
		case MSTKruskal:
			forest = mst.Kruskal(len(dedup), wedges)
		case MSTBoruvka:
			var rounds int
			forest, rounds = mst.Boruvka(len(dedup), wedges)
			if r.ID() == 0 {
				res.MSTRounds = rounds
			}
		default:
			forest = mst.Prim(len(dedup), wedges)
		}

		// Connectivity requirement by mode: one component spanning all
		// terminals for tree, one per group for forest (the MST of the
		// group-filtered table is a spanning forest with exactly one tree
		// per group), one over the kept subset for prize.
		want := keptCount - 1
		if env.mode == ModeForest {
			want = len(dedup) - env.numGroups
		}
		if len(forest.Edges) < want {
			if r.ID() == 0 {
				switch env.mode {
				case ModeForest:
					env.err = forestDisconnectedErr(env.groupOf, env.numGroups, len(dedup), forest.Edges)
				case ModePrize:
					env.err = fmt.Errorf("core: internal error: prize kept set spans %d connected components",
						keptCount-len(forest.Edges))
				default:
					env.err = fmt.Errorf("core: seeds span %d connected components; Steiner tree requires one",
						len(dedup)-len(forest.Edges))
				}
			}
			mstPairs = nil
			return 0
		}
		mstPairs = make(map[int64]bool, len(forest.Edges))
		for _, fe := range forest.Edges {
			mstPairs[seedKey(dedup[fe.U], dedup[fe.V])] = true
		}
		return 0
	})
	if env.mstFragment {
		if !ok {
			return // disconnected seeds or corrupt round: uniform bail
		}
	} else if mstPairs == nil {
		return // disconnected seeds: all ranks bail out identically
	}

	// Phase 5: global edge pruning (Alg. 5, EDGE_PRUNING_COLL) —
	// cross-cell edges whose cell pair is not an MST edge are
	// dropped. The total order in pickCross already guarantees a
	// unique survivor per pair, so no second collective is needed.
	// The fragment merge accumulated its winners into pruned during
	// the Borůvka rounds, so its phase 5 is already done.
	faultpoint.Hit("solve.phase5")
	rec.phase(r, PhasePruning, func() int64 {
		if env.mstFragment {
			return 0
		}
		for k, ce := range merged {
			if mstPairs[k] {
				pruned[k] = ce
			}
		}
		return 0
	})

	// Phase 6: Steiner tree edges (Alg. 6) — walk predecessor
	// chains from surviving cross-cell endpoints to cell seeds.
	// The walked marks are epoch-versioned like the Voronoi state,
	// so no O(|V|) bitmap is re-zeroed between queries, and the
	// per-rank accumulator keeps its capacity (the published tree
	// is a sorted copy, so reuse cannot leak across queries).
	localTree := env.trees[r.ID()]
	faultpoint.Hit("solve.phase6")
	rec.phase(r, PhaseTreeEdge, func() int64 {
		ts := r.Traverse(&rt.Traversal{
			BSP: opts.BSP,
			Init: func(r *rt.Rank) {
				for _, ce := range pruned {
					if !r.Owns(ce.U) {
						continue // u's home partition records the edge
					}
					w, _ := edgeWeight(ce.U, ce.V)
					localTree = append(localTree, graph.Edge{U: ce.U, V: ce.V, W: w}.Canon())
					r.Send(rt.Msg{Target: ce.U})
					r.Send(rt.Msg{Target: ce.V})
				}
			},
			Visit: func(r *rt.Rank, m rt.Msg) {
				vj := m.Target
				if !markWalked(vj) {
					return
				}
				if vj == st.Src(vj) {
					return
				}
				p := st.Pred(vj)
				// vj is owned here; its predecessor may not be, so the
				// lookup goes through vj's slab row (weights are
				// symmetric).
				w, _ := edgeWeight(vj, p)
				localTree = append(localTree, graph.Edge{U: p, V: vj, W: w}.Canon())
				r.Send(rt.Msg{Target: p})
			},
		})
		return ts.Processed
	})
	env.trees[r.ID()] = localTree // keep the grown capacity pooled

	// Gather the final tree on every process hosting rank 0; rank 0
	// publishes it. Loopback shares slices through the generic
	// AllGather; across a transport the fragments travel as encoded
	// blobs through the rank-ordered gather collective.
	var tree []graph.Edge
	if r.Distributed() {
		parts := rt.GatherBlobs(r, wire.EncodeEdges(nil, localTree))
		if r.ID() == 0 {
			for rank, blob := range parts {
				if len(blob) == 0 {
					continue
				}
				var err error
				if tree, err = wire.DecodeEdges(blob, tree); err != nil {
					env.err = fmt.Errorf("core: tree gather from rank %d: %w", rank, err)
					return
				}
			}
		}
	} else {
		tree = rt.AllGather(r, localTree)
	}
	if r.ID() == 0 {
		sorted := append([]graph.Edge(nil), tree...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].U != sorted[j].U {
				return sorted[i].U < sorted[j].U
			}
			return sorted[i].V < sorted[j].V
		})
		res.Tree = sorted
		res.TotalDistance = graph.TotalWeight(sorted)
	}
}

// forestDisconnectedErr names the first forest group whose terminals the
// group-filtered distance graph cannot connect.
func forestDisconnectedErr(groupOf []int32, numGroups, nT int, edges []mst.WEdge) error {
	uf := make([]int32, nT)
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for _, e := range edges {
		if ru, rv := find(e.U), find(e.V); ru != rv {
			uf[ru] = rv
		}
	}
	comps := make([]int, numGroups)
	seen := make(map[int32]bool, nT)
	for i := 0; i < nT; i++ {
		r := find(int32(i))
		if !seen[r] {
			seen[r] = true
			comps[groupOf[i]]++
		}
	}
	for gi, c := range comps {
		if c > 1 {
			return fmt.Errorf("core: forest group %d spans %d connected components; each group must be connected",
				gi, c)
		}
	}
	return fmt.Errorf("core: forest groups are not all connected")
}

// ghostRow is one boundary vertex's final Voronoi state as its owner
// pushed it in phase 2.
type ghostRow struct {
	Dist graph.Dist
	V    graph.VID
	Src  graph.VID
}

// ghostTable is a rank's pooled phase-2 scratch: the rows its peers
// pushed this query, a bucket index over them, and last, the
// per-destination-rank dedup mark of the rank's own push. Every part is
// O(ghost vertices), never O(|V|).
type ghostTable struct {
	rows []ghostRow
	// start[b] is the first row of bucket b once the rows are sorted by
	// vertex; bucket b holds the vertices v with (v-lo)>>shift == b.
	start []int32
	lo    graph.VID
	shift uint
	last  []graph.VID
}

// reset empties the table for a new query on a ranks-rank communicator.
func (gt *ghostTable) reset(ranks int) {
	gt.rows = gt.rows[:0]
	if len(gt.last) != ranks {
		gt.last = make([]graph.VID, ranks)
	}
	for p := range gt.last {
		gt.last[p] = graph.NilVID
	}
}

// index sorts the rows by vertex and builds the bucket index, with the
// bucket width the smallest power of two that leaves at most one bucket
// per row. A vertex has one owner, which pushes it to a given rank at most
// once, so the keys are unique.
func (gt *ghostTable) index() {
	rows := gt.rows
	slices.SortFunc(rows, func(a, b ghostRow) int { return cmp.Compare(a.V, b.V) })
	gt.start = gt.start[:0]
	if len(rows) == 0 {
		return
	}
	gt.lo = rows[0].V
	span := uint64(rows[len(rows)-1].V-gt.lo) + 1
	gt.shift = 0
	for span>>gt.shift > uint64(len(rows)) {
		gt.shift++
	}
	for i, row := range rows {
		b := int(uint64(row.V-gt.lo) >> gt.shift)
		for len(gt.start) <= b {
			gt.start = append(gt.start, int32(i))
		}
	}
	gt.start = append(gt.start, int32(len(rows)))
}

// lookup returns remote vertex v's pushed (src, dist), or (NilVID,
// InfDist) when v pushed nothing here: it is unreached.
func (gt *ghostTable) lookup(v graph.VID) (graph.VID, graph.Dist) {
	if d := int64(v) - int64(gt.lo); d >= 0 && d>>gt.shift < int64(len(gt.start)-1) {
		b := d >> gt.shift
		lo, hi := int(gt.start[b]), int(gt.start[b+1])
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if gt.rows[mid].V < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(gt.rows) && gt.rows[lo].V == v {
			return gt.rows[lo].Src, gt.rows[lo].Dist
		}
	}
	return graph.NilVID, graph.InfDist
}

// mergeScratch is a rank's pooled replicated-merge wire scratch: the
// cross-table encode buffer and the distributed merge target map, reused
// across queries like the transport's encode scratch.
type mergeScratch struct {
	enc    []byte
	merged map[int64]crossEdge
}

// distGraph is the replicated path's phase-4 input, one per query and
// process. Every hosted rank holds an identical merged cross table, so the
// first one to arrive builds this and the others share it read-only (the
// MST routines never modify their input).
type distGraph struct {
	once sync.Once
	// edges is G'_1 in seed-key order over dense terminal indices.
	edges []mst.WEdge
	// mstInput is edges restricted to the kept terminals (prize mode) or
	// edges itself; keptCount is the number of terminals it must span.
	mstInput  []mst.WEdge
	keptCount int
	// skipped lists the terminals the prize plan pays to leave out.
	skipped []graph.VID
}

func (dg *distGraph) build(env *solveEnv, merged map[int64]crossEdge) {
	keys := make([]int64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dg.edges = make([]mst.WEdge, len(keys))
	for i, k := range keys {
		s, t := unpackSeedKey(k)
		dg.edges[i] = mst.WEdge{U: env.seedIdx[s], V: env.seedIdx[t], W: merged[k].D}
	}
	dg.mstInput, dg.keptCount = dg.edges, len(env.dedup)
	if env.mode != ModePrize {
		return
	}
	// Prize mode: the moat-growing plan picks the kept subset; skipped
	// terminals and their edges leave the MST input.
	keep := prizePlan(len(env.dedup), dg.edges, env.penalty)
	dg.mstInput = make([]mst.WEdge, 0, len(dg.edges))
	for _, we := range dg.edges {
		if keep[we.U] && keep[we.V] {
			dg.mstInput = append(dg.mstInput, we)
		}
	}
	dg.keptCount = 0
	for i, k := range keep {
		if k {
			dg.keptCount++
		} else {
			dg.skipped = append(dg.skipped, env.dedup[i])
		}
	}
}

// mergeCrossTables merges the per-rank E_N tables into the globally-minimal
// cross-cell edge per cell pair. Loopback uses the generic shared-memory
// map reduction; across a transport each rank's table travels as an
// encoded blob through the rank-ordered gather, and every process merges
// locally — pickCross is associative and commutative with a total order,
// so the merged table is identical everywhere regardless of merge order.
// A decode failure is uniform (every process decodes the same gathered
// blobs), so all ranks return ok=false together and rank 0 records the
// error — a fail-stop session abort instead of a process-killing panic.
// The returned map is the pooled scratch: valid until the next query.
func (env *solveEnv) mergeCrossTables(r *rt.Rank, local map[int64]crossEdge, fs *fragStats) (map[int64]crossEdge, bool) {
	if !r.Distributed() {
		return rt.ReduceMap(r, local, pickCross), true
	}
	sc := env.merges[r.ID()]
	sc.enc = encodeCrossTable(sc.enc[:0], local)
	fs.bytes += int64(len(sc.enc))
	parts := rt.GatherBlobs(r, sc.enc)
	clear(sc.merged)
	for rank, blob := range parts {
		if rank != r.ID() {
			fs.bytes += int64(len(blob))
		}
		if err := decodeCrossTableInto(sc.merged, blob); err != nil {
			if r.ID() == 0 {
				env.err = fmt.Errorf("core: cross-table gather from rank %d: %w", rank, err)
			}
			return nil, false
		}
	}
	return sc.merged, true
}

// encodeCrossTable encodes an E_N table for the gather collective.
func encodeCrossTable(dst []byte, table map[int64]crossEdge) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(table)))
	for k, ce := range table {
		dst = wire.AppendVarint(dst, k)
		dst = wire.AppendUvarint(dst, uint64(ce.D))
		dst = wire.AppendUvarint(dst, uint64(uint32(ce.U)))
		dst = wire.AppendUvarint(dst, uint64(uint32(ce.V)))
	}
	return dst
}

// decodeCrossTableInto folds an encoded E_N table into dst under the
// pickCross total order.
func decodeCrossTableInto(dst map[int64]crossEdge, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	d := wire.NewDec(blob)
	n := d.Uvarint()
	for i := uint64(0); i < n; i++ {
		k := d.Varint()
		ce := crossEdge{
			D: graph.Dist(d.Uvarint()),
			U: graph.VID(int32(d.Uvarint())),
			V: graph.VID(int32(d.Uvarint())),
		}
		if err := d.Err(); err != nil {
			return err
		}
		if cur, ok := dst[k]; ok {
			dst[k] = pickCross(cur, ce)
		} else {
			dst[k] = ce
		}
	}
	return d.Err()
}
