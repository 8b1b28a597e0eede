package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/voronoi"
)

// Engine is a long-lived solver session bound to one graph: the partition,
// the communicator (with its pinned rank goroutines) and all O(|V|)
// algorithm state are built once and reused across Solve calls, so a query
// against a resident graph pays only work proportional to the query — the
// paper's §I interactive-exploration requirement. A cold Solve per query
// instead pays O(|V|) re-initialization (three Voronoi arrays, a walked
// bitmap, a fresh partition and P new goroutines) every time.
//
// Engine.Solve is safe for concurrent use but serializes internally; run
// several Engines over the same *graph.Graph (it is immutable and shared)
// for concurrent queries, as internal/steinersvc's engine pool does.
type Engine struct {
	g    *graph.Graph
	opts Options
	comm *rt.Comm

	// Sharded substrate, built once at session setup and pooled across
	// queries: the plan (per-rank owned sets + delegates) and one
	// rank-local CSR slab per rank. Nil in Options.GlobalCSR reference
	// mode.
	plan   *partition.ShardPlan
	shards []*graph.Shard

	// cluster is the BackendTCP coordinator session; non-nil when the
	// ranks live in external rankd workers instead of this process. comm
	// and the pooled per-query state below are nil in that mode — the
	// workers hold the per-rank state.
	cluster *cluster

	mu sync.Mutex // serializes Solve on this engine

	// Pooled per-query state, reset in O(1) or O(query) between solves.
	// The production path keeps all per-vertex control state in rank-local
	// slabs (owned vertices + delegate mirrors + walk marks); the shared
	// arrays st/walked exist only in Options.GlobalCSR reference mode.
	slabs     []*voronoi.StateSlab  // rank-local control state (nil in GlobalCSR mode)
	st        *voronoi.State        // shared Voronoi arrays (GlobalCSR mode only)
	walked    []uint64              // shared phase-6 "walked" marks (GlobalCSR mode only)
	walkedGen uint64                // current walked epoch (GlobalCSR mode only)
	localENs  []map[int64]crossEdge // per-rank E_N tables, cleared per query
	seen      map[graph.VID]bool    // seed-validation scratch
	seedIdx   map[graph.VID]int32   // seed -> dense index, rebuilt per query
	pruneds   []map[int64]crossEdge // per-rank phase-5 survivors
	trees     [][]graph.Edge        // per-rank phase-6 edge accumulators
	owneds    []map[int64]crossEdge // per-rank fragment-merge table shards
	frags     [][]int32             // per-rank fragment-label arrays
	ghosts    []ghostTable          // per-rank phase-2 ghost tables

	// mstMode is the resolved phase 3–5 merge strategy (never auto):
	// fragment by default, replicated in GlobalCSR reference mode or when
	// pinned by Options.MSTMode.
	mstMode MSTMode
}

// NewEngine builds a reusable solver session for g. The returned Engine
// holds opts.Ranks pinned goroutines until Close. Engine pools serving one
// graph should build the first engine here and the rest with NewSibling,
// which shares the immutable shard substrate instead of rebuilding it.
func NewEngine(g *graph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.MSTMode == MSTFragment && opts.GlobalCSR {
		return nil, fmt.Errorf("core: MSTFragment needs the sharded path (GlobalCSR is the replicated reference mode)")
	}
	if opts.Backend == BackendTCP {
		return newClusterEngine(g, opts)
	}
	n := g.NumVertices()

	var part partition.Partition
	var err error
	switch opts.Partition {
	case PartitionHash:
		part, err = partition.NewHash(n, opts.Ranks)
	case PartitionArcBlock:
		part, err = partition.NewArcBlock(g, opts.Ranks)
	default:
		part, err = partition.NewBlock(n, opts.Ranks)
	}
	if err != nil {
		return nil, err
	}
	if opts.DelegateThreshold > 0 {
		part = partition.WithDelegates(part, g, opts.DelegateThreshold)
	}
	var plan *partition.ShardPlan
	var shards []*graph.Shard
	if !opts.GlobalCSR {
		plan, err = partition.NewShardPlan(part, g)
		if err != nil {
			return nil, err
		}
		shards = plan.BuildShards(g)
	}
	return newEngine(g, opts, part, plan, shards)
}

// NewSibling builds another engine over the same graph and options that
// shares the receiver's immutable substrate — partition, shard plan and
// rank-local shards — instead of rebuilding them. Shards are read-only
// after construction, so siblings solve concurrently on one shard set;
// each sibling still owns its communicator (pinned goroutines) and pooled
// per-query state, and must be Closed independently. Engine pools
// (internal/steinersvc) use this so a pool of N engines holds one copy of
// the sharded graph, not N.
func (e *Engine) NewSibling() (*Engine, error) {
	if e.cluster != nil {
		return nil, fmt.Errorf("core: a BackendTCP engine owns its worker fleet and cannot have siblings")
	}
	return newEngine(e.g, e.opts, e.comm.Partition(), e.plan, e.shards)
}

// newEngine wires a communicator and pooled per-query state around an
// already-built substrate. opts must have defaults applied.
func newEngine(g *graph.Graph, opts Options, part partition.Partition,
	plan *partition.ShardPlan, shards []*graph.Shard) (*Engine, error) {
	n := g.NumVertices()
	comm, err := rt.New(rt.Config{
		Ranks:           opts.Ranks,
		Queue:           opts.Queue,
		BucketDelta:     opts.BucketDelta,
		BatchSize:       opts.BatchSize,
		ShuffleDelivery: opts.ShuffleDelivery,
		ShuffleSeed:     opts.ShuffleSeed,
	}, part)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		g:        g,
		opts:     opts,
		comm:     comm,
		plan:     plan,
		shards:   shards,
		localENs: make([]map[int64]crossEdge, opts.Ranks),
		seen:     make(map[graph.VID]bool),
		seedIdx:  make(map[graph.VID]int32),
		pruneds:  make([]map[int64]crossEdge, opts.Ranks),
		trees:    make([][]graph.Edge, opts.Ranks),
		owneds:   make([]map[int64]crossEdge, opts.Ranks),
		frags:    make([][]int32, opts.Ranks),
		ghosts:   make([]ghostTable, opts.Ranks),
		mstMode:  opts.MSTMode,
	}
	if e.mstMode == MSTModeAuto {
		if opts.GlobalCSR {
			e.mstMode = MSTReplicated
		} else {
			e.mstMode = MSTFragment
		}
	}
	if shards != nil {
		if err := comm.AttachShards(shards); err != nil {
			return nil, err
		}
		// Control state is rank-local like the adjacency: one slab per
		// rank, sharing the shard's vertex→row index. Slabs are mutable
		// per-query state, so every engine (including siblings sharing one
		// shard set) builds its own.
		e.slabs, err = voronoi.AttachSlabs(comm, plan, shards)
		if err != nil {
			return nil, err
		}
	} else {
		// GlobalCSR reference mode: shared state arrays indexed by global
		// VID, exactly the pre-slab implementation.
		e.st = voronoi.NewState(n)
		e.walked = make([]uint64, n)
	}
	comm.Start()
	for i := range e.localENs {
		e.localENs[i] = map[int64]crossEdge{}
		e.pruneds[i] = map[int64]crossEdge{}
		e.owneds[i] = map[int64]crossEdge{}
	}
	return e, nil
}

// Close releases the engine's pinned rank goroutines — or, for a
// BackendTCP engine, ends the worker session (the rankd processes exit on
// the goodbye). The Engine must not be used afterwards.
func (e *Engine) Close() {
	if e.cluster != nil {
		e.cluster.close()
		return
	}
	e.comm.Close()
}

// stateBytes is the resident control-state footprint: the rank-local slabs
// on the production path, the shared arrays in GlobalCSR reference mode.
func (e *Engine) stateBytes() int64 {
	if e.slabs != nil {
		return e.comm.StateMemoryBytes()
	}
	return e.st.MemoryBytes()
}

// Graph returns the resident graph the engine is bound to.
func (e *Engine) Graph() *graph.Graph { return e.g }

// ShardStats describes an engine's sharded graph substrate, for serving
// layers (/info, /stats) and capacity planning.
type ShardStats struct {
	// Partition is the vertex-to-rank mapping kind ("block", "hash",
	// "arcblock").
	Partition string
	// Ranks is the number of shards (one per rank).
	Ranks int
	// DelegateThreshold is the configured high-degree cutoff (0 = off).
	DelegateThreshold int
	// Delegates is the number of vertices striped across all ranks.
	Delegates int
	// ShardBytes is the total resident size of all rank-local shards.
	ShardBytes int64
	// MaxShardBytes is the largest single rank's shard — the per-process
	// memory a multi-process backend would need.
	MaxShardBytes int64
	// StateSlabBytes is the total resident size of this engine's rank-local
	// control-state slabs (owned-vertex rows, delegate mirrors, walk
	// marks). Unlike shards, slabs are per-engine mutable state: a pool of
	// N engines holds N slab sets but one shard set.
	StateSlabBytes int64
	// MaxStateSlabBytes is the largest single rank's slab — together with
	// MaxShardBytes, the per-process footprint of a multi-process rank.
	MaxStateSlabBytes int64
}

// MSTMode reports the resolved phase 3–5 merge strategy this engine runs
// (never MSTModeAuto: auto is resolved at construction, on the TCP backend
// against the fleet's negotiated wire version).
func (e *Engine) MSTMode() MSTMode { return e.mstMode }

// ShardStats reports the engine's shard substrate. In GlobalCSR reference
// mode only Partition/Ranks/DelegateThreshold are populated.
func (e *Engine) ShardStats() ShardStats {
	if e.cluster != nil {
		// Captured at session setup from the shards/slabs the handshake
		// slices were cut from — the same bytes now resident in the
		// workers.
		return e.cluster.shard
	}
	s := ShardStats{
		Partition:         e.opts.Partition.String(),
		Ranks:             e.opts.Ranks,
		DelegateThreshold: e.opts.DelegateThreshold,
	}
	if e.plan != nil {
		s.Delegates = e.plan.NumDelegates()
	}
	for _, sh := range e.shards {
		b := sh.MemoryBytes()
		s.ShardBytes += b
		if b > s.MaxShardBytes {
			s.MaxShardBytes = b
		}
	}
	for _, sl := range e.slabs {
		b := sl.MemoryBytes()
		s.StateSlabBytes += b
		if b > s.MaxStateSlabBytes {
			s.MaxStateSlabBytes = b
		}
	}
	return s
}

// Options returns the engine's configuration with defaults applied.
func (e *Engine) Options() Options { return e.opts }

// ErrDuplicateSeed marks a seed set that names the same terminal more than
// once. A repeated terminal is almost always a caller bug (a broken seed
// generator, a double-submitted form) and silently collapsing it would
// change the query's |S|, so it is rejected instead of deduplicated.
// Serving layers should surface it as a client error (internal/steinersvc
// maps it to HTTP 400).
var ErrDuplicateSeed = errors.New("duplicate seed")

// canonSeedSet validates seeds against an n-vertex graph and returns the
// canonical query form: the same terminals sorted ascending. Duplicate
// terminals are rejected with ErrDuplicateSeed. seen is the duplicate-check
// scratch (cleared first); the returned slice is freshly allocated, so it
// may be published in a Result without aliasing pooled state.
func canonSeedSet(n int, seeds []graph.VID, seen map[graph.VID]bool) ([]graph.VID, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: empty seed set")
	}
	clear(seen)
	canon := make([]graph.VID, 0, len(seeds))
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("core: seed %d out of range [0,%d)", s, n)
		}
		if seen[s] {
			return nil, fmt.Errorf("core: %w: %d appears more than once", ErrDuplicateSeed, s)
		}
		seen[s] = true
		canon = append(canon, s)
	}
	sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
	return canon, nil
}

// Solve computes a 2-approximate Steiner minimal tree of the resident graph
// for the given seed vertices. Duplicate seeds are rejected with
// ErrDuplicateSeed; all seeds must lie in one connected component, otherwise
// an error is returned. Results are identical to a cold Solve with the same
// options and seeds.
func (e *Engine) Solve(seeds []graph.VID) (*Result, error) {
	return e.SolveSpec(TreeSpec(seeds))
}

// SolveSpec answers one QuerySpec — tree, forest or prize — on the
// resident graph. The spec is validated and canonicalized first (see
// CanonicalSpec); tree-mode specs behave exactly like Solve. On the TCP
// backend, forest and prize queries need a wire v3 session — against a
// v1/v2-pinned fleet they fail with an error while tree queries keep
// working.
func (e *Engine) SolveSpec(spec QuerySpec) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cq, err := canonSpec(e.g.NumVertices(), spec, e.seen)
	if err != nil {
		return nil, err
	}
	return e.solveCanonLocked(cq)
}

// BatchItem is one query's outcome within a SolveBatch call. Items succeed
// or fail independently: a bad seed set yields an Err without disturbing the
// other queries in the batch.
type BatchItem struct {
	Result *Result
	Err    error
}

// SolveBatch solves each terminal set in order on this engine's warm pooled
// state, entering the engine's internal serialization once for the whole
// slice instead of once per query — the amortized form for callers holding a
// list of queries (internal/steinersvc's POST /solve/batch). The returned
// slice has one BatchItem per input seed set, in input order. ctx is checked
// between items: once it is cancelled the remaining items fail with its
// error instead of pinning the engine on work nobody will read.
func (e *Engine) SolveBatch(ctx context.Context, seedSets [][]graph.VID) []BatchItem {
	specs := make([]QuerySpec, len(seedSets))
	for i, seeds := range seedSets {
		specs[i] = TreeSpec(seeds)
	}
	return e.SolveSpecBatch(ctx, specs)
}

// SolveSpecBatch is SolveBatch over full QuerySpecs: each spec — any mix of
// tree, forest and prize queries — is solved in order under one pass
// through the engine's internal serialization.
func (e *Engine) SolveSpecBatch(ctx context.Context, specs []QuerySpec) []BatchItem {
	out := make([]BatchItem, len(specs))
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, spec := range specs {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		cq, err := canonSpec(e.g.NumVertices(), spec, e.seen)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Result, out[i].Err = e.solveCanonLocked(cq)
	}
	return out
}

// ValidateSeedSet checks seeds against an n-vertex graph without solving:
// empty, out-of-range and duplicate seed sets are rejected with the same
// errors Solve would return. Serving layers use it to fail submissions fast
// (before a job is queued) with exactly the solver's rules.
func ValidateSeedSet(n int, seeds []graph.VID) error {
	_, err := canonSeedSet(n, seeds, make(map[graph.VID]bool, len(seeds)))
	return err
}

// solveCanonLocked runs the six solver phases for a validated canonical
// query. The caller holds e.mu.
func (e *Engine) solveCanonLocked(cq canonQuery) (*Result, error) {
	dedup := cq.dedup
	res := &Result{Seeds: dedup, Mode: cq.spec.Mode}
	if len(dedup) == 1 {
		if err := finalizeResult(e.g, cq, res, e.opts.SkipValidation); err != nil {
			return nil, err
		}
		return res, nil
	}
	if e.cluster != nil {
		return e.cluster.solve(e, cq)
	}

	g, opts := e.g, e.opts
	if e.slabs != nil {
		e.comm.ResetStateSlabs() // O(P) epoch bumps, one per rank slab
	} else {
		e.st.Reset()
		e.walkedGen++
	}
	for i := range e.localENs {
		clear(e.localENs[i])
		clear(e.pruneds[i])
		clear(e.owneds[i])
		e.trees[i] = e.trees[i][:0]
	}
	clear(e.seedIdx)
	for i, s := range dedup {
		e.seedIdx[s] = int32(i)
	}

	env := &solveEnv{
		g:           g,
		opts:        opts,
		comm:        e.comm,
		dedup:       dedup,
		seedIdx:     e.seedIdx,
		mode:        cq.spec.Mode,
		groupOf:     cq.groupOf,
		numGroups:   len(cq.spec.Groups),
		penalty:     cq.penalty,
		res:         res,
		mstFragment: e.mstMode == MSTFragment && cq.spec.Mode != ModePrize,
		localENs:    e.localENs,
		pruneds:     e.pruneds,
		trees:       e.trees,
		owneds:      e.owneds,
		frags:       e.frags,
		ghosts:      e.ghosts,
		st:          e.st,
		walked:      e.walked,
		walkedGen:   e.walkedGen,
	}
	s0 := e.comm.Stats()
	e.comm.Run(env.rankBody)
	if env.err != nil {
		return nil, env.err
	}
	s1 := e.comm.Stats()
	res.SuppressedBroadcasts = s1.Suppressed - s0.Suppressed
	res.BatchedBroadcasts = s1.BatchedBroadcasts - s0.BatchedBroadcasts
	res.CoalescedBroadcasts = s1.CoalescedBroadcasts - s0.CoalescedBroadcasts

	res.SteinerVertices = countSteinerVertices(res.Tree, dedup)
	res.Memory = memoryStats(g, e.ShardStats().ShardBytes, e.stateBytes(), e.localENs, res, opts)
	if err := finalizeResult(g, cq, res, opts.SkipValidation); err != nil {
		return nil, err
	}
	return res, nil
}
