package core

import (
	"errors"
	"fmt"
	"time"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	"dsteiner/internal/transport"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// cluster is the BackendTCP session state of an Engine acting as
// coordinator: the hub that owns the worker connections, plus the
// session-constant memory accounting captured at setup. The coordinator
// holds the full graph (it loaded it) but after the handshake no rank
// state lives here — the shards and slabs built to cut the handshake's
// slices are released, and every solve runs entirely in the workers.
type cluster struct {
	hub *transport.Hub
	qid uint64

	shard      ShardStats
	stateBytes int64
}

// newClusterEngine is NewEngine's BackendTCP path: listen, hand every
// dialing rankd worker its slice of the shard plan, and return an Engine
// whose Solve dispatches to the worker fleet.
func newClusterEngine(g *graph.Graph, opts Options) (*Engine, error) {
	if opts.GlobalCSR {
		return nil, fmt.Errorf("core: BackendTCP requires the sharded path (GlobalCSR must be false)")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Workers > opts.Ranks {
		return nil, fmt.Errorf("core: %d workers for %d ranks", opts.Workers, opts.Ranks)
	}
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	if opts.WorkerWait <= 0 {
		opts.WorkerWait = 60 * time.Second
	}
	n := g.NumVertices()

	// The base partition is built before any delegate wrapping so its
	// compact wire form (kind + bounds) is at hand.
	var base partition.Partition
	var err error
	var kind uint8
	var bounds []graph.VID
	switch opts.Partition {
	case PartitionHash:
		base, err = partition.NewHash(n, opts.Ranks)
		kind = wire.PartHash
	case PartitionArcBlock:
		var ab *partition.ArcBlock
		ab, err = partition.NewArcBlock(g, opts.Ranks)
		if err == nil {
			bounds = ab.Bounds()
			base = ab
		}
		kind = wire.PartArcBlock
	default:
		base, err = partition.NewBlock(n, opts.Ranks)
		kind = wire.PartBlock
	}
	if err != nil {
		return nil, err
	}
	part := base
	if opts.DelegateThreshold > 0 {
		part = partition.WithDelegates(base, g, opts.DelegateThreshold)
	}
	plan, err := partition.NewShardPlan(part, g)
	if err != nil {
		return nil, err
	}

	// Shards and slabs are cut once, only to (a) encode the handshake's
	// slices and (b) capture the session's memory accounting; the workers
	// rebuild them from the slices and this copy is garbage afterwards.
	shards := plan.BuildShards(g)
	slabs := voronoi.BuildSlabs(plan, shards)
	cl := &cluster{}
	cl.shard = ShardStats{
		Partition:         opts.Partition.String(),
		Ranks:             opts.Ranks,
		DelegateThreshold: opts.DelegateThreshold,
		Delegates:         plan.NumDelegates(),
	}
	for _, sh := range shards {
		b := sh.MemoryBytes()
		cl.shard.ShardBytes += b
		if b > cl.shard.MaxShardBytes {
			cl.shard.MaxShardBytes = b
		}
	}
	for _, sl := range slabs {
		b := sl.MemoryBytes()
		cl.shard.StateSlabBytes += b
		if b > cl.shard.MaxStateSlabBytes {
			cl.shard.MaxStateSlabBytes = b
		}
	}
	cl.stateBytes = cl.shard.StateSlabBytes

	hub, err := transport.ListenHub(opts.ListenAddr, opts.Workers, opts.Ranks)
	if err != nil {
		return nil, err
	}
	hub.LimitWireVersion(opts.MaxWireVersion)
	if opts.Recover {
		hub.EnableRecovery(opts.RejoinWait, opts.OnWorkerLost)
	}
	if opts.OnListen != nil {
		opts.OnListen(hub.Addr())
	}
	_, err = hub.Handshake(opts.WorkerWait, func(w int) wire.Setup {
		lo, hi := hub.RankRange(w)
		// The session's wire version is negotiated before setups are cut,
		// so the MST mode resolves here: auto takes the fragment merge on
		// v4+ fleets and falls back to the replicated path on older ones
		// (whose Setup cannot carry the mode byte anyway).
		mode := resolveMSTModeTCP(opts.MSTMode, hub.WireVersion())
		setup := wire.Setup{
			Ranks:             opts.Ranks,
			NumVertices:       n,
			Queue:             uint8(opts.Queue),
			BucketDelta:       opts.BucketDelta,
			BatchSize:         opts.BatchSize,
			BSP:               opts.BSP,
			MST:               mstAlgoToWire(opts.MST),
			MSTMode:           uint8(mode),
			CollectiveChunk:   opts.CollectiveChunk,
			DelegateThreshold: opts.DelegateThreshold,
			PartitionKind:     kind,
			ArcBounds:         bounds,
			Delegates:         plan.Delegates(),
		}
		for rank := lo; rank < hi; rank++ {
			owned, offsets, targets, weights, stripeOff, stripeTargets, stripeWeights := shards[rank].Slices()
			setup.Shards = append(setup.Shards, wire.ShardSlice{
				Rank:          rank,
				Owned:         owned,
				Offsets:       offsets,
				Targets:       targets,
				Weights:       weights,
				StripeOff:     stripeOff,
				StripeTargets: stripeTargets,
				StripeWeights: stripeWeights,
				Mirrored:      plan.Mirrored(rank),
			})
		}
		return setup
	})
	if err != nil {
		return nil, err
	}
	if opts.MSTMode == MSTFragment && hub.WireVersion() < 4 {
		hub.Close()
		return nil, fmt.Errorf("core: tcp backend: MSTFragment needs a wire v4 session; this fleet negotiated v%d (use auto or replicated)",
			hub.WireVersion())
	}
	cl.hub = hub
	return &Engine{
		g:       g,
		opts:    opts,
		cluster: cl,
		plan:    plan,
		mstMode: resolveMSTModeTCP(opts.MSTMode, hub.WireVersion()),
		seen:    make(map[graph.VID]bool),
	}, nil
}

// resolveMSTModeTCP resolves MSTModeAuto against a TCP session's negotiated
// wire version: the fragment merge needs the v4 frames, older fleets keep
// the replicated path (their Setup cannot carry the mode byte anyway).
func resolveMSTModeTCP(mode MSTMode, wireVer uint32) MSTMode {
	if mode != MSTModeAuto {
		return mode
	}
	if wireVer >= 4 {
		return MSTFragment
	}
	return MSTReplicated
}

// solve dispatches one canonical query to the worker fleet and assembles
// the Result the loopback path would have produced: the rank-0 worker's
// solver output plus coordinator-side Steiner-vertex counting, memory
// accounting and validation (the coordinator holds the full graph).
func (cl *cluster) solve(e *Engine, cq canonQuery) (*Result, error) {
	dedup := cq.dedup
	cl.qid++
	var out transport.QueryOutcome
	var err error
	if cq.spec.Mode == ModeTree {
		// Tree queries keep the legacy FrameSolve at every negotiated
		// version, so v1/v2-pinned fleets serve them byte-identically.
		out, err = cl.hub.Solve(cl.qid, dedup)
	} else {
		if v := cl.hub.WireVersion(); v < 3 {
			return nil, fmt.Errorf("core: tcp backend: %s queries need a wire v3 session; this session negotiated v%d (tree queries still work)",
				cq.spec.Mode, v)
		}
		out, err = cl.hub.SolveSpec(toWireSpec(cl.qid, cq.spec))
	}
	if err != nil {
		// Dispatch only fails when the session faulted (and, with
		// Options.Recover, could not be healed in time); mark it so
		// serving layers can retry against a later-healed fleet.
		return nil, &sessionFaultErr{fmt.Errorf("core: tcp backend: %w", err)}
	}
	if out.Err != "" {
		return nil, errors.New(out.Err)
	}
	if out.Result == nil {
		return nil, fmt.Errorf("core: tcp backend: no worker reported the rank-0 result")
	}
	res := fromWireResult(out.Result, dedup)
	res.Skipped = out.Skipped
	res.MSTFragment = out.MSTFragment
	res.CrossTableBytes = out.CrossTableBytes
	res.FragmentMsgs = out.FragmentMsgs
	res.SuppressedBroadcasts = out.Suppressed
	res.BatchedBroadcasts = out.Batched
	res.CoalescedBroadcasts = out.Coalesced
	res.Net = transport.FromNetStats(out.Net)
	res.SteinerVertices = countSteinerVertices(res.Tree, dedup)
	res.Memory = memoryStatsFromLens(e.g, cl.shard.ShardBytes, cl.stateBytes, out.TableLens, res, e.opts)
	if err := finalizeResult(e.g, cq, res, e.opts.SkipValidation); err != nil {
		return nil, err
	}
	return res, nil
}

// toWireSpec converts a canonical QuerySpec to its wire form.
func toWireSpec(qid uint64, spec QuerySpec) wire.SolveSpec {
	ws := wire.SolveSpec{
		QueryID: qid,
		Mode:    uint8(spec.Mode),
		Seeds:   spec.Seeds,
		Groups:  spec.Groups,
	}
	if len(spec.Penalties) > 0 {
		ws.Penalties = make([]int64, len(spec.Penalties))
		for i, p := range spec.Penalties {
			ws.Penalties[i] = int64(p)
		}
	}
	return ws
}

// specFromWire converts a wire SolveSpec back to the core QuerySpec the
// coordinator encoded (already canonical).
func specFromWire(ws wire.SolveSpec) QuerySpec {
	spec := QuerySpec{
		Mode:   Mode(ws.Mode),
		Seeds:  ws.Seeds,
		Groups: ws.Groups,
	}
	if len(ws.Penalties) > 0 {
		spec.Penalties = make([]graph.Dist, len(ws.Penalties))
		for i, p := range ws.Penalties {
			spec.Penalties[i] = graph.Dist(p)
		}
	}
	return spec
}

// close tears the worker session down.
func (cl *cluster) close() { cl.hub.Close() }

// toWireResult converts rank 0's Result into its wire form (solver output
// only; memory accounting and Steiner counting happen coordinator-side).
func toWireResult(res *Result) wire.SolveResult {
	wr := wire.SolveResult{
		TotalDistance:    int64(res.TotalDistance),
		DistGraphEdges:   res.DistGraphEdges,
		MSTRounds:        res.MSTRounds,
		CollectiveChunks: res.CollectiveChunks,
	}
	for _, e := range res.Tree {
		wr.Tree = append(wr.Tree, wire.EdgeRec{U: e.U, V: e.V, W: e.W})
	}
	for _, p := range res.Phases {
		wr.Phases = append(wr.Phases, wire.PhaseRec{
			Name:        p.Name,
			Seconds:     p.Seconds,
			Sent:        p.Sent,
			Processed:   p.Processed,
			MaxRankWork: p.MaxRankWork,
		})
	}
	return wr
}

// fromWireResult rebuilds a Result from its wire form.
func fromWireResult(wr *wire.SolveResult, dedup []graph.VID) *Result {
	res := &Result{
		Seeds:            dedup,
		TotalDistance:    graph.Dist(wr.TotalDistance),
		DistGraphEdges:   wr.DistGraphEdges,
		MSTRounds:        wr.MSTRounds,
		CollectiveChunks: wr.CollectiveChunks,
	}
	if len(wr.Tree) > 0 {
		res.Tree = make([]graph.Edge, len(wr.Tree))
		for i, e := range wr.Tree {
			res.Tree[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
		}
	}
	for _, p := range wr.Phases {
		res.Phases = append(res.Phases, PhaseStat{
			Name:        p.Name,
			Seconds:     p.Seconds,
			Sent:        p.Sent,
			Processed:   p.Processed,
			MaxRankWork: p.MaxRankWork,
		})
	}
	return res
}
