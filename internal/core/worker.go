package core

import (
	"fmt"
	"net"
	"time"

	"dsteiner/internal/faultpoint"
	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
	"dsteiner/internal/voronoi"
	"dsteiner/internal/wire"
)

// WorkerConfig parameterizes RunWorker and ServeWorker.
type WorkerConfig struct {
	// PeerListen is the address the worker's mesh listener binds
	// (default 127.0.0.1:0). Its bound form is advertised to the
	// coordinator, so on a multi-host deployment it must name a
	// reachable interface.
	PeerListen string
	// DialTimeout bounds the initial coordinator dial and the handshake
	// steps (default 30s).
	DialTimeout time.Duration
	// RejoinWait, when positive, makes ServeWorker treat a session fault
	// as survivable: the worker re-dials the coordinator and re-handshakes
	// with a Rejoin frame carrying the session identity, waiting up to
	// this long for the coordinator's heal to re-admit it. 0 keeps the
	// legacy fail-stop behavior (any fault ends the worker).
	RejoinWait time.Duration
	// Chaos, when set, wraps the session's transport in a fault-injecting
	// shim (chaos testing). It applies to the FIRST session only: a healed
	// session runs clean, so an injected fault cannot re-fire forever.
	Chaos *transport.ChaosConfig
	// Logf, when set, receives progress lines (rankd wires the standard
	// logger here).
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.PeerListen == "" {
		c.PeerListen = "127.0.0.1:0"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// RunWorker is one rankd worker session: dial the coordinator, receive
// this process's slice of the shard plan, rebuild the hosted ranks' shards
// and state slabs locally (the full CSR is never materialized here), mesh
// with the peer workers, and serve solve requests until the coordinator
// says goodbye. Blocks for the whole session; returns nil on a clean
// goodbye. Any session fault is terminal (legacy fail-stop behavior) —
// ServeWorker is the rejoining form.
func RunWorker(coordAddr string, cfg WorkerConfig) error {
	_, err := runWorkerSession(coordAddr, cfg.withDefaults(), nil)
	return err
}

// ServeWorker runs worker sessions against one coordinator until a clean
// goodbye. With cfg.RejoinWait set, a session fault — a lost peer or
// coordinator connection, a rank panic, a coordinator abort — does not end
// the worker: it re-dials and re-handshakes with a Rejoin frame proving
// membership in the lost session, and the coordinator's heal hands it a
// fresh Setup (possibly hosting different ranks). Handshake and build
// errors stay terminal: a worker the fleet never admitted has no session
// to rejoin.
func ServeWorker(coordAddr string, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	var prev *rejoinTicket
	for {
		ticket, err := runWorkerSession(coordAddr, cfg, prev)
		if err == nil {
			return nil
		}
		if cfg.RejoinWait <= 0 || ticket == nil || ticket.sessionID == 0 {
			return err
		}
		cfg.Logf("rankd: session fault: %v; rejoining session %#x within %v",
			err, ticket.sessionID, cfg.RejoinWait)
		prev = ticket
		// Injected faults apply to the first session only: the healed
		// session must run clean, or recovery could never converge.
		cfg.Chaos = nil
	}
}

// rejoinTicket is what a worker keeps from a lost session to prove
// membership on rejoin: the coordinator's session identity plus the slot
// this process held (advisory — heal assigns slots in accept order).
type rejoinTicket struct {
	sessionID  uint64
	prevWorker int
}

// runWorkerSession runs one worker session end to end. A non-nil ticket
// makes the handshake open with a Rejoin frame instead of a Hello (and
// stretches the handshake deadline to cfg.RejoinWait, since the
// coordinator only heals on its next dispatch). The returned ticket is
// non-nil only when a fault ended an established session — the caller may
// rejoin with it; handshake and build errors return a nil ticket.
func runWorkerSession(coordAddr string, cfg WorkerConfig, rejoin *rejoinTicket) (*rejoinTicket, error) {
	window := cfg.DialTimeout
	if rejoin != nil && cfg.RejoinWait > window {
		window = cfg.RejoinWait
	}
	conn, err := net.DialTimeout("tcp", coordAddr, window)
	if err != nil {
		return nil, fmt.Errorf("core: dial coordinator %s: %w", coordAddr, err)
	}
	ln, err := net.Listen("tcp", cfg.PeerListen)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: peer listener %s: %w", cfg.PeerListen, err)
	}
	defer ln.Close()

	var opening []byte
	if rejoin != nil {
		opening = wire.EncodeRejoin(nil, wire.Rejoin{
			Version:    wire.Version,
			PeerAddr:   ln.Addr().String(),
			SessionID:  rejoin.sessionID,
			PrevWorker: int64(rejoin.prevWorker),
		})
	} else {
		opening = wire.EncodeHello(nil, wire.Hello{
			Version:  wire.Version,
			PeerAddr: ln.Addr().String(),
		})
	}
	if err := wire.WriteFrame(conn, opening); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(window))
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: waiting for setup: %w", err)
	}
	if frame[0] == wire.FrameAbort {
		reason := "unreadable abort frame"
		if ab, err := wire.DecodeAbort(frame[1:]); err == nil {
			reason = ab.Reason
		}
		_ = conn.Close()
		return nil, fmt.Errorf("core: coordinator rejected session: %s", reason)
	}
	if frame[0] != wire.FrameSetup {
		_ = conn.Close()
		return nil, fmt.Errorf("core: coordinator sent frame %d before setup", frame[0])
	}
	setup, err := wire.DecodeSetup(frame[1:])
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("core: setup: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})

	w, err := buildWorker(setup, conn, ln, cfg)
	if err != nil {
		// Best effort: tell the coordinator why this worker is bailing.
		_ = wire.WriteFrame(conn, wire.EncodeAbort(nil, wire.Abort{Reason: err.Error()}))
		_ = conn.Close()
		return nil, err
	}
	if err := w.serve(cfg); err != nil {
		// A fault on an established session: hand the caller the rejoin
		// ticket (SessionID is 0 on pre-v5 sessions, which cannot heal).
		return &rejoinTicket{sessionID: setup.SessionID, prevWorker: setup.WorkerIndex}, err
	}
	return nil, nil
}

// worker is one rankd process's session state: the hosted rank range, the
// communicator over the TCP transport, and the pooled per-query scratch
// the SPMD body indexes by global rank.
type worker struct {
	lo    int
	hi    int
	opts  Options
	comm  *rt.Comm
	trans *transport.TCP

	shardBytes int64
	stateBytes int64

	// mstMode is the coordinator-resolved phase 3–5 merge strategy from
	// the setup frame (absent on pre-v4 sessions ⇒ replicated).
	mstMode MSTMode

	// Pooled per-query scratch (hosted entries only).
	localENs []map[int64]crossEdge
	pruneds  []map[int64]crossEdge
	trees    [][]graph.Edge
	seedIdx  map[graph.VID]int32
	owneds   []map[int64]crossEdge
	frags    [][]int32
	merges   []*mergeScratch
	ghosts   []ghostTable
}

// buildWorker reconstructs the rank substrate from the setup frame and
// wires the communicator to the transport.
func buildWorker(setup wire.Setup, coord net.Conn, ln net.Listener, cfg WorkerConfig) (*worker, error) {
	if setup.WorkerIndex < 0 || setup.WorkerIndex+1 >= len(setup.RankLo) ||
		len(setup.PeerAddrs) != len(setup.RankLo)-1 || setup.Ranks <= 0 || setup.NumVertices <= 0 {
		return nil, fmt.Errorf("core: inconsistent setup geometry (worker %d, %d rank bounds, %d peers)",
			setup.WorkerIndex, len(setup.RankLo), len(setup.PeerAddrs))
	}
	lo, hi := int(setup.RankLo[setup.WorkerIndex]), int(setup.RankLo[setup.WorkerIndex+1])
	if len(setup.Shards) != hi-lo {
		return nil, fmt.Errorf("core: setup carries %d shard slices for ranks [%d,%d)", len(setup.Shards), lo, hi)
	}
	part, err := workerPartition(setup)
	if err != nil {
		return nil, err
	}

	w := &worker{
		lo: lo,
		hi: hi,
		opts: Options{
			Ranks:             setup.Ranks,
			Queue:             rt.QueueKind(setup.Queue),
			BucketDelta:       setup.BucketDelta,
			BatchSize:         setup.BatchSize,
			BSP:               setup.BSP,
			MST:               mstAlgoFromWire(setup.MST),
			CollectiveChunk:   setup.CollectiveChunk,
			DelegateThreshold: setup.DelegateThreshold,
		},
		mstMode:  MSTMode(setup.MSTMode),
		localENs: make([]map[int64]crossEdge, setup.Ranks),
		pruneds:  make([]map[int64]crossEdge, setup.Ranks),
		trees:    make([][]graph.Edge, setup.Ranks),
		seedIdx:  make(map[graph.VID]int32),
		owneds:   make([]map[int64]crossEdge, setup.Ranks),
		frags:    make([][]int32, setup.Ranks),
		merges:   make([]*mergeScratch, setup.Ranks),
		ghosts:   make([]ghostTable, setup.Ranks),
	}
	if w.mstMode != MSTFragment {
		w.mstMode = MSTReplicated // absent/unknown ⇒ the legacy path
	}

	shards := make([]*graph.Shard, 0, hi-lo)
	slabs := make([]rt.StateSlab, 0, hi-lo)
	for i, sl := range setup.Shards {
		if sl.Rank != lo+i {
			return nil, fmt.Errorf("core: shard slice %d is for rank %d, want %d", i, sl.Rank, lo+i)
		}
		sh := graph.NewShardFromSlices(sl.Rank, setup.Ranks, sl.Owned, sl.Offsets,
			sl.Targets, sl.Weights, setup.Delegates, sl.StripeOff, sl.StripeTargets, sl.StripeWeights)
		shards = append(shards, sh)
		slab := voronoi.NewStateSlab(sl.Rank, sl.Owned, sl.Mirrored, sh.Rows())
		slabs = append(slabs, slab)
		w.shardBytes += sh.MemoryBytes()
		w.stateBytes += slab.MemoryBytes()
		w.localENs[sl.Rank] = map[int64]crossEdge{}
		w.pruneds[sl.Rank] = map[int64]crossEdge{}
		w.owneds[sl.Rank] = map[int64]crossEdge{}
		w.merges[sl.Rank] = &mergeScratch{merged: map[int64]crossEdge{}}
	}

	cfg.Logf("rankd: worker %d/%d hosting ranks [%d,%d), |V|=%d, shard %d B, slab %d B",
		setup.WorkerIndex, len(setup.PeerAddrs), lo, hi, setup.NumVertices, w.shardBytes, w.stateBytes)

	mesh, err := transport.ConnectMesh(setup.WorkerIndex, setup.PeerAddrs, ln, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	w.trans = transport.NewTCP(setup.WorkerIndex, setup.RankLo, coord, mesh)
	// Pin the negotiated wire version before any traffic: it selects the
	// visitor-batch frame encoding and the WorkerDone stats tail.
	w.trans.SetWireVersion(setup.WireVersion)
	// The communicator talks to the transport seam; chaos testing slides
	// its fault-injecting shim in here, so injected faults hit the same
	// sockets and decode paths production traffic uses. The worker keeps
	// the concrete TCP handle for control traffic (ready/abort/done).
	var seam rt.Transport = w.trans
	if cfg.Chaos != nil {
		seam = transport.NewChaos(w.trans, *cfg.Chaos)
	}
	comm, err := rt.New(rt.Config{
		Ranks:       setup.Ranks,
		Queue:       rt.QueueKind(setup.Queue),
		BucketDelta: setup.BucketDelta,
		BatchSize:   setup.BatchSize,
		HostLo:      lo,
		HostHi:      hi,
		Transport:   seam,
	}, part)
	if err != nil {
		return nil, err
	}
	if err := comm.AttachShards(shards); err != nil {
		return nil, err
	}
	if err := comm.AttachStateSlabs(slabs); err != nil {
		return nil, err
	}
	w.comm = comm
	return w, nil
}

// workerPartition rebuilds the session's vertex partition from its wire
// form.
func workerPartition(setup wire.Setup) (partition.Partition, error) {
	var base partition.Partition
	var err error
	switch setup.PartitionKind {
	case wire.PartHash:
		base, err = partition.NewHash(setup.NumVertices, setup.Ranks)
	case wire.PartArcBlock:
		var ab *partition.ArcBlock
		ab, err = partition.NewArcBlockFromBounds(setup.ArcBounds)
		if err == nil {
			if ab.NumRanks() != setup.Ranks || ab.NumVertices() != setup.NumVertices {
				return nil, fmt.Errorf("core: arc-block bounds describe %d ranks over %d vertices, want %d over %d",
					ab.NumRanks(), ab.NumVertices(), setup.Ranks, setup.NumVertices)
			}
			base = ab
		}
	case wire.PartBlock:
		base, err = partition.NewBlock(setup.NumVertices, setup.Ranks)
	default:
		return nil, fmt.Errorf("core: unknown partition kind %d in setup", setup.PartitionKind)
	}
	if err != nil {
		return nil, err
	}
	if len(setup.Delegates) > 0 {
		return partition.WithDelegateList(base, setup.NumVertices, setup.Delegates), nil
	}
	return base, nil
}

// serve answers coordinator control frames until goodbye or failure.
func (w *worker) serve(cfg WorkerConfig) error {
	w.comm.Start()
	defer w.comm.Close()
	defer w.trans.Close()
	if err := w.trans.SendReady(wire.Ready{ShardBytes: w.shardBytes, StateBytes: w.stateBytes}); err != nil {
		return fmt.Errorf("core: ready: %w", err)
	}
	for ctl := range w.trans.Controls() {
		switch ctl.Kind {
		case transport.ControlSolve:
			if err := w.solveQuery(ctl.Spec, cfg); err != nil {
				w.trans.SendAbort(err.Error())
				return err
			}
		case transport.ControlGoodbye:
			cfg.Logf("rankd: session over, exiting")
			return nil
		case transport.ControlAbort:
			return fmt.Errorf("core: session aborted: %w", ctl.Err)
		}
	}
	return nil
}

// solveQuery runs the SPMD body for one query on the hosted ranks and
// reports the worker's outcome (including rank 0's Result when hosted).
// The coordinator ships every query as a canonical SolveSpec — a legacy
// FrameSolve arrives as a tree-mode spec — and the worker's deterministic
// flattening reproduces the coordinator's dense terminal indices.
func (w *worker) solveQuery(q wire.SolveSpec, cfg WorkerConfig) (err error) {
	cq := flattenCanonical(specFromWire(q))
	w.comm.ResetStateSlabs()
	for rank := w.lo; rank < w.hi; rank++ {
		clear(w.localENs[rank])
		clear(w.pruneds[rank])
		clear(w.owneds[rank])
		w.trees[rank] = w.trees[rank][:0]
	}
	clear(w.seedIdx)
	for i, s := range cq.dedup {
		w.seedIdx[s] = int32(i)
	}
	env := &solveEnv{
		opts:        w.opts,
		comm:        w.comm,
		dedup:       cq.dedup,
		seedIdx:     w.seedIdx,
		mode:        cq.spec.Mode,
		groupOf:     cq.groupOf,
		numGroups:   len(cq.spec.Groups),
		penalty:     cq.penalty,
		res:         &Result{Seeds: cq.dedup, Mode: cq.spec.Mode},
		mstFragment: w.mstMode == MSTFragment && cq.spec.Mode != ModePrize,
		localENs:    w.localENs,
		pruneds:     w.pruneds,
		trees:       w.trees,
		owneds:      w.owneds,
		frags:       w.frags,
		merges:      w.merges,
		ghosts:      w.ghosts,
	}
	s0 := w.comm.Stats()
	net0 := w.trans.NetStats()

	// A rank panic (or transport poison) unwinds through Run; convert it
	// into a session abort instead of crashing the process silently.
	func() {
		defer func() {
			if p := recover(); p != nil {
				if terr := w.trans.Err(); terr != nil {
					err = fmt.Errorf("core: query %d: transport failed: %w", q.QueryID, terr)
				} else {
					err = fmt.Errorf("core: query %d: rank panic: %v", q.QueryID, p)
				}
			}
		}()
		w.comm.Run(env.rankBody)
	}()
	if err != nil {
		return err
	}

	s1 := w.comm.Stats()
	done := wire.WorkerDone{
		QueryID:    q.QueryID,
		Sent:       s1.Sent - s0.Sent,
		Processed:  s1.Processed - s0.Processed,
		Suppressed: s1.Suppressed - s0.Suppressed,
		Batched:    s1.BatchedBroadcasts - s0.BatchedBroadcasts,
		Coalesced:  s1.CoalescedBroadcasts - s0.CoalescedBroadcasts,
		Net:        w.trans.NetStats().Sub(net0),
	}
	for rank := w.lo; rank < w.hi; rank++ {
		done.TableLens = append(done.TableLens, int64(len(w.localENs[rank])))
	}
	if w.lo == 0 {
		if env.err != nil {
			done.Err = env.err.Error()
		} else {
			done.HasResult = true
			done.Result = toWireResult(env.res)
			done.Skipped = env.res.Skipped
			done.MSTFragment = env.res.MSTFragment
			done.CrossTableBytes = env.res.CrossTableBytes
			done.FragmentMsgs = env.res.FragmentMsgs
		}
	}
	faultpoint.Hit("worker.done")
	if err := w.trans.SendWorkerDone(done); err != nil {
		return fmt.Errorf("core: query %d: done: %w", q.QueryID, err)
	}
	return nil
}
