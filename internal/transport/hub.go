package transport

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/wire"
)

// Hub is the coordinator end of the TCP backend: it accepts the rankd
// workers, runs the session handshake (shipping each worker its shard
// slices), roots every collective, drives the Safra-style termination-token
// ring for asynchronous traversals, fans out solve requests and collects
// their outcomes.
//
// The hub outlives its sessions. A hubSession is one generation of the
// worker fleet — its connections, event loop and poison state. Without
// recovery the hub runs exactly one session and a fault is fatal
// (fail-stop, the pre-v5 behavior). With EnableRecovery the hub retains the
// handshake payload (every worker's Setup, shard slices included) and a
// session identity; when a session is poisoned, the next dispatch heals it:
// workers re-handshake — survivors with a Rejoin frame proving membership,
// respawned replacements with a fresh Hello — the retained Setups ship
// again, and the in-flight query is requeued on the new generation instead
// of failing.
type Hub struct {
	ln      net.Listener
	ranks   int
	workers int
	rankLo  []int64

	// maxWireVer caps the wire version the hub negotiates (operator
	// rollback knob, core.Options.MaxWireVersion); wireVer is the session
	// version settled by Handshake: min over worker Hellos and the cap. It
	// is fixed across heals — a rejoining worker must speak at least the
	// session version, because the retained Setups are encoded at it.
	maxWireVer uint32
	wireVer    uint32

	solveMu sync.Mutex // one query outstanding at a time

	// cur is the live session generation (nil before Handshake, or between
	// a failure and a successful heal when recovery is on).
	sessMu sync.Mutex
	cur    *hubSession

	// Recovery state (EnableRecovery): the heal window, the worker-lost
	// hook (respawn driver), the session identity workers prove on Rejoin,
	// and the retained per-worker Setups — the PR 5 handshake payload kept
	// alive so a replacement worker can be rebuilt without the coordinator
	// re-cutting shards.
	recov      bool
	rejoinWait time.Duration
	onLost     func(error)
	sessionID  uint64
	setups     []wire.Setup

	// Fault accounting for the /stats faults block.
	detected atomic.Int64 // sessions poisoned
	rejoins  atomic.Int64 // workers re-admitted via Rejoin frames
	heals    atomic.Int64 // successful session rebuilds
	requeued atomic.Int64 // in-flight queries re-broadcast after a heal
	lastMu   sync.Mutex
	lastErr  string // most recent poisoning reason

	readys []wire.Ready

	closing   atomic.Bool
	closeOnce sync.Once
}

// hubSession is one generation of the worker fleet: its peer connections,
// the event loop serializing their frames, and the first-error poison
// state. All session state is owned by the event loop fed by per-connection
// reader goroutines, so no frame ordering is ever racy.
type hubSession struct {
	h *Hub

	peers     []*peer
	peerAddrs []string

	events  chan hubEvent
	loopEnd chan struct{}

	failOnce sync.Once
	failErr  error
	failMu   sync.Mutex
	failCh   chan struct{}
}

// hubEvent is one unit of event-loop input: a decoded frame from a worker,
// a reader error, or a query registration from Solve.
type hubEvent struct {
	worker int
	typ    uint8
	body   []byte // frame body; owned by the event
	err    error
	query  *pendingQuery
}

// pendingQuery accumulates one query's WorkerDone frames.
type pendingQuery struct {
	qid  uint64
	done int
	out  QueryOutcome
	ch   chan QueryOutcome
	// fragRounds is the fragment-merge round count reported by
	// FragmentRoundSummary frames (-1 until the first arrives); every
	// worker must report the same count or the session is poisoned.
	fragRounds int64
}

// QueryOutcome is everything the coordinator learns about one query from
// its workers: the rank-0 worker's encoded Result (or error), per-rank
// cross-cell table sizes, and cluster-wide counter and traffic deltas.
type QueryOutcome struct {
	QueryID    uint64
	Err        string
	Result     *wire.SolveResult
	TableLens  []int64 // indexed by global rank
	Sent       int64
	Processed  int64
	Suppressed int64
	Batched    int64 // delegate broadcasts released by outbox flushes
	Coalesced  int64 // delegate offers absorbed into staged outbox entries
	Net        wire.NetStats
	// Skipped is the rank-0 worker's skipped-terminal list for prize-mode
	// queries (wire v3 sessions only; always nil for tree and forest).
	Skipped []graph.VID
	// Fragment-merge MST counters from the rank-0 worker's v4 tail:
	// whether phase 4 ran the fragment merge, and the query's phase-3/4
	// cross-table wire bytes and fragment-exchange record count.
	MSTFragment     bool
	CrossTableBytes int64
	FragmentMsgs    int64
}

// FaultStats is the hub's fault-tolerance accounting: sessions poisoned,
// workers re-admitted through Rejoin, successful heals, queries requeued
// onto a healed generation, and the most recent poisoning reason.
type FaultStats struct {
	Detected  int64
	Rejoins   int64
	Heals     int64
	Requeued  int64
	LastError string
}

// fragAcc accumulates one fragment exchange's per-worker contributions.
type fragAcc struct {
	count int
	blobs []rt.FragBlob
}

// collAcc accumulates one collective's per-worker contributions.
type collAcc struct {
	op    uint8
	count int
	acc   int64
	blobs [][]byte // rank-indexed for OpGather
}

// tokenSession tracks the termination-token ring of one traversal.
type tokenSession struct {
	began int // TraverseBegin frames seen
	at    int // worker currently holding the token (-1: not circulating)
}

// acceptedConn is one admitted worker connection during a handshake or
// heal, before the session is built around it.
type acceptedConn struct {
	conn net.Conn
	addr string
}

// ListenHub opens the coordinator listener for a session of `workers`
// processes hosting `ranks` ranks split into contiguous near-equal ranges.
func ListenHub(addr string, workers, ranks int) (*Hub, error) {
	if workers < 1 || ranks < workers {
		return nil, fmt.Errorf("transport: need 1 <= workers (%d) <= ranks (%d)", workers, ranks)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	h := &Hub{
		ln:         ln,
		ranks:      ranks,
		workers:    workers,
		rankLo:     SplitRanks(ranks, workers),
		maxWireVer: wire.Version,
	}
	return h, nil
}

// LimitWireVersion caps the wire version the hub will negotiate (rollback
// to the v1 batch frames without redeploying workers). Call before
// Handshake; 0 or anything above wire.Version means no extra cap.
func (h *Hub) LimitWireVersion(v uint32) {
	if v == 0 || v > wire.Version {
		v = wire.Version
	}
	if v < wire.MinVersion {
		v = wire.MinVersion
	}
	h.maxWireVer = v
}

// EnableRecovery arms session healing: the hub retains every worker's
// Setup (shard slices included) so a poisoned session is rebuilt on the
// next dispatch instead of staying dead. rejoinWait bounds how long one
// heal waits for all workers to re-handshake (0 = 30s); onLost, if set, is
// called (on its own goroutine) each time a session is poisoned — the hook
// coordinator-driven respawn plugs into. Call before Handshake.
func (h *Hub) EnableRecovery(rejoinWait time.Duration, onLost func(error)) {
	if rejoinWait <= 0 {
		rejoinWait = 30 * time.Second
	}
	h.recov = true
	h.rejoinWait = rejoinWait
	h.onLost = onLost
}

// WireVersion returns the session's negotiated wire version (valid after
// Handshake).
func (h *Hub) WireVersion() uint32 { return h.wireVer }

// SessionID returns the session identity workers prove on Rejoin (valid
// after Handshake; 0 on sessions below wire v5).
func (h *Hub) SessionID() uint64 {
	if h.wireVer < 5 {
		return 0
	}
	return h.sessionID
}

// FaultStats snapshots the hub's fault accounting.
func (h *Hub) FaultStats() FaultStats {
	h.lastMu.Lock()
	last := h.lastErr
	h.lastMu.Unlock()
	return FaultStats{
		Detected:  h.detected.Load(),
		Rejoins:   h.rejoins.Load(),
		Heals:     h.heals.Load(),
		Requeued:  h.requeued.Load(),
		LastError: last,
	}
}

// SplitRanks returns the contiguous rank ranges of a session: worker w
// hosts ranks [out[w], out[w+1]), ranges differing by at most one rank.
func SplitRanks(ranks, workers int) []int64 {
	out := make([]int64, workers+1)
	base, rem := ranks/workers, ranks%workers
	for w := 0; w < workers; w++ {
		n := base
		if w < rem {
			n++
		}
		out[w+1] = out[w] + int64(n)
	}
	return out
}

// Addr returns the listener's address (for workers to dial).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// RankRange returns worker w's hosted rank range.
func (h *Hub) RankRange(w int) (lo, hi int) { return int(h.rankLo[w]), int(h.rankLo[w+1]) }

// Workers returns the session's worker count.
func (h *Hub) Workers() int { return h.workers }

// current returns the live session generation, or nil.
func (h *Hub) current() *hubSession {
	h.sessMu.Lock()
	defer h.sessMu.Unlock()
	return h.cur
}

func (h *Hub) setCurrent(s *hubSession) {
	h.sessMu.Lock()
	h.cur = s
	h.sessMu.Unlock()
}

// newSessionID draws a non-zero random session identity (0 is the wire's
// "no rejoin" sentinel).
func newSessionID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
	return uint64(time.Now().UnixNano()) | 1
}

// Handshake accepts every worker, exchanges the session setup and waits
// for all workers to report ready (shard + slab built, mesh connected).
// setupFor builds worker w's Setup given the session's peer address list;
// the hub fills in the geometry fields (WorkerIndex, RankLo, PeerAddrs) and
// the negotiated WireVersion/SessionID. On return the hub's event loop is
// running and Solve may be called.
func (h *Hub) Handshake(timeout time.Duration, setupFor func(w int) wire.Setup) ([]wire.Ready, error) {
	deadline := time.Now().Add(timeout)
	conns := make([]acceptedConn, 0, h.workers)
	sessionVer := h.maxWireVer
	fail := func(err error) ([]wire.Ready, error) {
		for _, a := range conns {
			_ = a.conn.Close()
		}
		_ = h.ln.Close()
		return nil, err
	}
	if tl, ok := h.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	for len(conns) < h.workers {
		conn, err := h.ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("transport: waiting for worker %d/%d: %w", len(conns), h.workers, err))
		}
		_ = conn.SetReadDeadline(deadline)
		frame, err := wire.ReadFrame(conn, nil)
		if err != nil {
			return fail(fmt.Errorf("transport: hello from worker %d: %w", len(conns), err))
		}
		if frame[0] != wire.FrameHello {
			return fail(fmt.Errorf("transport: worker %d sent frame %d before hello", len(conns), frame[0]))
		}
		hello, err := wire.DecodeHello(frame[1:])
		if err != nil {
			return fail(fmt.Errorf("transport: hello from worker %d: %w", len(conns), err))
		}
		if hello.Version < wire.MinVersion || hello.Version > wire.Version {
			return fail(fmt.Errorf("transport: worker %d speaks wire version %d, coordinator supports [%d, %d]",
				len(conns), hello.Version, wire.MinVersion, wire.Version))
		}
		// The session runs at the minimum version any worker speaks
		// (capped by the operator limit): all peers must agree on the
		// batch frame encoding because batches flow worker ↔ worker.
		if hello.Version < sessionVer {
			sessionVer = hello.Version
		}
		conns = append(conns, acceptedConn{conn: conn, addr: hello.PeerAddr})
	}
	h.wireVer = sessionVer
	h.sessionID = newSessionID()
	if h.recov {
		h.setups = make([]wire.Setup, h.workers)
	}
	if _, err := h.startSession(conns, func(w int) wire.Setup { return setupFor(w) }); err != nil {
		_ = h.ln.Close()
		return nil, err
	}
	return h.readys, nil
}

// startSession is the shared tail of Handshake and heal: ship every
// worker's Setup with the generation's geometry filled in, collect the
// Ready acknowledgements (workers mesh among themselves in between), then
// build the session around the connections and start its event loop.
func (h *Hub) startSession(conns []acceptedConn, setupFor func(w int) wire.Setup) (*hubSession, error) {
	fail := func(err error) (*hubSession, error) {
		for _, a := range conns {
			_ = a.conn.Close()
		}
		return nil, err
	}
	peerAddrs := make([]string, h.workers)
	for w, a := range conns {
		peerAddrs[w] = a.addr
	}
	for w, a := range conns {
		setup := setupFor(w)
		setup.WorkerIndex = w
		setup.RankLo = h.rankLo
		setup.PeerAddrs = peerAddrs
		setup.WireVersion = h.wireVer
		setup.SessionID = h.sessionID
		if h.recov {
			// Retain the filled Setup; a heal re-ships it with only the
			// generation fields (WorkerIndex, PeerAddrs) rewritten.
			h.setups[w] = setup
		}
		if err := wire.WriteFrame(a.conn, wire.EncodeSetup(nil, setup)); err != nil {
			return fail(fmt.Errorf("transport: setup to worker %d: %w", w, err))
		}
	}
	readys := make([]wire.Ready, h.workers)
	for w, a := range conns {
		frame, err := wire.ReadFrame(a.conn, nil)
		if err != nil {
			return fail(fmt.Errorf("transport: ready from worker %d: %w", w, err))
		}
		if frame[0] == wire.FrameAbort {
			return fail(fmt.Errorf("transport: worker %d aborted during setup: %s", w, abortReason(frame[1:])))
		}
		if frame[0] != wire.FrameReady {
			return fail(fmt.Errorf("transport: worker %d sent frame %d before ready", w, frame[0]))
		}
		if readys[w], err = wire.DecodeReady(frame[1:]); err != nil {
			return fail(fmt.Errorf("transport: ready from worker %d: %w", w, err))
		}
		_ = a.conn.SetReadDeadline(time.Time{})
	}
	h.readys = readys
	s := &hubSession{
		h:         h,
		peers:     make([]*peer, h.workers),
		peerAddrs: peerAddrs,
		events:    make(chan hubEvent, 64),
		loopEnd:   make(chan struct{}),
		failCh:    make(chan struct{}),
	}
	for w, a := range conns {
		s.peers[w] = newPeer(a.conn, nil)
	}
	for w := range s.peers {
		go s.readWorker(w)
	}
	go s.run()
	h.setCurrent(s)
	return s, nil
}

// heal rebuilds a poisoned session from the retained Setups: tear the old
// generation down, re-admit W workers — survivors send Rejoin with the
// session identity, respawned replacements a fresh Hello — and run the
// setup/ready exchange again. Worker indices are assigned in accept order;
// the Setup a worker receives fully describes the ranks it now hosts, so
// identity across generations is irrelevant. Callers hold solveMu.
func (h *Hub) heal() (*hubSession, error) {
	if old := h.current(); old != nil {
		old.teardown()
		h.setCurrent(nil)
	}
	if len(h.setups) != h.workers {
		return nil, errors.New("transport: no retained setups to heal from")
	}
	deadline := time.Now().Add(h.rejoinWait)
	if tl, ok := h.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	conns := make([]acceptedConn, 0, h.workers)
	rejoined := 0
	for len(conns) < h.workers {
		conn, err := h.ln.Accept()
		if err != nil {
			for _, a := range conns {
				_ = a.conn.Close()
			}
			return nil, fmt.Errorf("transport: healing session: %d/%d workers re-handshook within %v: %w",
				len(conns), h.workers, h.rejoinWait, err)
		}
		a, viaRejoin, ok := h.admit(conn, deadline)
		if !ok {
			continue // rejected or dead connection; keep accepting
		}
		if viaRejoin {
			rejoined++
		}
		conns = append(conns, a)
	}
	s, err := h.startSession(conns, func(w int) wire.Setup { return h.setups[w] })
	if err != nil {
		return nil, fmt.Errorf("transport: healing session: %w", err)
	}
	h.rejoins.Add(int64(rejoined))
	h.heals.Add(1)
	return s, nil
}

// admit reads one connection's opening frame during a heal and validates
// it: a Rejoin must carry this hub's session identity, and any joiner must
// speak at least the session's pinned wire version (the retained Setups are
// encoded at it). Invalid connections get an Abort with the reason and are
// dropped without failing the heal.
func (h *Hub) admit(conn net.Conn, deadline time.Time) (acceptedConn, bool, bool) {
	reject := func(reason string) (acceptedConn, bool, bool) {
		_ = wire.WriteFrame(conn, wire.EncodeAbort(nil, wire.Abort{Reason: reason}))
		_ = conn.Close()
		return acceptedConn{}, false, false
	}
	_ = conn.SetReadDeadline(deadline)
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		_ = conn.Close()
		return acceptedConn{}, false, false
	}
	switch frame[0] {
	case wire.FrameRejoin:
		rj, err := wire.DecodeRejoin(frame[1:])
		if err != nil {
			return reject(fmt.Sprintf("transport: unreadable rejoin: %v", err))
		}
		if rj.SessionID != h.sessionID {
			return reject(fmt.Sprintf("transport: rejoin for unknown session %#x", rj.SessionID))
		}
		if rj.Version < h.wireVer || rj.Version > wire.Version {
			return reject(fmt.Sprintf("transport: rejoin wire version %d outside session range [%d, %d]",
				rj.Version, h.wireVer, wire.Version))
		}
		return acceptedConn{conn: conn, addr: rj.PeerAddr}, true, true
	case wire.FrameHello:
		hello, err := wire.DecodeHello(frame[1:])
		if err != nil {
			return reject(fmt.Sprintf("transport: unreadable hello: %v", err))
		}
		if hello.Version < h.wireVer || hello.Version > wire.Version {
			return reject(fmt.Sprintf("transport: hello wire version %d below healing session's %d",
				hello.Version, h.wireVer))
		}
		return acceptedConn{conn: conn, addr: hello.PeerAddr}, false, true
	default:
		return reject(fmt.Sprintf("transport: frame %d before hello/rejoin", frame[0]))
	}
}

// readWorker forwards worker w's frames to the event loop. Each frame gets
// a fresh buffer: control traffic is low-rate and the event loop owns the
// bytes afterwards.
func (s *hubSession) readWorker(w int) {
	for {
		frame, err := s.peers[w].readFrame(nil)
		if err != nil {
			s.events <- hubEvent{worker: w, err: err}
			return
		}
		s.events <- hubEvent{worker: w, typ: frame[0], body: frame[1:]}
	}
}

// fail poisons the session: every worker is told to abort, pending waiters
// unblock with the error, and the hub records the fault (driving the
// onLost respawn hook when recovery is armed).
func (s *hubSession) fail(err error) {
	s.failOnce.Do(func() {
		s.failMu.Lock()
		s.failErr = err
		s.failMu.Unlock()
		payload := wire.EncodeAbort(nil, wire.Abort{Reason: err.Error()})
		for _, p := range s.peers {
			_ = p.send(payload)
		}
		close(s.failCh)
		s.h.sessionFailed(err)
	})
}

// Err returns the error that poisoned the session, or nil.
func (s *hubSession) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// sessionFailed records one poisoned generation and fires the respawn
// hook. Clean closes don't come through here (the event loop checks
// closing first).
func (h *Hub) sessionFailed(err error) {
	if h.closing.Load() {
		return
	}
	h.detected.Add(1)
	h.lastMu.Lock()
	h.lastErr = err.Error()
	h.lastMu.Unlock()
	if h.recov && h.onLost != nil {
		go h.onLost(err)
	}
}

// teardown ends a (typically already poisoned) generation: close every
// peer so blocked readers unwind, then wait (bounded) for the event loop
// to drain.
func (s *hubSession) teardown() {
	s.fail(errors.New("transport: session superseded"))
	for _, p := range s.peers {
		p.close()
	}
	select {
	case <-s.loopEnd:
	case <-time.After(5 * time.Second):
	}
}

// Err returns the error that poisoned the current session, or nil. With
// recovery on, a healed hub reports nil again; between failure and heal it
// reports the most recent poisoning reason.
func (h *Hub) Err() error {
	if s := h.current(); s != nil {
		return s.Err()
	}
	h.lastMu.Lock()
	defer h.lastMu.Unlock()
	if h.lastErr == "" {
		return nil
	}
	return errors.New(h.lastErr)
}

// Solve broadcasts one tree query and blocks until every worker reports
// done (or the session fails). Calls are serialized; qid must be unique.
// Tree queries use this legacy frame at every negotiated wire version, so
// v1/v2 fleets keep answering them byte-identically.
func (h *Hub) Solve(qid uint64, seeds []graph.VID) (QueryOutcome, error) {
	return h.dispatch(qid, wire.EncodeSolve(nil, wire.Solve{QueryID: qid, Seeds: seeds}))
}

// SolveSpec broadcasts one mode-carrying query (forest or prize). The
// session must have negotiated wire version >= 3; the caller checks
// WireVersion first.
func (h *Hub) SolveSpec(spec wire.SolveSpec) (QueryOutcome, error) {
	if h.WireVersion() < 3 {
		return QueryOutcome{}, fmt.Errorf("transport: session wire version %d cannot carry a SolveSpec (need >= 3)",
			h.WireVersion())
	}
	return h.dispatch(spec.QueryID, wire.EncodeSolveSpec(nil, spec))
}

// dispatch broadcasts one encoded query frame and blocks until every worker
// reports done. Without recovery a session fault fails the query (and every
// later one). With recovery the fault triggers a heal — tearing down the
// poisoned generation, re-admitting the fleet, re-shipping the retained
// Setups — and the query is requeued on the healed generation, once; the
// solve is deterministic from setup + query, so the retried answer is
// byte-identical to what the lost generation would have produced.
func (h *Hub) dispatch(qid uint64, payload []byte) (QueryOutcome, error) {
	h.solveMu.Lock()
	defer h.solveMu.Unlock()
	retried := false
	for {
		s, err := h.readySession()
		if err != nil {
			return QueryOutcome{}, err
		}
		out, err := s.runQuery(qid, payload)
		if err == nil {
			return out, nil
		}
		if !h.recov || retried || h.closing.Load() {
			return QueryOutcome{}, err
		}
		retried = true
		h.requeued.Add(1)
	}
}

// readySession returns a healthy session to dispatch on, healing a
// poisoned one first when recovery is armed. Callers hold solveMu.
func (h *Hub) readySession() (*hubSession, error) {
	s := h.current()
	if s != nil && s.Err() == nil {
		return s, nil
	}
	if !h.recov {
		if s == nil {
			return nil, errors.New("transport: no active session")
		}
		return nil, s.Err()
	}
	return h.heal()
}

// runQuery registers the pending query, broadcasts the frame and waits for
// every worker's done (or the session's poisoning).
func (s *hubSession) runQuery(qid uint64, payload []byte) (QueryOutcome, error) {
	if err := s.Err(); err != nil {
		return QueryOutcome{}, err
	}
	pq := &pendingQuery{
		qid:        qid,
		out:        QueryOutcome{QueryID: qid, TableLens: make([]int64, s.h.ranks)},
		ch:         make(chan QueryOutcome, 1),
		fragRounds: -1,
	}
	// Register before broadcasting so no done frame can beat the query.
	select {
	case s.events <- hubEvent{query: pq}:
	case <-s.failCh:
		return QueryOutcome{}, s.Err()
	}
	for w, p := range s.peers {
		if err := p.send(payload); err != nil {
			s.fail(fmt.Errorf("transport: solve to worker %d: %w", w, err))
			return QueryOutcome{}, s.Err()
		}
	}
	select {
	case out := <-pq.ch:
		return out, nil
	case <-s.failCh:
		return QueryOutcome{}, s.Err()
	}
}

// Close ends the hub: the current session's workers get a goodbye, then the
// hub waits (bounded) for them to hang up — their readers draining is the
// signal the goodbye was processed — before tearing the connections and the
// listener down.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		h.closing.Store(true)
		if s := h.current(); s != nil {
			s.shutdown()
		}
		_ = h.ln.Close()
	})
}

// shutdown runs a clean session end (Close path).
func (s *hubSession) shutdown() {
	for _, p := range s.peers {
		_ = p.send([]byte{wire.FrameGoodbye})
	}
	select {
	case <-s.loopEnd:
	case <-time.After(5 * time.Second):
	}
	for _, p := range s.peers {
		p.close()
	}
}

// run is the event loop: collectives, termination tokens, query outcomes
// and failures, all serialized here.
func (s *hubSession) run() {
	defer close(s.loopEnd)
	colls := make(map[uint64]*collAcc)
	frags := make(map[uint64]*fragAcc)
	sessions := make(map[uint64]*tokenSession)
	var pending *pendingQuery
	closedReaders := 0
	for ev := range s.events {
		switch {
		case ev.query != nil:
			pending = ev.query
		case ev.err != nil:
			closedReaders++
			// During a clean Close, workers hanging up is the expected
			// end of the session, not a failure.
			if s.Err() == nil && !s.h.closing.Load() {
				s.fail(fmt.Errorf("transport: worker %d connection: %w", ev.worker, ev.err))
			}
			if closedReaders == s.h.workers {
				return
			}
		default:
			if err := s.handleFrame(ev, colls, frags, sessions, &pending); err != nil {
				s.fail(err)
			}
		}
	}
}

// handleFrame processes one worker frame inside the event loop.
func (s *hubSession) handleFrame(ev hubEvent, colls map[uint64]*collAcc, frags map[uint64]*fragAcc,
	sessions map[uint64]*tokenSession, pending **pendingQuery) error {
	h := s.h
	w := ev.worker
	switch ev.typ {
	case wire.FrameColl:
		coll, err := wire.DecodeColl(ev.body)
		if err != nil {
			return fmt.Errorf("transport: collective from worker %d: %w", w, err)
		}
		return s.handleColl(w, coll, colls)

	case wire.FrameFragmentConnect:
		fc, err := wire.DecodeFragmentConnect(ev.body)
		if err != nil {
			return fmt.Errorf("transport: fragment connect from worker %d: %w", w, err)
		}
		return s.handleFragment(w, fc, frags)

	case wire.FrameFragmentRoundSummary:
		fs, err := wire.DecodeFragmentRoundSummary(ev.body)
		if err != nil {
			return fmt.Errorf("transport: fragment summary from worker %d: %w", w, err)
		}
		pq := *pending
		if pq == nil {
			return fmt.Errorf("transport: fragment summary with no pending query from worker %d", w)
		}
		if pq.fragRounds >= 0 && pq.fragRounds != fs.Rounds {
			return fmt.Errorf("transport: fragment merge diverged: worker %d ran %d rounds, earlier workers ran %d",
				w, fs.Rounds, pq.fragRounds)
		}
		pq.fragRounds = fs.Rounds
		return nil

	case wire.FrameTraverseBegin:
		tb, err := wire.DecodeTraverseBegin(ev.body)
		if err != nil {
			return fmt.Errorf("transport: traverse begin from worker %d: %w", w, err)
		}
		ts := sessions[tb.Seq]
		if ts == nil {
			ts = &tokenSession{at: -1}
			sessions[tb.Seq] = ts
		}
		ts.began++
		if ts.began == h.workers {
			// All processes entered the traversal: start the first token
			// round. Workers reset their color to black at traversal
			// start, so at least two rounds always run.
			ts.at = 0
			return s.sendToken(ts, wire.Token{Seq: tb.Seq, Q: 0, Black: false})
		}
		return nil

	case wire.FrameToken:
		tok, err := wire.DecodeToken(ev.body)
		if err != nil {
			return fmt.Errorf("transport: token from worker %d: %w", w, err)
		}
		ts := sessions[tok.Seq]
		if ts == nil || ts.at != w {
			return fmt.Errorf("transport: unexpected token for traversal %d from worker %d", tok.Seq, w)
		}
		if w+1 < h.workers {
			ts.at = w + 1
			return s.sendToken(ts, tok)
		}
		// Round complete at the last worker.
		if !tok.Black && tok.Q == 0 {
			delete(sessions, tok.Seq)
			payload := wire.EncodeTraverseDone(nil, wire.TraverseDone{Seq: tok.Seq})
			for dw, p := range s.peers {
				if err := p.send(payload); err != nil {
					return fmt.Errorf("transport: traverse done to worker %d: %w", dw, err)
				}
			}
			return nil
		}
		ts.at = 0
		return s.sendToken(ts, wire.Token{Seq: tok.Seq, Q: 0, Black: false})

	case wire.FrameWorkerDone:
		done, err := wire.DecodeWorkerDone(ev.body)
		if err != nil {
			return fmt.Errorf("transport: done from worker %d: %w", w, err)
		}
		pq := *pending
		if pq == nil || pq.qid != done.QueryID {
			return fmt.Errorf("transport: done for unknown query %d from worker %d", done.QueryID, w)
		}
		lo, hi := h.RankRange(w)
		if len(done.TableLens) != hi-lo {
			return fmt.Errorf("transport: worker %d reported %d table sizes for %d ranks",
				w, len(done.TableLens), hi-lo)
		}
		copy(pq.out.TableLens[lo:hi], done.TableLens)
		pq.out.Sent += done.Sent
		pq.out.Processed += done.Processed
		pq.out.Suppressed += done.Suppressed
		pq.out.Batched += done.Batched
		pq.out.Coalesced += done.Coalesced
		pq.out.Net.Add(done.Net)
		if done.Err != "" {
			pq.out.Err = done.Err
		}
		if done.HasResult {
			res := done.Result
			pq.out.Result = &res
			pq.out.Skipped = done.Skipped
			pq.out.MSTFragment = done.MSTFragment
			pq.out.CrossTableBytes = done.CrossTableBytes
			pq.out.FragmentMsgs = done.FragmentMsgs
		}
		pq.done++
		if pq.done == h.workers {
			*pending = nil
			pq.ch <- pq.out
		}
		return nil

	case wire.FrameAbort:
		return fmt.Errorf("transport: worker %d aborted: %s", w, abortReason(ev.body))

	default:
		return fmt.Errorf("transport: unexpected frame type %d from worker %d", ev.typ, w)
	}
}

// sendToken forwards the termination token to the session's current
// holder (ts.at, set by the caller).
func (s *hubSession) sendToken(ts *tokenSession, tok wire.Token) error {
	if err := s.peers[ts.at].send(wire.EncodeToken(nil, tok)); err != nil {
		return fmt.Errorf("transport: token to worker %d: %w", ts.at, err)
	}
	return nil
}

// handleFragment folds one fragment-exchange contribution and, once every
// worker has contributed, answers each worker with a personalized reply:
// only the blobs addressed to its rank range, plus broadcasts. This is the
// routing step that replaces OpGather's everything-to-everyone blob list.
func (s *hubSession) handleFragment(w int, fc wire.FragmentConnect, frags map[uint64]*fragAcc) error {
	h := s.h
	acc := frags[fc.Seq]
	if acc == nil {
		acc = &fragAcc{}
		frags[fc.Seq] = acc
	}
	for _, fb := range fc.Blobs {
		if fb.Dest != -1 && (fb.Dest < 0 || fb.Dest >= h.ranks) {
			return fmt.Errorf("transport: fragment exchange %d: dest rank %d out of range from worker %d",
				fc.Seq, fb.Dest, w)
		}
	}
	acc.blobs = append(acc.blobs, fc.Blobs...)
	acc.count++
	if acc.count < h.workers {
		return nil
	}
	delete(frags, fc.Seq)
	for dw, p := range s.peers {
		lo, hi := h.RankRange(dw)
		var out []rt.FragBlob
		for _, fb := range acc.blobs {
			if fb.Dest == -1 || (fb.Dest >= lo && fb.Dest < hi) {
				out = append(out, fb)
			}
		}
		reply := wire.EncodeFragmentRelabel(nil, wire.FragmentRelabel{Seq: fc.Seq, Blobs: out})
		if err := p.send(reply); err != nil {
			return fmt.Errorf("transport: fragment reply to worker %d: %w", dw, err)
		}
	}
	return nil
}

// handleColl folds one collective contribution and replies when complete.
func (s *hubSession) handleColl(w int, coll wire.Coll, colls map[uint64]*collAcc) error {
	h := s.h
	acc := colls[coll.Seq]
	if acc == nil {
		acc = &collAcc{op: coll.Op}
		if coll.Op == wire.OpGather {
			acc.blobs = make([][]byte, h.ranks)
		}
		colls[coll.Seq] = acc
	}
	if acc.op != coll.Op {
		return fmt.Errorf("transport: collective %d op mismatch (%d vs %d) from worker %d",
			coll.Seq, acc.op, coll.Op, w)
	}
	switch coll.Op {
	case wire.OpBarrier:
	case wire.OpGather:
		contrib, err := wire.DecodeRankBlobs(coll.Payload)
		if err != nil {
			return fmt.Errorf("transport: gather %d from worker %d: %w", coll.Seq, w, err)
		}
		for _, rb := range contrib {
			if rb.Rank < 0 || rb.Rank >= h.ranks {
				return fmt.Errorf("transport: gather %d: rank %d out of range", coll.Seq, rb.Rank)
			}
			acc.blobs[rb.Rank] = rb.Blob
		}
	default:
		x, err := wire.DecodeInt64(coll.Payload)
		if err != nil {
			return fmt.Errorf("transport: allreduce %d from worker %d: %w", coll.Seq, w, err)
		}
		if acc.count == 0 {
			acc.acc = x
		} else {
			switch coll.Op {
			case wire.OpMinInt64:
				if x < acc.acc {
					acc.acc = x
				}
			case wire.OpMaxInt64:
				if x > acc.acc {
					acc.acc = x
				}
			default:
				acc.acc += x
			}
		}
	}
	acc.count++
	if acc.count < h.workers {
		return nil
	}
	delete(colls, coll.Seq)
	var payload []byte
	switch coll.Op {
	case wire.OpBarrier:
	case wire.OpGather:
		payload = wire.EncodeBlobList(nil, acc.blobs)
	default:
		payload = wire.EncodeInt64(acc.acc)
	}
	reply := wire.EncodeCollReply(nil, wire.CollReply{Seq: coll.Seq, Payload: payload})
	for dw, p := range s.peers {
		if err := p.send(reply); err != nil {
			return fmt.Errorf("transport: collective reply to worker %d: %w", dw, err)
		}
	}
	return nil
}
