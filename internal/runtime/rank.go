package runtime

import (
	"math/rand"

	"dsteiner/internal/graph"
	"dsteiner/internal/pq"
)

// Rank is one simulated MPI process. All methods are valid only on the
// rank's own goroutine (inside Comm.Run's body).
type Rank struct {
	comm *Comm
	id   int
	box  *mailbox
	out  [][]Msg // per-destination outgoing buffers

	// shard is this rank's local graph substrate (owned-adjacency slab +
	// delegate stripes), installed by Comm.AttachShards. Traversal code
	// reads adjacency through Adj/StripeAdj/EdgeWeight so it never touches
	// the global CSR.
	shard *graph.Shard

	// state is this rank's local control-state slab (owned vertices'
	// per-vertex algorithm state), installed by Comm.AttachStateSlabs.
	// The runtime only resets and accounts it; algorithms type-assert to
	// their concrete slab (internal/voronoi.SlabOf).
	state StateSlab

	// Traversal-scoped state.
	queue   pq.Queue[Msg]
	keyOf   KeyFunc
	visit   VisitFunc
	merge   func(r *Rank, m Msg) bool // optional enqueue-time merge hook
	shuffle *rand.Rand
	// bsp defers local sends to the next superstep via the mailbox.
	bsp bool
	// free recycles cross-rank batch buffers: drainInbox parks drained
	// batches here and Send reuses them, so steady-state traffic stops
	// allocating (~7 append-growth allocations per 64-message batch
	// otherwise — the dominant allocation source of a solve).
	free [][]Msg

	// Delegate outbox (superstep broadcast batching): BroadcastBatched
	// stages at most one pending broadcast per delegate, keeping only the
	// lexicographically best (Dist, Seed) offer; flushOutbox releases the
	// stage at superstep boundaries. k rapid improvements of one hub thus
	// cost one P-way broadcast instead of k.
	doutIdx map[graph.VID]int32
	dout    []Msg

	// held reports whether this rank holds its one unit of the loopback
	// pending counter, taken while its local queue is non-empty (see
	// enqueueLocal / releaseHeld).
	held bool

	// Per-traversal counters (reset by Traverse, published to the Comm
	// totals when the traversal ends).
	sentHere      int64
	processedHere int64

	// Pad Rank to 256 B, a whole number of 64 B cache lines. Each Rank is
	// its own allocation, so Ranks sit back to back in one size-class
	// span: unpadded (208 B), the two counters above — written once per
	// message — would share a cache line with the head of the next rank's
	// Rank, and every visit would invalidate that line on the core running
	// the next rank. TestRankFillsWholeCacheLines pins the size.
	_ [48]byte
}

// ID returns this rank's index in [0, NumRanks).
func (r *Rank) ID() int { return r.id }

// NumRanks returns the communicator size.
func (r *Rank) NumRanks() int { return r.comm.cfg.Ranks }

// Owner returns the rank owning vertex v's state.
func (r *Rank) Owner(v graph.VID) int { return r.comm.part.Owner(v) }

// Owns reports whether this rank owns v.
func (r *Rank) Owns(v graph.VID) bool { return r.comm.part.Owner(v) == r.id }

// OwnedVertices iterates this rank's vertices.
func (r *Rank) OwnedVertices(fn func(v graph.VID)) {
	r.comm.part.OwnedVertices(r.id, fn)
}

// IsDelegate reports whether v is a high-degree delegate vertex.
func (r *Rank) IsDelegate(v graph.VID) bool { return r.comm.part.IsDelegate(v) }

// HasDelegates reports whether the partition marks any delegates at all —
// a cheap gate that lets per-edge delegate checks (the changed-since
// broadcast filter) vanish entirely on delegate-free partitions.
func (r *Rank) HasDelegates() bool {
	type counter interface{ NumDelegates() int }
	if dc, ok := r.comm.part.(counter); ok {
		return dc.NumDelegates() > 0
	}
	return false
}

// Shard returns this rank's local graph shard, or nil before AttachShards.
func (r *Rank) Shard() *graph.Shard { return r.shard }

// StateSlab returns this rank's local control-state slab, or nil before
// Comm.AttachStateSlabs. Algorithms assert it to their concrete slab type
// (the solver uses internal/voronoi.StateSlab via voronoi.SlabOf).
func (r *Rank) StateSlab() StateSlab { return r.state }

// mustShard returns the shard or fails loudly: a traversal asked for local
// adjacency on a communicator that never attached shards.
func (r *Rank) mustShard() *graph.Shard {
	if r.shard == nil {
		panic("runtime: rank has no shard; call Comm.AttachShards or Comm.EnsureShards before Run")
	}
	return r.shard
}

// Adj returns owned vertex v's adjacency from this rank's local slab, in
// global-CSR arc order. The slices alias shard storage: read-only.
func (r *Rank) Adj(v graph.VID) ([]graph.VID, []uint32) { return r.mustShard().Adj(v) }

// StripeAdj returns this rank's materialized stripe (arc index ≡ rank
// mod P) of delegate v's adjacency.
func (r *Rank) StripeAdj(v graph.VID) ([]graph.VID, []uint32) { return r.mustShard().StripeAdj(v) }

// EdgeWeight reports the weight of edge {u, v} looked up in owned vertex u's
// slab row. The graph is undirected, so this equals a global HasEdge in
// either direction.
func (r *Rank) EdgeWeight(u, v graph.VID) (uint32, bool) { return r.mustShard().EdgeWeight(u, v) }

// Send routes m to the owner of m.Target. Valid inside a traversal (the
// visit callback or init function). Messages to the local rank skip the
// mailbox: the traversal's Merge hook folds them into owned state right
// here, and only what it keeps enters the local queue.
func (r *Rank) Send(m Msg) {
	c := r.comm
	r.sentHere++
	dest := c.part.Owner(m.Target)
	if dest == r.id && !r.bsp {
		r.enqueueLocal(m)
		return
	}
	c.pending.Add(1)
	r.buffer(dest, m)
}

// Suppress records one delegate-bound relaxation dropped by the
// changed-since filter (internal/voronoi): the offer was provably
// rejectable against the local delegate mirror, so it was never sent.
// Surfaced as Stats.Suppressed.
func (r *Rank) Suppress() { r.comm.suppressed.Add(1) }

// Distributed reports whether some ranks of this communicator live in
// other processes. Algorithms use it to route collective payloads through
// the wire-able collectives (GatherBlobs) instead of the generic
// shared-memory ones.
func (r *Rank) Distributed() bool { return r.comm.trans != nil }

// Broadcast routes m to every rank including this one (used for delegate
// hub updates). Each copy counts as one sent message; the self-copy goes
// through the Merge hook like a same-rank Send.
func (r *Rank) Broadcast(m Msg) {
	c := r.comm
	for dest := 0; dest < r.NumRanks(); dest++ {
		r.sentHere++
		if dest == r.id && !r.bsp {
			r.enqueueLocal(m)
			continue
		}
		c.pending.Add(1)
		r.buffer(dest, m)
	}
}

// BroadcastBatched stages m in the delegate outbox instead of broadcasting
// eagerly. At most one offer per delegate (m.Target) is staged: a strictly
// lex-better (Dist, Seed) offer replaces the stage, anything else — worse
// offers and exact ties — is absorbed (counted as coalesced). Absorbing a
// tie is safe because the staged message is byte-identical to the absorbed
// one; the tie-send rule the changed-since filter depends on concerns
// distinct senders, and the flush always releases the staged best.
//
// A staged entry holds one unit of the pending counter so an asynchronous
// traversal cannot be declared terminated while offers sit in an outbox;
// flushOutbox transfers that unit into the real broadcast before release.
func (r *Rank) BroadcastBatched(m Msg) {
	if i, ok := r.doutIdx[m.Target]; ok {
		s := &r.dout[i]
		if m.Dist < s.Dist || (m.Dist == s.Dist && m.Seed < s.Seed) {
			*s = m
		}
		r.comm.coalesced.Add(1)
		return
	}
	if r.doutIdx == nil {
		r.doutIdx = make(map[graph.VID]int32)
	}
	r.comm.pending.Add(1)
	r.doutIdx[m.Target] = int32(len(r.dout))
	r.dout = append(r.dout, m)
}

// flushOutbox broadcasts every staged delegate offer and clears the stage,
// reporting whether anything was flushed. Broadcasts are counted before the
// staging sentinels are released, so the pending counter can never dip to
// zero mid-flush.
func (r *Rank) flushOutbox() bool {
	n := len(r.dout)
	if n == 0 {
		return false
	}
	for _, m := range r.dout {
		r.Broadcast(m)
	}
	r.comm.batchedBroadcasts.Add(int64(n))
	r.dout = r.dout[:0]
	clear(r.doutIdx)
	r.comm.pending.Add(int64(-n))
	return true
}

// buffer appends m to dest's outgoing batch (recycled from the free list
// when possible) and flushes a full batch.
func (r *Rank) buffer(dest int, m Msg) {
	buf := r.out[dest]
	if buf == nil {
		buf = r.getBuf()
	}
	buf = append(buf, m)
	r.out[dest] = buf
	if len(buf) >= r.comm.cfg.BatchSize {
		r.flushTo(dest)
	}
}

// getBuf pops a recycled batch buffer — from this rank's private free list,
// then from the communicator's shared overflow pool — or allocates one at
// full batch capacity. The shared pool matters because buffers travel with
// the traffic: a send-heavy rank hands its buffers to receive-heavy peers
// and would otherwise re-allocate every batch while its peers hoard.
func (r *Rank) getBuf() []Msg {
	if n := len(r.free); n > 0 {
		buf := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return buf
	}
	if buf, ok := r.comm.sharedBuf(); ok {
		return buf
	}
	return make([]Msg, 0, r.comm.cfg.BatchSize)
}

// recycleBuf parks a drained batch buffer for reuse by this rank's sends;
// past a small private reserve the buffer goes to the shared pool so
// send-heavy peers can claim it.
func (r *Rank) recycleBuf(buf []Msg) {
	if cap(buf) == 0 {
		return
	}
	if len(r.free) < 128 {
		r.free = append(r.free, buf[:0])
		return
	}
	r.comm.shareBuf(buf[:0])
}

// enqueueLocal hands a message that reached its owner (this rank) to the
// traversal's Merge hook and pushes whatever the hook keeps onto the local
// discipline queue. It reports whether m was queued.
//
// Queued messages do not hold pending units of their own: the rank takes
// a single unit when its queue turns non-empty and gives it back in
// releaseHeld once the queue has drained, so local sends and pops cost no
// atomic at all. Messages in flight between ranks still hold one unit
// each, from Send until the receiver's drainInbox.
func (r *Rank) enqueueLocal(m Msg) bool {
	if r.merge != nil && !r.merge(r, m) {
		return false
	}
	r.queue.Push(m, r.keyOf(m))
	if !r.held {
		r.held = true
		r.comm.pending.Add(1)
	}
	return true
}

// releaseHeld gives back the rank's pending unit once its local queue is
// empty, declaring quiescence if that was the last unit anywhere. Every
// message the rank produced already holds its own unit (in an outgoing
// buffer, the delegate outbox or a peer's mailbox), so the release cannot
// hide outstanding work. Transport termination does not use the counter.
func (r *Rank) releaseHeld() {
	if !r.held {
		return
	}
	r.held = false
	c := r.comm
	if c.pending.Add(-1) == 0 && c.trans == nil {
		c.closeDone()
	}
}

// flushTo delivers the outgoing buffer for dest: straight into the mailbox
// when this process hosts dest (the loopback hot path), through the
// transport otherwise — counted first so termination detection observes
// the send before the bytes can arrive anywhere.
func (r *Rank) flushTo(dest int) {
	buf := r.out[dest]
	if len(buf) == 0 {
		return
	}
	r.out[dest] = nil
	r.comm.batches.Add(1)
	if l := r.comm.localRank(dest); l != nil {
		l.box.put(buf)
		return
	}
	r.comm.term.addSent(len(buf))
	r.comm.trans.Deliver(dest, buf)
}

// flushAll delivers every non-empty outgoing buffer.
func (r *Rank) flushAll() {
	for dest := range r.out {
		r.flushTo(dest)
	}
}

// drainInbox moves all mailbox batches into the local queue, optionally in
// randomized order (failure injection), then recycles the drained buffers.
// It reports whether any message was moved.
func (r *Rank) drainInbox() bool {
	batches := r.box.takeAll()
	if len(batches) == 0 {
		return false
	}
	if r.shuffle != nil {
		r.shuffle.Shuffle(len(batches), func(i, j int) {
			batches[i], batches[j] = batches[j], batches[i]
		})
	}
	moved := false
	c := r.comm
	n := int64(0)
	for _, batch := range batches {
		if r.shuffle != nil {
			r.shuffle.Shuffle(len(batch), func(i, j int) {
				batch[i], batch[j] = batch[j], batch[i]
			})
		}
		n += int64(len(batch))
		for _, m := range batch {
			if r.enqueueLocal(m) {
				moved = true
			}
		}
		// Messages are copied into the queue; the buffer is free again.
		r.recycleBuf(batch)
	}
	// Each inbound message arrived holding one unit of the loopback
	// pending counter. The queued ones are now covered by the rank's held
	// unit (taken above, before this release) and the merged-away ones
	// need none, so all n units go back at once. Transport termination
	// counts at the process boundary (Deliver/Inbound), which these
	// messages have already cleared.
	if c.trans == nil && c.pending.Add(-n) == 0 {
		c.closeDone()
	}
	r.box.recycle(batches)
	return moved
}

// newQueue builds this rank's local queue per the configured discipline.
func (r *Rank) newQueue() pq.Queue[Msg] {
	switch r.comm.cfg.Queue {
	case QueuePriority:
		return pq.NewHeap[Msg](1024)
	case QueueBucket:
		return pq.NewBucket[Msg](r.comm.cfg.BucketDelta)
	default:
		return pq.NewFIFO[Msg](1024)
	}
}
