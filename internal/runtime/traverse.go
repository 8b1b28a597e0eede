package runtime

import (
	"runtime"
	"sync"
)

// goyield cooperatively yields the processor to other goroutines.
func goyield() { runtime.Gosched() }

// idleSpins is the number of yield-and-recheck rounds an empty rank spins
// before escalating to a channel park: a couple of yields catch messages
// already in flight from an active peer without paying a park/wake cycle,
// while a truly idle rank still ends up parked, burning no CPU.
const idleSpins = 2

// Traversal describes one vertex-centric computation phase, the analogue of
// a HavoqGT do_traversal() round. Every rank must call Rank.Traverse with
// the same Traversal value (SPMD), like a collective.
type Traversal struct {
	// Visit is the per-message callback (HavoqGT's visit()).
	Visit VisitFunc
	// Key extracts message priorities; nil means DistKey. Ignored by
	// FIFO queues.
	Key KeyFunc
	// Init runs once per rank before processing starts; it seeds the
	// traversal by calling r.Send (HavoqGT's init_all visitors). May be
	// nil.
	Init func(r *Rank)
	// Merge, when set, folds each message into the owner's state at the
	// moment it reaches the owner's local queue: a same-rank Send, the
	// self-copy of a Broadcast, or an inbound batch in drainInbox — on
	// loopback, TCP and BSP alike. It runs on the owner rank's goroutine
	// and may mutate owned state. It returns whether m must still be
	// queued for Visit; false drops m on the spot, and the drop releases
	// m's share of termination accounting, so a traversal whose Merge
	// drops everything still reaches quiescence. A merging algorithm thus
	// queues only work tokens (for the Voronoi flood: "relax v's
	// neighbours at this (dist, seed)"), and Visit must tolerate tokens
	// that later merges superseded. nil queues every message.
	Merge func(r *Rank, m Msg) bool
	// BSP switches from asynchronous processing to bulk-synchronous
	// supersteps separated by barriers (the ablation of §IV's async
	// design choice). Messages sent in superstep i are processed in
	// superstep i+1.
	BSP bool
}

// TraversalStats reports per-rank work done in one Traverse call.
type TraversalStats struct {
	// Processed counts visit() invocations on this rank: queue pops, so a
	// merging traversal counts its queued tokens, superseded ones
	// included, and never the messages Merge dropped.
	Processed int64
	// Sent counts messages this rank routed through Send or Broadcast,
	// including those the owner's Merge then dropped.
	Sent       int64
	Supersteps int64 // BSP supersteps (0 for async mode)
}

// Traverse runs t to global quiescence and returns this rank's work
// counters. It must be invoked on all ranks in the same order, like an MPI
// collective. Visit callbacks may send messages freely; termination is
// detected when every sent message has been processed.
func (r *Rank) Traverse(t *Traversal) TraversalStats {
	key := t.Key
	if key == nil {
		key = DistKey
	}
	// The queue is empty at the end of every traversal; reuse its
	// allocated capacity across phases and queries.
	if r.queue == nil {
		r.queue = r.newQueue()
	} else {
		r.queue.Reset()
	}
	r.keyOf = key
	r.visit = t.Visit
	r.merge = t.Merge
	r.held = false
	r.sentHere, r.processedHere = 0, 0
	// Discard any stale outbox stage (an aborted traversal may have left
	// entries behind); the counters it guarded are reset below.
	r.dout = r.dout[:0]
	clear(r.doutIdx)

	c := r.comm
	// Reset termination state with all ranks quiescent. Loopback detects
	// quiescence with the shared pending counter; a transport-backed
	// communicator arms a termination-token session instead (the
	// coordinator circulates Safra-style tokens and closes the done
	// channel at global quiescence). BSP traversals synchronize with
	// collectives and need neither.
	r.Barrier()
	if r.id == c.lo {
		if c.trans == nil {
			c.pending.Store(0)
			c.done = make(chan struct{})
			c.doneOnce = new(sync.Once)
		} else if !t.BSP {
			c.term.reset()
			c.travSeq++
			c.done = c.trans.StartTraversal(c.travSeq)
		}
	}
	r.Barrier()

	if t.Init != nil {
		t.Init(r)
	}

	if t.BSP {
		return r.runBSP()
	}
	return r.runAsync()
}

// finishTraversal publishes this rank's send and visit counts to the
// communicator totals (Stats) — once per traversal rather than one atomic
// per message — and returns its work counters.
func (r *Rank) finishTraversal(supersteps int64) TraversalStats {
	r.comm.sent.Add(r.sentHere)
	r.comm.processed.Add(r.processedHere)
	return TraversalStats{Processed: r.processedHere, Sent: r.sentHere, Supersteps: supersteps}
}

// closeDone signals global quiescence exactly once.
func (c *Comm) closeDone() {
	c.doneOnce.Do(func() { close(c.done) })
}

// maybeYield is the busy-loop fairness yield: when simulated ranks share
// cores, a rank grinding a long queue hands the scheduler a slice so peers
// advance at a similar rate (real MPI ranks run on dedicated cores). When
// every peer rank hosted here is already parked, the yield could only hand
// the CPU back to this rank, so it is skipped. Transport-backed
// communicators always yield: the reader goroutines feeding the mailboxes
// need the CPU even when peer ranks idle.
func (r *Rank) maybeYield() {
	c := r.comm
	if c.trans != nil || int(c.idleRanks.Load())+1 < len(c.ranks) {
		goyield()
	}
}

// runAsync is the asynchronous engine loop: drain the local queue in
// discipline order, interleaving inbound batches, until the communicator
// detects that every message ever sent has been processed.
func (r *Rank) runAsync() TraversalStats {
	c := r.comm
	dist := c.trans != nil
	// Initial messages are already counted in pending (Send). Flush them
	// and synchronize so the zero-message case is decided globally; with
	// a transport the token ring decides it instead.
	r.flushOutbox()
	r.flushAll()
	r.Barrier()
	if !dist && r.id == c.lo && c.pending.Load() == 0 {
		c.closeDone()
	}
	done := c.done
	// Flush outgoing buffers at least this often even while local work
	// remains: hoarding frontier updates would let peers burn cycles on
	// stale distances (HavoqGT likewise aggregates but sends eagerly).
	flushEvery := int64(c.cfg.BatchSize)
	sinceFlush := int64(0)
	for {
		// Opportunistically pull fresh inbound batches so the priority
		// discipline sees remote messages early.
		select {
		case <-r.box.note:
			r.drainInbox()
		default:
		}
		if m, ok := r.queue.Pop(); ok {
			r.visit(r, m)
			r.processedHere++
			sinceFlush++
			if sinceFlush >= flushEvery {
				sinceFlush = 0
				// Release staged delegate broadcasts alongside the
				// regular flush: within-window improvements still
				// coalesce, but a rank grinding a long local queue
				// cannot let hub offers go stale on its peers.
				r.flushOutbox()
				r.flushAll()
				// Yield so peer ranks advance at a similar rate even
				// when simulated ranks outnumber physical cores: real
				// MPI ranks run on dedicated cores, and without the
				// yield one rank can burn a whole scheduler slice on
				// stale distances.
				r.maybeYield()
			}
			continue
		}
		// Local queue empty: give back the rank's pending unit, then
		// everything staged and buffered must go out before we sleep, or
		// the system deadlocks with work parked in buffers. A flushed
		// outbox re-seeds the local queue (the broadcast's self-copy), so
		// restart the loop.
		r.releaseHeld()
		if r.flushOutbox() {
			r.flushAll()
			continue
		}
		r.flushAll()
		if r.drainInbox() {
			continue
		}
		// Short spin before parking: a couple of yields catch messages
		// already in flight from an active peer without a park/wake cycle.
		spun := false
		for s := 0; s < idleSpins; s++ {
			goyield()
			if r.drainInbox() {
				spun = true
				break
			}
		}
		if spun {
			continue
		}
		if dist {
			// Tell the termination tracker this rank is about to block:
			// once every hosted rank is idle with drained mailboxes, the
			// process is passive and may forward a held token.
			c.term.rankIdle()
		}
		// Escalate to a channel park: a truly idle rank burns no CPU.
		c.idleRanks.Add(1)
		select {
		case <-r.box.note:
			c.idleRanks.Add(-1)
			if dist {
				c.term.rankBusy()
			}
			r.drainInbox()
		case <-done:
			c.idleRanks.Add(-1)
			return r.finishTraversal(0)
		case <-c.abort:
			c.idleRanks.Add(-1)
			panic(errAborted)
		}
	}
}

// runBSP is the bulk-synchronous engine loop: process the entire local
// queue, exchange messages, barrier, repeat until no rank received
// anything.
func (r *Rank) runBSP() TraversalStats {
	r.bsp = true
	defer func() { r.bsp = false }()
	// Move init messages (buffered, including self-sends) into round 1.
	r.flushOutbox()
	r.flushAll()
	r.Barrier()
	r.drainInbox()
	steps := int64(0)
	for {
		pending := int64(r.queue.Len())
		if r.AllreduceSumInt64(pending) == 0 {
			return r.finishTraversal(steps)
		}
		steps++
		for {
			m, ok := r.queue.Pop()
			if !ok {
				break
			}
			r.visit(r, m)
			r.processedHere++
		}
		// Superstep boundary: the staged best offer per delegate goes out
		// exactly once per round.
		r.flushOutbox()
		r.flushAll()
		r.Barrier()
		r.drainInbox()
	}
}
