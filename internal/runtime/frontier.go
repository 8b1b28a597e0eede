package runtime

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"dsteiner/internal/pq"
)

// This file implements the intra-rank parallel frontier: Δ-stepping bucket
// drains executed by a per-rank worker pool. The monotone bucket queue
// (pq.Bucket) groups messages into one [iΔ, (i+1)Δ) distance window whose
// relaxations are mutually independent up to the per-vertex lex-min merge,
// so a whole bucket can be relaxed concurrently without changing the fixed
// point the traversal converges to.
//
// Determinism and race-freedom come from two rules:
//
//  1. Ownership partition. A drained bucket is split by Target: worker w
//     processes exactly the messages with Target % workers == w. Per-vertex
//     state (owned slab rows and delegate mirror rows alike) is keyed by
//     Target, so no two workers ever touch the same row, and same-vertex
//     messages keep their bucket-FIFO order within one worker. Visits are
//     lock-free by construction.
//
//  2. Staged sends. Workers never send: the ParallelVisit callback emits
//     raw outbound messages into a per-worker staging outbox. After all
//     workers join, the rank goroutine replays the stages in worker-index
//     order through ParallelFlush — the rank's normal send path, including
//     the changed-since filter (which now reads fully-merged mirror state,
//     single-threaded) and the superstep delegate outbox. Wire traffic,
//     tie-send rules and batching are byte-for-byte those of the serial
//     path.
type frontierPool struct {
	workers int
	r       *Rank
	kick    []chan struct{}
	wg      sync.WaitGroup

	// Per-drain shared inputs, written by the rank goroutine before the
	// kick (the channel send publishes them to the workers).
	items []Msg
	visit ParallelVisitFunc

	// Per-worker outputs, read by the rank goroutine after the wg join.
	stage     [][]Msg
	emit      []func(Msg) // prebuilt appenders, one per worker
	chunk     []int64     // messages this worker relaxed in the last drain
	conflicts []int64     // superseded items skipped (cumulative, folded per drain)
	busyNs    []int64     // busy time in the last drain
}

// ParallelVisitFunc is the bucket-drain form of VisitFunc: it must apply
// m to this rank's own per-vertex state (safe because the pool partitions
// a bucket by Target) and emit any outbound messages instead of sending
// them. worker identifies the calling pool worker for conflict accounting
// (Rank.FrontierConflict).
type ParallelVisitFunc func(r *Rank, m Msg, worker int, emit func(Msg))

// newFrontierPool spawns workers goroutines pinned to rank r. Workers park
// on their kick channel between drains and exit when it closes.
func newFrontierPool(r *Rank, workers int) *frontierPool {
	p := &frontierPool{
		workers:   workers,
		r:         r,
		kick:      make([]chan struct{}, workers),
		stage:     make([][]Msg, workers),
		emit:      make([]func(Msg), workers),
		chunk:     make([]int64, workers),
		conflicts: make([]int64, workers),
		busyNs:    make([]int64, workers),
	}
	for w := 0; w < workers; w++ {
		w := w
		p.kick[w] = make(chan struct{}, 1)
		p.emit[w] = func(m Msg) { p.stage[w] = append(p.stage[w], m) }
		go p.worker(w)
	}
	return p
}

// worker is one pool goroutine: wait for a kick, relax this worker's share
// of the drained bucket against the rank's own state, stage outbound
// messages, and report back through the WaitGroup.
func (p *frontierPool) worker(w int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(
		"rank", strconv.Itoa(p.r.id),
		"frontier_worker", strconv.Itoa(w),
	)))
	mod := uint32(p.workers)
	for range p.kick[w] {
		t0 := time.Now()
		n := int64(0)
		for _, m := range p.items {
			if uint32(m.Target)%mod != uint32(w) {
				continue
			}
			p.visit(p.r, m, w, p.emit[w])
			n++
		}
		p.chunk[w] = n
		p.busyNs[w] = time.Since(t0).Nanoseconds()
		p.wg.Done()
	}
}

// close releases the pool goroutines.
func (p *frontierPool) close() {
	for _, ch := range p.kick {
		close(ch)
	}
}

// FrontierConflict records one drained item a parallel visit skipped
// because a later merge superseded it (for the Voronoi flood: a settle
// token whose row has improved since), surfaced as
// Stats.Frontier.Conflicts. Valid only inside a
// ParallelVisit callback on worker w (the counter is worker-local).
func (r *Rank) FrontierConflict(w int) { r.pool.conflicts[w]++ }

// ensureFrontierPool lazily creates this rank's worker pool (Comm.Close
// releases it; a later run recreates it on demand).
func (r *Rank) ensureFrontierPool() {
	if r.pool == nil {
		r.pool = newFrontierPool(r, r.comm.frontierWorkers())
	}
}

// frontierWorkers resolves the per-rank worker count from the per-process
// budget: max(1, FrontierWorkers / hosted ranks), defaulting the budget to
// GOMAXPROCS so a loopback communicator splits the machine across its P
// ranks and a one-rank-per-process fleet gives each rank the whole host.
func (c *Comm) frontierWorkers() int {
	budget := c.cfg.FrontierWorkers
	if budget <= 0 {
		budget = maxProcs()
	}
	w := budget / len(c.ranks)
	if w < 1 {
		w = 1
	}
	return w
}

// parallelDrain relaxes the rank's drained bucket (r.drainBuf) on the worker
// pool, then replays the per-worker staging outboxes in worker-index order
// through flush. The rank keeps its pending unit while the replay runs
// (it holds one until its queue is empty), so quiescence can never be
// declared mid-drain.
func (r *Rank) parallelDrain(flush VisitFunc) {
	p := r.pool
	c := r.comm
	t0 := time.Now()
	p.items = r.drainBuf
	p.visit = r.pvisit
	p.wg.Add(p.workers)
	for _, ch := range p.kick {
		ch <- struct{}{}
	}
	p.wg.Wait()
	var busy, maxChunk, conflicts int64
	for w := 0; w < p.workers; w++ {
		busy += p.busyNs[w]
		conflicts += p.conflicts[w]
		p.conflicts[w] = 0
		if p.chunk[w] > maxChunk {
			maxChunk = p.chunk[w]
		}
		for _, m := range p.stage[w] {
			flush(r, m)
		}
		p.stage[w] = p.stage[w][:0]
	}
	n := int64(len(r.drainBuf))
	r.drainsHere++
	r.frontierMsgsHere += n
	c.frontierDrains.Add(1)
	c.frontierMsgs.Add(n)
	c.frontierConflicts.Add(conflicts)
	c.frontierBusyNs.Add(busy)
	c.frontierWallNs.Add(time.Since(t0).Nanoseconds())
	for {
		cur := c.frontierMaxChunk.Load()
		if maxChunk <= cur || c.frontierMaxChunk.CompareAndSwap(cur, maxChunk) {
			break
		}
	}
}

// drainFrontier pops the entire current Δ-bucket and relaxes it: on the
// worker pool when the bucket is big enough to amortize the pool dispatch,
// serially through the ordinary Visit path otherwise (both converge to the
// same fixed point — the serial path is the degenerate one-chunk order).
// It returns the number of messages processed; 0 means the queue is empty
// (or the traversal is not bucket-parallel — bq nil).
func (r *Rank) drainFrontier(bq *pq.Bucket[Msg]) int64 {
	if bq == nil {
		return 0
	}
	r.drainBuf = bq.DrainBucket(r.drainBuf[:0])
	n := int64(len(r.drainBuf))
	if n == 0 {
		return 0
	}
	if n < int64(2*r.pool.workers) {
		for _, m := range r.drainBuf {
			r.visit(r, m)
		}
	} else {
		r.parallelDrain(r.pflush)
	}
	r.processedHere += n
	return n
}

// FrontierStats reports intra-rank parallel-frontier work: Δ-stepping
// bucket drains executed by the per-rank worker pools. All counters are
// zero when the parallel frontier is disabled.
type FrontierStats struct {
	// Workers is the resolved worker count per hosted rank (0 when the
	// parallel frontier is disabled).
	Workers int
	// BucketsDrained counts whole-bucket parallel drains.
	BucketsDrained int64
	// Messages counts relaxations executed inside parallel drains.
	Messages int64
	// MaxChunk is the largest per-worker chunk of any drain (high-water
	// mark, not a delta-able counter).
	MaxChunk int64
	// Conflicts counts drained items a parallel visit skipped as
	// superseded: Voronoi settle tokens whose row a later merge improved.
	Conflicts int64
	// BusyNs is cumulative worker busy time inside drains; BusyNs /
	// (WallNs * Workers) is the pool's busy fraction.
	BusyNs int64
	// WallNs is cumulative wall time of parallel drains.
	WallNs int64
}
