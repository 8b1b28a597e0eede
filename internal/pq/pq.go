// Package pq provides the queue substrate behind the runtime's message
// scheduling: a binary-heap priority queue, a ring-buffer FIFO, and a
// monotone bucket queue (Δ-stepping style). The paper's key optimization
// (§IV, §V-C) is draining each partition's visitor queue in
// distance-priority order instead of FIFO order; both disciplines are
// implemented here behind the same interface so the ablation in Fig. 5/6 is
// a one-flag switch.
package pq

// Queue is the common discipline-independent interface used by the runtime
// engine. Implementations are not safe for concurrent use; the engine owns
// one queue per rank.
type Queue[T any] interface {
	// Push inserts an item with the given priority key (lower = sooner).
	Push(item T, key uint64)
	// Pop removes the next item according to the discipline. ok is false
	// when the queue is empty.
	Pop() (item T, ok bool)
	// Len returns the number of queued items.
	Len() int
	// Reset empties the queue and rewinds discipline state (the bucket
	// cursor, FIFO ring indices) while keeping allocated capacity, so
	// one queue can serve many traversals without reallocation.
	Reset()
}

// Heap is a binary min-heap priority queue. Ties are broken by insertion
// order (FIFO among equal keys) so that behaviour is deterministic.
//
// Entries are stored inline — key, insertion sequence and item side by
// side — and sifting moves a hole instead of swapping, so each level of
// an up or down pass costs one entry copy on one cache line.
type Heap[T any] struct {
	es  []heapEntry[T]
	seq uint64
}

// heapEntry is one queued item with its ordering fields.
type heapEntry[T any] struct {
	key  uint64
	seq  uint64
	item T
}

// before reports whether a pops before b: smaller key first, then earlier
// insertion.
func (a *heapEntry[T]) before(b *heapEntry[T]) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// NewHeap returns an empty priority queue with optional capacity hint.
func NewHeap[T any](capacity int) *Heap[T] {
	return &Heap[T]{es: make([]heapEntry[T], 0, capacity)}
}

// Push inserts item with priority key.
func (h *Heap[T]) Push(item T, key uint64) {
	e := heapEntry[T]{key: key, seq: h.seq, item: item}
	h.seq++
	h.es = append(h.es, e)
	es := h.es
	i := len(es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = e
}

// Pop removes the minimum-key item.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	n := len(h.es)
	if n == 0 {
		return zero, false
	}
	top := h.es[0].item
	last := h.es[n-1]
	h.es[n-1] = heapEntry[T]{} // release references
	h.es = h.es[:n-1]
	if n > 1 {
		h.siftDown(last)
	}
	return top, true
}

// siftDown places e, displaced from the last slot, by walking the hole at
// the root down to where e belongs.
func (h *Heap[T]) siftDown(e heapEntry[T]) {
	es := h.es
	n := len(es)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && es[r].before(&es[c]) {
			c = r
		}
		if !es[c].before(&e) {
			break
		}
		es[i] = es[c]
		i = c
	}
	es[i] = e
}

// PeekKey returns the minimum key without removing it.
func (h *Heap[T]) PeekKey() (uint64, bool) {
	if len(h.es) == 0 {
		return 0, false
	}
	return h.es[0].key, true
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.es) }

// Reset empties the heap, keeping the allocated array.
func (h *Heap[T]) Reset() {
	clear(h.es) // release references
	h.es = h.es[:0]
	h.seq = 0
}

// FIFO is a growable ring buffer implementing Queue with first-in-first-out
// discipline (priority keys are ignored). This is HavoqGT's default message
// queue, used as the baseline in the Fig. 5/6 ablation.
type FIFO[T any] struct {
	buf        []T
	head, size int
}

// NewFIFO returns an empty FIFO with optional capacity hint.
func NewFIFO[T any](capacity int) *FIFO[T] {
	if capacity < 4 {
		capacity = 4
	}
	return &FIFO[T]{buf: make([]T, capacity)}
}

// Push appends item; key is ignored.
func (q *FIFO[T]) Push(item T, _ uint64) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)%len(q.buf)] = item
	q.size++
}

// Pop removes the oldest item.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.size == 0 {
		return zero, false
	}
	item := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return item, true
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.size }

// Reset empties the ring, keeping the allocated buffer.
func (q *FIFO[T]) Reset() {
	var zero T
	for q.size > 0 {
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.size--
	}
	q.head = 0
}

func (q *FIFO[T]) grow() {
	nbuf := make([]T, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		nbuf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nbuf
	q.head = 0
}

// Bucket is a monotone bucket queue: items with keys in [iΔ, (i+1)Δ) share
// bucket i and are drained FIFO within a bucket. It approximates a priority
// queue with O(1) operations and is the discipline behind Δ-stepping SSSP
// (discussed as related work in §III). Keys smaller than the current bucket
// are tolerated (they land in the current bucket), so Bellman-Ford-style
// re-relaxations remain correct.
type Bucket[T any] struct {
	delta   uint64
	buckets map[uint64]*FIFO[T]
	cur     uint64
	size    int
}

// NewBucket returns a bucket queue with width delta (0 means delta 1).
func NewBucket[T any](delta uint64) *Bucket[T] {
	if delta == 0 {
		delta = 1
	}
	return &Bucket[T]{delta: delta, buckets: map[uint64]*FIFO[T]{}}
}

// Push inserts item into bucket key/delta (clamped to the current bucket).
func (b *Bucket[T]) Push(item T, key uint64) {
	idx := key / b.delta
	if idx < b.cur {
		idx = b.cur
	}
	q := b.buckets[idx]
	if q == nil {
		q = NewFIFO[T](8)
		b.buckets[idx] = q
	}
	q.Push(item, key)
	b.size++
}

// Pop removes an item from the lowest non-empty bucket. When the current
// bucket drains, the cursor jumps directly to the smallest non-empty bucket
// index (an O(#buckets) scan — buckets are few because only keys between
// the frontier and frontier+maxEdgeWeight are live in SSSP workloads).
func (b *Bucket[T]) Pop() (T, bool) {
	var zero T
	if b.size == 0 {
		return zero, false
	}
	q := b.buckets[b.cur]
	if q == nil || q.Len() == 0 {
		first := true
		for idx := range b.buckets {
			if first || idx < b.cur {
				b.cur = idx
				first = false
			}
		}
		q = b.buckets[b.cur]
	}
	item, _ := q.Pop()
	b.size--
	if q.Len() == 0 {
		delete(b.buckets, b.cur)
	}
	return item, true
}

// Len returns the number of queued items.
func (b *Bucket[T]) Len() int { return b.size }

// Reset empties the queue and rewinds the bucket cursor to zero so a fresh
// traversal's small keys open new low buckets instead of being clamped to
// the previous run's final bucket.
func (b *Bucket[T]) Reset() {
	clear(b.buckets)
	b.cur = 0
	b.size = 0
}

// Compile-time interface checks.
var (
	_ Queue[int] = (*Heap[int])(nil)
	_ Queue[int] = (*FIFO[int])(nil)
	_ Queue[int] = (*Bucket[int])(nil)
)
