package voronoi

import (
	"fmt"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
)

// Control is the per-vertex control-state API the phase-1..6 visitors read
// and write through. Two implementations exist: the shared State (one array
// indexed by global VID — the pre-slab reference, retained as the
// equivalence oracle behind core's Options.GlobalCSR) and the rank-local
// StateSlab (owned vertices only — the production path). Ownership
// discipline is identical for both: only v's owner rank may touch v's entry
// while a traversal is running, with remote entries reached through mailbox
// messages (the Voronoi relaxations of Alg. 4, the request/reply exchange
// of Alg. 5), never direct access.
type Control interface {
	// Reached reports whether v has a valid (current-epoch) entry.
	Reached(v graph.VID) bool
	// Src returns v's cell seed, or NilVID when unreached.
	Src(v graph.VID) graph.VID
	// Pred returns v's shortest-path predecessor, or NilVID when unreached.
	Pred(v graph.VID) graph.VID
	// Dist returns v's distance to its cell seed, or InfDist when unreached.
	Dist(v graph.VID) graph.Dist
	// Get returns the full entry with one staleness check.
	Get(v graph.VID) (src, pred graph.VID, dist graph.Dist)
	// Set installs v's entry, stamped with the current epoch.
	Set(v graph.VID, src, pred graph.VID, dist graph.Dist)
}

var (
	_ Control = (*State)(nil)
	_ Control = (*StateSlab)(nil)

	_ rt.StateSlab = (*StateSlab)(nil)
)

// StateSlab is one rank's local share of the Voronoi control state: the
// (src, pred, dist) entry of every vertex the rank owns, stored in compact
// rows addressed by the same affine VID→row mapping (graph.RowIndex) the
// rank's graph.Shard uses, so a vertex's adjacency and state live at the
// same local row. It replaces the rank's slice of the shared State array —
// the last shared-memory structure on the solver's hot path — mirroring how
// CONGEST-model Steiner constructions keep all per-vertex labels local to
// the owning node. After slabs, a rank's working set is exactly its shard
// (adjacency), its slab (control state) and its mailbox: the state a
// multi-process backend ships to each process.
//
// Alongside the owned rows the slab keeps two smaller regions:
//
//   - a delegate mirror stripe: the converging (src, dist) of every
//     high-degree delegate the rank does not own, fed by the same broadcast
//     relaxations that fan a delegate's adjacency across ranks
//     (ObserveDelegate). The solver's output never reads mirrors — they are
//     the local answer to "which cell is this hub in?" that a distributed
//     controller protocol needs, and they converge to the owner's values
//     (property-tested in slab_test.go);
//   - phase-6 walk marks (MarkWalked), the epoch-versioned "have I walked
//     this vertex's predecessor chain" bits of Alg. 6, previously a shared
//     O(|V|) bitmap in core.Engine.
//
// All regions are epoch-versioned like State: Reset invalidates everything
// in O(1), making slabs pool-able across the queries of a long-lived
// engine. Entries of non-owned vertices do not exist here — an access
// panics, because it means traversal routing is broken (like
// graph.Shard.Adj on a non-owned vertex).
type StateSlab struct {
	rank int
	rows *graph.RowIndex

	// Owned-vertex rows.
	src    []graph.VID
	pred   []graph.VID
	dist   []graph.Dist
	epoch  []uint64
	walked []uint64
	cur    uint64

	// Delegate mirror stripe (delegates this rank does not own).
	mirrorIdx   map[graph.VID]int32
	mirrorSrc   []graph.VID
	mirrorDist  []graph.Dist
	mirrorEpoch []uint64
}

// NewStateSlab builds rank's slab. owned must list the rank's vertices in
// strictly increasing order (exactly what partition.ShardPlan.Owned yields);
// mirrored lists the delegates the rank does not own (ShardPlan.Mirrored).
// rows, when non-nil, is a prebuilt index over owned (share the rank's
// graph.Shard.Rows() so both slabs address rows through one index).
func NewStateSlab(rank int, owned, mirrored []graph.VID, rows *graph.RowIndex) *StateSlab {
	if rows == nil {
		rows = graph.NewRowIndex(owned)
	}
	n := rows.Len()
	sl := &StateSlab{
		rank:   rank,
		rows:   rows,
		src:    make([]graph.VID, n),
		pred:   make([]graph.VID, n),
		dist:   make([]graph.Dist, n),
		epoch:  make([]uint64, n),
		walked: make([]uint64, n),
		cur:    1,
	}
	if len(mirrored) > 0 {
		sl.mirrorIdx = make(map[graph.VID]int32, len(mirrored))
		sl.mirrorSrc = make([]graph.VID, len(mirrored))
		sl.mirrorDist = make([]graph.Dist, len(mirrored))
		sl.mirrorEpoch = make([]uint64, len(mirrored))
		for i, d := range mirrored {
			sl.mirrorIdx[d] = int32(i)
		}
	}
	return sl
}

// BuildSlabs cuts one StateSlab per rank from the plan — the control-state
// counterpart of ShardPlan.BuildShards. shards, when non-nil, supplies the
// prebuilt per-rank row indices so state rows and adjacency rows share one
// mapping; pass nil to build standalone indices.
func BuildSlabs(plan *partition.ShardPlan, shards []*graph.Shard) []*StateSlab {
	slabs := make([]*StateSlab, plan.NumRanks())
	for rank := range slabs {
		var rows *graph.RowIndex
		if shards != nil {
			rows = shards[rank].Rows()
		}
		slabs[rank] = NewStateSlab(rank, plan.Owned(rank), plan.Mirrored(rank), rows)
	}
	return slabs
}

// AttachSlabs builds slabs from the plan and attaches them to c. Returns
// the slabs for callers that read converged state afterwards (Collect).
func AttachSlabs(c *rt.Comm, plan *partition.ShardPlan, shards []*graph.Shard) ([]*StateSlab, error) {
	slabs := BuildSlabs(plan, shards)
	generic := make([]rt.StateSlab, len(slabs))
	for i, sl := range slabs {
		generic[i] = sl
	}
	if err := c.AttachStateSlabs(generic); err != nil {
		return nil, err
	}
	return slabs, nil
}

// EnsureSlabs attaches freshly built slabs cut by c's partition if none are
// attached yet, and returns the attached slabs either way. Convenience for
// callers (tests, Compute) that build a Comm directly; core.Engine builds
// its own slabs next to its shards. Panics on inconsistency, like
// Comm.EnsureShards.
func EnsureSlabs(c *rt.Comm, g *graph.Graph) []*StateSlab {
	if c.StateAttached() {
		attached := c.StateSlabs()
		slabs := make([]*StateSlab, len(attached))
		for i, sl := range attached {
			slabs[i] = sl.(*StateSlab)
		}
		return slabs
	}
	plan, err := partition.NewShardPlan(c.Partition(), g)
	if err != nil {
		panic(err)
	}
	// Reuse the attached shards' row indices when present, so each rank's
	// adjacency and state share one vertex→row mapping.
	slabs, err := AttachSlabs(c, plan, c.Shards())
	if err != nil {
		panic(err)
	}
	return slabs
}

// SlabOf returns r's attached StateSlab. It panics when no slab (or a
// foreign slab type) is attached — the caller is running the slab-state
// path on a communicator that was never given control state, a wiring bug.
func SlabOf(r *rt.Rank) *StateSlab {
	sl, ok := r.StateSlab().(*StateSlab)
	if !ok {
		panic("voronoi: rank has no StateSlab; call Comm.AttachStateSlabs (voronoi.AttachSlabs/EnsureSlabs) before Run")
	}
	return sl
}

// Rank returns the rank this slab belongs to.
func (sl *StateSlab) Rank() int { return sl.rank }

// NumOwned returns the number of owned-vertex rows.
func (sl *StateSlab) NumOwned() int { return sl.rows.Len() }

// NumMirrored returns the number of delegate mirror rows.
func (sl *StateSlab) NumMirrored() int { return len(sl.mirrorIdx) }

// Owns reports whether v's authoritative state lives in this slab.
func (sl *StateSlab) Owns(v graph.VID) bool { return sl.rows.Row(v) >= 0 }

// Reset invalidates every owned row, mirror row and walk mark in O(1) by
// advancing the epoch. Call between queries; must not be called while a
// traversal is running.
func (sl *StateSlab) Reset() { sl.cur++ }

// row returns v's owned row or panics: state access to a non-owned vertex
// means the traversal routed a message to the wrong rank.
func (sl *StateSlab) row(v graph.VID) int32 {
	i := sl.rows.Row(v)
	if i < 0 {
		panic(fmt.Sprintf("voronoi: StateSlab(rank %d) access to non-owned vertex %d", sl.rank, v))
	}
	return i
}

// Reached reports whether owned vertex v has a current-epoch entry.
func (sl *StateSlab) Reached(v graph.VID) bool { return sl.epoch[sl.row(v)] == sl.cur }

// Src returns owned vertex v's cell seed, or NilVID when unreached.
func (sl *StateSlab) Src(v graph.VID) graph.VID {
	i := sl.row(v)
	if sl.epoch[i] != sl.cur {
		return graph.NilVID
	}
	return sl.src[i]
}

// Pred returns owned vertex v's predecessor, or NilVID when unreached.
func (sl *StateSlab) Pred(v graph.VID) graph.VID {
	i := sl.row(v)
	if sl.epoch[i] != sl.cur {
		return graph.NilVID
	}
	return sl.pred[i]
}

// Dist returns owned vertex v's distance, or InfDist when unreached.
func (sl *StateSlab) Dist(v graph.VID) graph.Dist {
	i := sl.row(v)
	if sl.epoch[i] != sl.cur {
		return graph.InfDist
	}
	return sl.dist[i]
}

// Get returns owned vertex v's full entry with a single epoch check.
func (sl *StateSlab) Get(v graph.VID) (src, pred graph.VID, dist graph.Dist) {
	i := sl.row(v)
	if sl.epoch[i] != sl.cur {
		return graph.NilVID, graph.NilVID, graph.InfDist
	}
	return sl.src[i], sl.pred[i], sl.dist[i]
}

// Set installs owned vertex v's entry, stamped with the current epoch.
func (sl *StateSlab) Set(v graph.VID, src, pred graph.VID, dist graph.Dist) {
	i := sl.row(v)
	sl.epoch[i] = sl.cur
	sl.src[i] = src
	sl.pred[i] = pred
	sl.dist[i] = dist
}

// mergeOffer implements floodState.
func (sl *StateSlab) mergeOffer(v, seed, pred graph.VID, dist graph.Dist) bool {
	i := sl.row(v)
	if sl.epoch[i] != sl.cur {
		sl.epoch[i] = sl.cur
		sl.src[i], sl.pred[i], sl.dist[i] = seed, pred, dist
		return true
	}
	od, os := sl.dist[i], sl.src[i]
	if !offerBetter(dist, seed, pred, od, os, sl.pred[i]) {
		return false
	}
	sl.src[i], sl.pred[i], sl.dist[i] = seed, pred, dist
	return dist != od || seed != os
}

// holds implements floodState.
func (sl *StateSlab) holds(v, seed graph.VID, dist graph.Dist) bool {
	i := sl.row(v)
	return sl.epoch[i] == sl.cur && sl.dist[i] == dist && sl.src[i] == seed
}

// MarkWalked records that v's predecessor chain has been walked this epoch
// (Alg. 6) and reports whether the mark is new — false means v was already
// walked and the caller should stop. Replaces the shared O(|V|) walked
// bitmap the engine kept before slabs.
func (sl *StateSlab) MarkWalked(v graph.VID) bool {
	i := sl.row(v)
	if sl.walked[i] == sl.cur {
		return false
	}
	sl.walked[i] = sl.cur
	return true
}

// ObserveDelegate folds one broadcast delegate relaxation (delegate d now
// reaches seed src at distance dist) into the local mirror stripe, keeping
// the lexicographic minimum exactly as the owner's entry does. A no-op when
// this rank owns d (the owned row is authoritative) or d has no mirror row
// (not a delegate of this partition).
func (sl *StateSlab) ObserveDelegate(d graph.VID, src graph.VID, dist graph.Dist) {
	i, ok := sl.mirrorIdx[d]
	if !ok {
		return
	}
	if sl.mirrorEpoch[i] == sl.cur {
		od, os := sl.mirrorDist[i], sl.mirrorSrc[i]
		if !(dist < od || (dist == od && src < os)) {
			return
		}
	}
	sl.mirrorEpoch[i] = sl.cur
	sl.mirrorSrc[i] = src
	sl.mirrorDist[i] = dist
}

// DelegateState returns this rank's view of delegate d's (src, dist): the
// authoritative owned row when the rank owns d, the mirror row otherwise.
// ok is false when d is neither owned nor mirrored here. Mirror values
// converge to the owner's once the traversal reaches quiescence; mid-flight
// they lag like any asynchronous label.
func (sl *StateSlab) DelegateState(d graph.VID) (src graph.VID, dist graph.Dist, ok bool) {
	if i := sl.rows.Row(d); i >= 0 {
		if sl.epoch[i] != sl.cur {
			return graph.NilVID, graph.InfDist, true
		}
		return sl.src[i], sl.dist[i], true
	}
	i, mirrored := sl.mirrorIdx[d]
	if !mirrored {
		return graph.NilVID, graph.InfDist, false
	}
	if sl.mirrorEpoch[i] != sl.cur {
		return graph.NilVID, graph.InfDist, true
	}
	return sl.mirrorSrc[i], sl.mirrorDist[i], true
}

// EachReached calls fn for every owned vertex with a current-epoch entry,
// in row order. Used to collect converged per-rank state into a global view
// (Collect) and by tests.
func (sl *StateSlab) EachReached(fn func(v graph.VID, src, pred graph.VID, dist graph.Dist)) {
	for i := 0; i < sl.rows.Len(); i++ {
		if sl.epoch[i] != sl.cur {
			continue
		}
		fn(sl.rows.VertexAt(i), sl.src[i], sl.pred[i], sl.dist[i])
	}
}

// MemoryBytes reports the slab's resident size: owned rows (src 4 + pred 4
// + dist 8 + epoch 8 + walked 8 bytes), mirror rows (src 4 + dist 8 +
// epoch 8 + index ~12) and any non-affine row index.
func (sl *StateSlab) MemoryBytes() int64 {
	n := int64(sl.rows.Len())
	b := n * (4 + 4 + 8 + 8 + 8)
	m := int64(len(sl.mirrorIdx))
	b += m * (4 + 8 + 8 + 12)
	b += sl.rows.MemoryBytes()
	return b
}

// Collect merges converged per-rank slabs into one shared-form State over n
// vertices — the bridge back to the global view for verification oracles,
// Compute's return value and the experiment tables. The merged state is a
// copy; mutating it does not touch the slabs.
func Collect(slabs []*StateSlab, n int) *State {
	st := NewState(n)
	for _, sl := range slabs {
		sl.EachReached(func(v graph.VID, src, pred graph.VID, dist graph.Dist) {
			st.Set(v, src, pred, dist)
		})
	}
	return st
}
