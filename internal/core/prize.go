package core

import (
	"cmp"
	"slices"

	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
)

// prizePlan decides which terminals a prize-mode query connects and which
// it pays to skip. It runs over the replicated merged distance graph G'_1
// (the same table phase 4 feeds to the MST). Every input is identical on
// every process, all arithmetic is integral and every tie-break is by a
// fixed enumeration order, so the plan is the same wherever it runs; each
// process computes it once per query and its hosted ranks share it.
//
// The pass is an unrooted primal-dual moat growing after Goemans–
// Williamson (cf. Saikia & Karmakar, arXiv:1710.07040). Every terminal
// starts as its own moat with dual budget equal to its penalty; moats with
// budget left are active. All dual quantities are doubled (suffix 2) so
// every event time is an integer. Two kinds of event compete:
//
//   - an inter-moat edge e=(u,v) with speed s (the number of active moats
//     among its endpoints' two) has key slack2/s, slack2 = 2·w(e) − y2(u) −
//     y2(v), clamped at 0;
//   - an active moat has key budget2/2.
//
// The smallest key wins, edges before moats on equal keys, lower sorted
// edge index or smaller least member among equals. The event then
// advances every active moat by dy2 = 2·key: each active terminal's y2
// grows and each active budget2 shrinks by dy2. So the rule compares an
// edge's tight time (slack/s in undoubled units) doubled against a moat's
// exhaustion time, and an edge event fires, and moves the clock, at twice
// the time the edge went tight; most merge edges are over-tight (slack2 <
// 0, which the clamp turns into key 0) by the time they fire. A fired edge
// merges its two moats, pooling their budgets; a moat event deactivates
// the moat. Growth stops when at most one active moat remains.
//
// Selection evaluates the laminar family of every moat the growth formed
// — singletons, each merge in order, then the full terminal set — by its
// restricted-MST cost plus the penalties of the terminals outside it; the
// first strictly cheapest wins. Every moat is connected by the edges that
// merged it, so only the full set can be infeasible (skipped when G'_1 is
// disconnected), and the plan always keeps at least one terminal.
//
// Cost: the growth keeps its events in heaps keyed by absolute clock time
// and re-keys an edge only when an endpoint's moat changes activity; the
// selection builds each moat's MST from its two parts' MSTs and the edges
// between them. Together O((|E'_1| + re-keys) log |E'_1|) plus the
// merges' O(k²) worst case, instead of a full edge rescan per event and a
// Kruskal per candidate.
//
// edges carries dense terminal indices (0..nT-1); penalty is parallel to
// the dense ordering. The returned slice marks kept terminals.
func prizePlan(nT int, edges []mst.WEdge, penalty []graph.Dist) []bool {
	keep := make([]bool, nT)
	if nT == 0 {
		return keep
	}
	p := newMoatPlan(nT, edges, penalty)
	p.grow()
	best := p.selectBest()
	if best == fullSet {
		for i := range keep {
			keep[i] = true
		}
		return keep
	}
	stack := []int32{best}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(c) < nT {
			keep[c] = true
			continue
		}
		kids := p.kids[int(c)-nT]
		stack = append(stack, kids[0], kids[1])
	}
	return keep
}

// fullSet is the candidate id of the full terminal set.
const fullSet = -1

// moatPlan is prizePlan's working state. Moats are identified by a root
// terminal; root maps every terminal to its moat directly (the smaller
// moat's members are relabelled on a merge). Candidate ids 0..nT-1 are the
// singletons and nT+i is the i-th merge.
type moatPlan struct {
	nT     int
	sorted []mst.WEdge // edges by (W, U, V): the enumeration order
	adjOff []int32     // terminal t's incident sorted-edge indices are
	adj    []int32     // adj[adjOff[t]:adjOff[t+1]], ascending

	// Per-moat state, valid at roots.
	root    []int32
	members [][]int32
	active  []bool
	due     []int64  // active moat: clock at which its budget2 runs out
	grown   []int64  // dual grown around each member up to since
	since   []int64  // clock of the moat's last activity change
	least   []int32  // smallest member: the moat events' tie-break
	mver    []uint32 // moat event version; bumped when due changes

	// y2off[t] + growth(root[t]) is terminal t's accumulated dual y2.
	y2off []int64
	eVer  []uint32 // edge event version; bumped on every re-key

	clock       int64 // the sum of every event's dy2
	activeCount int
	// edgeQ holds positive-key edges by the doubled clock time their key
	// reaches 0; zeroQ the edges whose key is already 0, by index alone;
	// moatQ the active moats by due.
	edgeQ, zeroQ, moatQ eventHeap

	// Selection state, per root: the moat's candidate id, MST (sorted
	// edge indices) and its cost, and its members' penalty sum.
	cand     []int32
	mstOf    [][]int32
	mstCost  []int64
	penSum   []int64
	totalPen int64
	kids     [][2]int32 // children of merge candidate nT+i

	bestObj  int64
	bestCand int32
	cross    []int32 // scratch: edges between two merging moats
	pool     []int32 // scratch: the merged MST input
	kuf      []int32 // scratch: Kruskal union-find over terminals
}

func newMoatPlan(nT int, edges []mst.WEdge, penalty []graph.Dist) *moatPlan {
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b mst.WEdge) int {
		if c := cmp.Compare(a.W, b.W); c != 0 {
			return c
		}
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	p := &moatPlan{
		nT: nT, sorted: sorted,
		root: make([]int32, nT), members: make([][]int32, nT),
		active: make([]bool, nT), due: make([]int64, nT),
		grown: make([]int64, nT), since: make([]int64, nT),
		least: make([]int32, nT), mver: make([]uint32, nT),
		y2off: make([]int64, nT), eVer: make([]uint32, len(sorted)),
		cand: make([]int32, nT), mstOf: make([][]int32, nT),
		mstCost: make([]int64, nT), penSum: make([]int64, nT),
		kuf: make([]int32, nT),
	}

	// Incidence lists in sorted order (self-loops never join two moats).
	p.adjOff = make([]int32, nT+1)
	for _, e := range sorted {
		if e.U != e.V {
			p.adjOff[e.U+1]++
			p.adjOff[e.V+1]++
		}
	}
	for t := 0; t < nT; t++ {
		p.adjOff[t+1] += p.adjOff[t]
	}
	p.adj = make([]int32, p.adjOff[nT])
	fill := slices.Clone(p.adjOff[:nT])
	for ei, e := range sorted {
		if e.U != e.V {
			p.adj[fill[e.U]] = int32(ei)
			fill[e.U]++
			p.adj[fill[e.V]] = int32(ei)
			fill[e.V]++
		}
	}

	for t := 0; t < nT; t++ {
		p.root[t] = int32(t)
		p.members[t] = []int32{int32(t)}
		p.least[t] = int32(t)
		p.cand[t] = int32(t)
		p.penSum[t] = int64(penalty[t])
		p.totalPen += int64(penalty[t])
		if budget2 := 2 * int64(penalty[t]); budget2 > 0 {
			p.active[t] = true
			p.due[t] = budget2
			p.activeCount++
			p.moatQ.push(event{key: budget2, tie: int32(t), id: int32(t)})
		}
	}
	for ei, e := range sorted {
		if e.U != e.V {
			p.queueEdge(int32(ei))
		}
	}
	return p
}

// growth is the dual grown around every member of moat r so far.
func (p *moatPlan) growth(r int32) int64 {
	if p.active[r] {
		return p.grown[r] + p.clock - p.since[r]
	}
	return p.grown[r]
}

// setActive switches moat r's activity at the current clock.
func (p *moatPlan) setActive(r int32, on bool) {
	p.grown[r] = p.growth(r)
	p.since[r] = p.clock
	p.active[r] = on
}

// queueEdge queues inter-moat edge ei's event, keyed from the current
// duals. An edge neither of whose moats is active gets none until one is.
func (p *moatPlan) queueEdge(ei int32) {
	e := p.sorted[ei]
	ru, rv := p.root[e.U], p.root[e.V]
	speed := int64(0)
	if p.active[ru] {
		speed++
	}
	if p.active[rv] {
		speed++
	}
	if speed == 0 {
		return
	}
	ev := event{tie: ei, id: ei, ver: p.eVer[ei]}
	slack2 := 2*int64(e.W) - (p.y2off[e.U] + p.growth(ru)) - (p.y2off[e.V] + p.growth(rv))
	if slack2 <= 0 {
		p.zeroQ.push(ev)
		return
	}
	// The key slack2/speed falls by dy2 per event, so it reaches 0 at
	// clock + slack2/speed; doubled, that time is integral.
	ev.key = 2*p.clock + 2*slack2/speed
	p.edgeQ.push(ev)
}

// rekey re-keys every inter-moat edge incident to terminals ts.
func (p *moatPlan) rekey(ts []int32) {
	for _, t := range ts {
		for _, ei := range p.adj[p.adjOff[t]:p.adjOff[t+1]] {
			if e := p.sorted[ei]; p.root[e.U] != p.root[e.V] {
				p.eVer[ei]++
				p.queueEdge(ei)
			}
		}
	}
}

// liveEdge reports whether a queued edge event is current.
func (p *moatPlan) liveEdge(ev event) bool {
	e := p.sorted[ev.id]
	return ev.ver == p.eVer[ev.id] && p.root[e.U] != p.root[e.V]
}

// grow evaluates the singleton candidates, then runs the moat growing to
// the end; merge evaluates each merged moat as it forms.
func (p *moatPlan) grow() {
	p.bestCand = fullSet
	for t := 0; t < p.nT; t++ {
		if obj := p.objective(int32(t)); p.bestCand == fullSet || obj < p.bestObj {
			p.bestObj, p.bestCand = obj, int32(t)
		}
	}
	for p.activeCount >= 2 {
		for len(p.edgeQ.items) > 0 && p.edgeQ.items[0].key <= 2*p.clock {
			if ev := p.edgeQ.pop(); p.liveEdge(ev) {
				ev.key = 0
				p.zeroQ.push(ev)
			}
		}
		q, cur2 := (*eventHeap)(nil), int64(0) // best edge's queue and doubled key
		for len(p.zeroQ.items) > 0 && q == nil {
			if p.liveEdge(p.zeroQ.items[0]) {
				q = &p.zeroQ
			} else {
				p.zeroQ.pop()
			}
		}
		for len(p.edgeQ.items) > 0 && q == nil {
			if p.liveEdge(p.edgeQ.items[0]) {
				q, cur2 = &p.edgeQ, p.edgeQ.items[0].key-2*p.clock
			} else {
				p.edgeQ.pop()
			}
		}
		for len(p.moatQ.items) > 0 {
			m := p.moatQ.items[0]
			if p.root[m.id] == m.id && p.active[m.id] && p.mver[m.id] == m.ver {
				break
			}
			p.moatQ.pop()
		}
		// A moat event must be strictly earlier than the best edge.
		if len(p.moatQ.items) > 0 && (q == nil || p.moatQ.items[0].key-p.clock < cur2) {
			m := p.moatQ.pop()
			p.clock = m.key
			p.setActive(m.id, false)
			p.activeCount--
			p.rekey(p.members[m.id])
			continue
		}
		if q == nil {
			break
		}
		e := p.sorted[q.pop().id]
		p.clock += cur2
		p.merge(p.root[e.U], p.root[e.V])
	}
}

// budget2 is moat r's remaining budget at the current clock.
func (p *moatPlan) budget2(r int32) int64 {
	if p.active[r] {
		return p.due[r] - p.clock
	}
	return 0
}

// merge joins moats a and b along a fired edge and evaluates the merged
// moat as a candidate.
func (p *moatPlan) merge(a, b int32) {
	budget2 := p.budget2(a) + p.budget2(b)
	on := budget2 > 0
	if p.active[a] {
		p.activeCount--
	}
	if p.active[b] {
		p.activeCount--
	}
	if on {
		p.activeCount++
	}
	l, s := a, b
	if len(p.members[s]) > len(p.members[l]) {
		l, s = s, l
	}
	flipL, flipS := p.active[l] != on, p.active[s] != on

	// Edges between the two moats, found from the smaller side.
	p.cross = p.cross[:0]
	for _, t := range p.members[s] {
		for _, ei := range p.adj[p.adjOff[t]:p.adjOff[t+1]] {
			if e := p.sorted[ei]; p.root[e.U] == l || p.root[e.V] == l {
				p.cross = append(p.cross, ei)
			}
		}
	}
	slices.Sort(p.cross)

	// Relabel the smaller moat, carrying its duals over to l's clock.
	d := p.growth(s) - p.growth(l)
	for _, t := range p.members[s] {
		p.y2off[t] += d
		p.root[t] = l
	}
	nL := len(p.members[l])
	p.members[l] = append(p.members[l], p.members[s]...)
	p.members[s] = nil
	p.active[s] = false
	p.setActive(l, on)
	p.least[l] = min(p.least[l], p.least[s])
	p.mver[l]++
	if on {
		p.due[l] = budget2 + p.clock
		p.moatQ.push(event{key: p.due[l], tie: p.least[l], id: l, ver: p.mver[l]})
	}
	switch {
	case flipL && flipS:
		p.rekey(p.members[l])
	case flipL:
		p.rekey(p.members[l][:nL])
	case flipS:
		p.rekey(p.members[l][nL:])
	}

	// The merged moat's MST lies within its parts' MSTs plus the edges
	// between them (cycle property under the total order of indices).
	p.pool = mergeSorted3(p.pool[:0], p.mstOf[l], p.mstOf[s], p.cross)
	for _, ei := range p.pool {
		e := p.sorted[ei]
		p.kuf[e.U], p.kuf[e.V] = e.U, e.V
	}
	tree, cost, want := p.mstOf[l][:0], int64(0), len(p.members[l])-1
	for _, ei := range p.pool {
		if len(tree) == want {
			break
		}
		e := p.sorted[ei]
		ru, rv := kufFind(p.kuf, e.U), kufFind(p.kuf, e.V)
		if ru == rv {
			continue
		}
		p.kuf[ru] = rv
		tree = append(tree, ei)
		cost += int64(e.W)
	}
	p.mstOf[l], p.mstOf[s] = tree, nil
	p.mstCost[l] = cost
	p.penSum[l] += p.penSum[s]
	c := int32(p.nT + len(p.kids))
	p.kids = append(p.kids, [2]int32{p.cand[l], p.cand[s]})
	p.cand[l] = c
	if obj := p.objective(l); obj < p.bestObj {
		p.bestObj, p.bestCand = obj, c
	}
}

// objective is moat r's candidate objective: its MST cost plus the
// penalties of every terminal outside it.
func (p *moatPlan) objective(r int32) int64 {
	return p.mstCost[r] + p.totalPen - p.penSum[r]
}

// selectBest finishes the selection with the full terminal set (one
// Kruskal over every edge, skipped when G'_1 is disconnected) and returns
// the winning candidate id.
func (p *moatPlan) selectBest() int32 {
	for t := range p.kuf {
		p.kuf[t] = int32(t)
	}
	cost, joined := int64(0), 0
	for _, e := range p.sorted {
		if joined == p.nT-1 {
			break
		}
		ru, rv := kufFind(p.kuf, e.U), kufFind(p.kuf, e.V)
		if ru == rv {
			continue
		}
		p.kuf[ru] = rv
		cost += int64(e.W)
		joined++
	}
	if joined == p.nT-1 && cost < p.bestObj {
		return fullSet
	}
	return p.bestCand
}

func kufFind(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// mergeSorted3 appends the union of three ascending, disjoint index lists
// to dst in ascending order.
func mergeSorted3(dst, a, b, c []int32) []int32 {
	for len(a)+len(b)+len(c) > 0 {
		// Pick the smallest head; an exhausted list never wins.
		src := &a
		if len(*src) == 0 || (len(b) > 0 && b[0] < (*src)[0]) {
			src = &b
		}
		if len(*src) == 0 || (len(c) > 0 && c[0] < (*src)[0]) {
			src = &c
		}
		dst = append(dst, (*src)[0])
		*src = (*src)[1:]
	}
	return dst
}

// event is one queued growth event: an edge (id = sorted index) or a moat
// (id = root), ordered by key then tie. ver is checked against the
// current version when the event reaches the top; stale events are
// dropped there.
type event struct {
	key int64
	tie int32
	id  int32
	ver uint32
}

// eventHeap is a binary min-heap of events by (key, tie).
type eventHeap struct{ items []event }

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	return a.key < b.key || (a.key == b.key && a.tie < b.tie)
}

func (h *eventHeap) push(ev event) {
	h.items = append(h.items, ev)
	h.up(len(h.items) - 1)
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

func (h *eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}
