package mst

import (
	"sort"

	"dsteiner/internal/graph"
	"dsteiner/internal/pq"
)

// WEdge is an edge of an abstract weighted graph on dense int32 vertex IDs
// (typically seed indices when computing the MST of the distance graph G'₁).
// Weights are 64-bit because distance-graph weights are path distances.
type WEdge struct {
	U, V int32
	W    graph.Dist
}

// Result is a spanning forest: the chosen edges and their total weight. If
// the input is connected it is a spanning tree with n-1 edges.
type Result struct {
	Edges []WEdge
	Total graph.Dist
}

// Prim computes a minimum spanning forest of the n-vertex graph given by
// edges, using a binary-heap "lazy" Prim per component. Deterministic
// tie-breaking: the heap orders by (weight, insertion sequence), and
// adjacency is scanned in input order, so equal-weight choices are stable
// across runs. This mirrors the paper's sequential MST step.
func Prim(n int, edges []WEdge) Result {
	adjHead, adjNext, adjEdge := buildAdj(n, edges)
	inTree := make([]bool, n)
	var res Result
	type heapItem struct {
		edgeIdx int32
		newV    int32
	}
	// One heap shared by all components: worst case every edge is pushed
	// from both endpoints, so sizing it once up front avoids repeated
	// growth on large distance graphs without re-allocating per component.
	capHint := 2 * len(edges)
	if capHint < 16 {
		capHint = 16
	}
	h := pq.NewHeap[heapItem](capHint)
	for start := int32(0); int(start) < n; start++ {
		if inTree[start] {
			continue
		}
		inTree[start] = true
		h.Reset()
		push := func(v int32) {
			for ei := adjHead[v]; ei >= 0; ei = adjNext[ei] {
				e := edges[adjEdge[ei]]
				other := e.U
				if other == v {
					other = e.V
				}
				if !inTree[other] {
					h.Push(heapItem{edgeIdx: adjEdge[ei], newV: other}, uint64(e.W))
				}
			}
		}
		push(start)
		for {
			item, ok := h.Pop()
			if !ok {
				break
			}
			if inTree[item.newV] {
				continue
			}
			inTree[item.newV] = true
			e := edges[item.edgeIdx]
			res.Edges = append(res.Edges, e)
			res.Total += e.W
			push(item.newV)
		}
	}
	return res
}

// Kruskal computes a minimum spanning forest by sorting edges and merging
// with union-find. Ties are broken by (weight, U, V) for determinism.
func Kruskal(n int, edges []WEdge) Result {
	order := make([]int32, len(edges))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := edges[order[a]], edges[order[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		if ea.U != eb.U {
			return ea.U < eb.U
		}
		return ea.V < eb.V
	})
	uf := NewUnionFind(n)
	var res Result
	for _, i := range order {
		e := edges[i]
		if uf.Union(e.U, e.V) {
			res.Edges = append(res.Edges, e)
			res.Total += e.W
		}
	}
	return res
}

// Boruvka computes a minimum spanning forest with Borůvka rounds: each
// component selects its minimum outgoing edge (ties by (W, U, V)), then all
// selected edges are merged. Included for the MST ablation (docs/
// ARCHITECTURE.md, "Reproduction substitutions") of the
// paper's "sequential MST is sufficient" argument — Borůvka is the classic
// parallelizable MST whose available parallelism collapses as components
// merge (Bader & Cong [18]).
//
// Rounds is returned for the ablation (number of Borůvka iterations).
func Boruvka(n int, edges []WEdge) (Result, int) {
	uf := NewUnionFind(n)
	var res Result
	rounds := 0
	for {
		// best[c] = index of minimum outgoing edge of component c.
		best := map[int32]int32{}
		better := func(a, b int32) bool {
			ea, eb := edges[a], edges[b]
			if ea.W != eb.W {
				return ea.W < eb.W
			}
			if ea.U != eb.U {
				return ea.U < eb.U
			}
			return ea.V < eb.V
		}
		for i := range edges {
			e := edges[i]
			cu, cv := uf.Find(e.U), uf.Find(e.V)
			if cu == cv {
				continue
			}
			for _, c := range [2]int32{cu, cv} {
				if cur, ok := best[c]; !ok || better(int32(i), cur) {
					best[c] = int32(i)
				}
			}
		}
		if len(best) == 0 {
			return res, rounds
		}
		rounds++
		merged := false
		// Deterministic merge order: by component ID.
		comps := make([]int32, 0, len(best))
		for c := range best {
			comps = append(comps, c)
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
		for _, c := range comps {
			e := edges[best[c]]
			if uf.Union(e.U, e.V) {
				res.Edges = append(res.Edges, e)
				res.Total += e.W
				merged = true
			}
		}
		if !merged {
			return res, rounds
		}
	}
}

// buildAdj builds an intrusive linked-list adjacency over the edge list:
// adjHead[v] is the first adjacency slot of v, adjNext chains slots, and
// adjEdge maps slots to edge indices. Two slots exist per edge.
func buildAdj(n int, edges []WEdge) (adjHead, adjNext, adjEdge []int32) {
	adjHead = make([]int32, n)
	for i := range adjHead {
		adjHead[i] = -1
	}
	adjNext = make([]int32, 0, 2*len(edges))
	adjEdge = make([]int32, 0, 2*len(edges))
	add := func(v int32, ei int32) {
		slot := int32(len(adjNext))
		adjNext = append(adjNext, adjHead[v])
		adjEdge = append(adjEdge, ei)
		adjHead[v] = slot
	}
	for i, e := range edges {
		add(e.U, int32(i))
		add(e.V, int32(i))
	}
	return adjHead, adjNext, adjEdge
}

// GraphMST computes the minimum spanning forest of a background graph
// (used by the WWW baseline and by tests).
func GraphMST(g *graph.Graph) Result {
	edges := make([]WEdge, 0, g.NumEdges())
	for _, e := range g.Edges() {
		edges = append(edges, WEdge{U: int32(e.U), V: int32(e.V), W: graph.Dist(e.W)})
	}
	return Kruskal(g.NumVertices(), edges)
}
