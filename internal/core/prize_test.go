package core

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
	"dsteiner/internal/mst"
)

// prizePlanRef is the original moat-growing plan, kept verbatim as the
// oracle prizePlan must match keep vector for keep vector: every event
// rescans all edges for the earliest one, and selection runs one Kruskal
// over all edges per laminar candidate.
func prizePlanRef(nT int, edges []mst.WEdge, penalty []graph.Dist) []bool {
	keep := make([]bool, nT)
	if nT == 0 {
		return keep
	}

	// Moat state. All dual quantities are doubled (suffix 2) so event
	// times with closing speed 2 stay integral; candidate event times are
	// compared as exact rationals num/den with den in {1, 2}.
	parent := make([]int32, nT)
	budget2 := make([]int64, nT) // remaining pooled budget of the root's moat
	active := make([]bool, nT)
	members := make([][]int32, nT)
	y2 := make([]int64, nT) // total dual accumulated around each terminal
	activeCount := 0
	for i := 0; i < nT; i++ {
		parent[i] = int32(i)
		budget2[i] = 2 * int64(penalty[i])
		active[i] = budget2[i] > 0
		if active[i] {
			activeCount++
		}
		members[i] = []int32{int32(i)}
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	candidates := make([][]int32, 0, 2*nT+1)
	for i := 0; i < nT; i++ {
		candidates = append(candidates, members[i])
	}

	sorted := make([]mst.WEdge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.W != b.W {
			return a.W < b.W
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})

	for activeCount >= 2 {
		// Earliest event: an inter-moat edge going tight, or an active
		// moat exhausting its budget. First strictly-smaller time in
		// enumeration order wins, keeping the run deterministic.
		const none = -1
		bestNum, bestDen := int64(0), int64(0)
		bestEdge, bestComp := none, int32(none)
		better := func(num, den int64) bool {
			return bestDen == 0 || num*bestDen < bestNum*den
		}
		for ei, e := range sorted {
			ru, rv := find(e.U), find(e.V)
			if ru == rv {
				continue
			}
			speed := int64(0)
			if active[ru] {
				speed++
			}
			if active[rv] {
				speed++
			}
			if speed == 0 {
				continue
			}
			slack2 := 2*int64(e.W) - y2[e.U] - y2[e.V]
			if slack2 < 0 {
				slack2 = 0
			}
			if better(slack2, speed) {
				bestNum, bestDen, bestEdge, bestComp = slack2, speed, ei, none
			}
		}
		seen := make(map[int32]bool, activeCount)
		for i := int32(0); int(i) < nT; i++ {
			r := find(i)
			if !active[r] || seen[r] {
				continue
			}
			seen[r] = true
			if better(budget2[r], 2) {
				bestNum, bestDen, bestEdge, bestComp = budget2[r], 2, none, r
			}
		}
		if bestDen == 0 {
			break
		}

		// Advance every active moat to the event: dy2 = 2*num/den is
		// integral because den is 1 or 2.
		dy2 := 2 * bestNum / bestDen
		if dy2 > 0 {
			for v := int32(0); int(v) < nT; v++ {
				if active[find(v)] {
					y2[v] += dy2
				}
			}
			for r := range seen {
				budget2[r] -= dy2
			}
		}

		if bestEdge != none {
			e := sorted[bestEdge]
			ru, rv := find(e.U), find(e.V)
			wasActive := 0
			if active[ru] {
				wasActive++
			}
			if active[rv] {
				wasActive++
			}
			parent[rv] = ru
			budget2[ru] += budget2[rv]
			merged := make([]int32, 0, len(members[ru])+len(members[rv]))
			merged = append(append(merged, members[ru]...), members[rv]...)
			sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
			members[ru] = merged
			active[ru] = budget2[ru] > 0
			activeCount -= wasActive
			if active[ru] {
				activeCount++
			}
			candidates = append(candidates, merged)
		} else {
			active[bestComp] = false
			budget2[bestComp] = 0
			activeCount--
		}
	}

	full := make([]int32, nT)
	for i := range full {
		full[i] = int32(i)
	}
	candidates = append(candidates, full)

	// Selection: exact objective per candidate subset — restricted-MST
	// cost plus the penalties of everything outside it. Subsets the
	// distance graph cannot span are infeasible and skipped.
	totalPen := int64(0)
	for _, p := range penalty {
		totalPen += int64(p)
	}
	inK := make([]bool, nT)
	uf := make([]int32, nT)
	var bestSet []int32
	bestObj := int64(0)
	for _, cand := range candidates {
		cost, ok := restrictedMSTCost(sorted, cand, inK, uf)
		if !ok {
			continue
		}
		pen := totalPen
		for _, i := range cand {
			pen -= int64(penalty[i])
		}
		obj := cost + pen
		if bestSet == nil || obj < bestObj {
			bestObj, bestSet = obj, cand
		}
	}
	for _, i := range bestSet {
		keep[i] = true
	}
	return keep
}

// restrictedMSTCost runs Kruskal over the weight-sorted distance-graph
// edges restricted to the candidate subset. Reports the spanning cost, or
// ok=false when the subset is not connected in the distance graph. inK and
// uf are caller-provided scratch sized to the full terminal count.
func restrictedMSTCost(sorted []mst.WEdge, cand []int32, inK []bool, uf []int32) (int64, bool) {
	if len(cand) == 1 {
		return 0, true
	}
	for i := range inK {
		inK[i] = false
	}
	for _, i := range cand {
		inK[i] = true
		uf[i] = i
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	cost, joined := int64(0), 0
	for _, e := range sorted {
		if !inK[e.U] || !inK[e.V] {
			continue
		}
		ru, rv := find(e.U), find(e.V)
		if ru == rv {
			continue
		}
		uf[ru] = rv
		cost += int64(e.W)
		joined++
		if joined == len(cand)-1 {
			return cost, true
		}
	}
	return 0, false
}

// randomPrizeInstance draws a small distance graph covering the shapes the
// plan must agree on: 1 to 40 terminals, heavily tied or spread weights
// and penalties, zero penalties (terminals inactive from the start), and
// tables split into several components or with isolated terminals.
func randomPrizeInstance(rng *rand.Rand) (int, []mst.WEdge, []graph.Dist) {
	nT := 1 + rng.Intn(40)
	maxW := []int{1, 3, 8, 1000}[rng.Intn(4)]
	maxPen := []int{0, 2, 10, 300, 5000}[rng.Intn(5)]
	zeroShare := rng.Float64() / 2
	comps := 1 + rng.Intn(3)
	density := rng.Float64()
	compOf := make([]int, nT)
	isolated := make([]bool, nT)
	for t := range compOf {
		compOf[t] = rng.Intn(comps)
		isolated[t] = rng.Intn(10) == 0
	}
	var edges []mst.WEdge
	for u := 0; u < nT; u++ {
		for v := u + 1; v < nT; v++ {
			if compOf[u] != compOf[v] || isolated[u] || isolated[v] || rng.Float64() >= density {
				continue
			}
			edges = append(edges, mst.WEdge{U: int32(u), V: int32(v), W: graph.Dist(1 + rng.Intn(maxW))})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	penalty := make([]graph.Dist, nT)
	for t := range penalty {
		if rng.Float64() >= zeroShare {
			penalty[t] = graph.Dist(rng.Intn(maxPen + 1))
		}
	}
	return nT, edges, penalty
}

// TestPrizePlanMatchesReference is the differential property test of the
// event-driven plan: on 10,000 seeded random distance graphs it returns
// exactly the reference plan's keep vector.
func TestPrizePlanMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10000; seed++ {
		nT, edges, penalty := randomPrizeInstance(rand.New(rand.NewSource(seed)))
		want := prizePlanRef(nT, edges, penalty)
		if got := prizePlan(nT, edges, penalty); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (nT=%d, %d edges, penalties %v):\nevent     %v\nreference %v",
				seed, nT, len(edges), penalty, got, want)
		}
	}
}

// lvjTable caches lvjPrizeTable's table for the tests and benchmarks.
var lvjTable struct {
	once    sync.Once
	edges   []mst.WEdge
	penalty []graph.Dist
	err     error
}

// lvjPrizeTable is a deterministic k=512 prize table: the distance graph
// G'_1 a 1-rank engine builds for 512 terminals of the LVJ stand-in's
// largest component, with penalties uniform in [1, 4000] — the shape of
// the service benchmark's prize queries. The slices are shared; callers
// must not modify them.
func lvjPrizeTable(tb testing.TB) ([]mst.WEdge, []graph.Dist) {
	tb.Helper()
	lvjTable.once.Do(func() {
		lvjTable.edges, lvjTable.penalty, lvjTable.err = buildLVJPrizeTable()
	})
	if lvjTable.err != nil {
		tb.Fatal(lvjTable.err)
	}
	return lvjTable.edges, lvjTable.penalty
}

func buildLVJPrizeTable() ([]mst.WEdge, []graph.Dist, error) {
	const k, maxPenalty = 512, 4000
	g, err := gen.MustDataset("LVJ").Config.Build()
	if err != nil {
		return nil, nil, err
	}
	comp := graph.LargestComponentVertices(g)
	rng := rand.New(rand.NewSource(15))
	seeds := make([]graph.VID, k)
	penalties := make([]graph.Dist, k)
	for i, j := range rng.Perm(len(comp))[:k] {
		seeds[i] = comp[j]
		penalties[i] = graph.Dist(1 + rng.Intn(maxPenalty))
	}
	e, err := NewEngine(g, Default(1))
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	e.mu.Lock()
	defer e.mu.Unlock()
	cq, err := canonSpec(g.NumVertices(), QuerySpec{Mode: ModePrize, Seeds: seeds, Penalties: penalties}, e.seen)
	if err != nil {
		return nil, nil, err
	}
	env := e.newSolveEnv(cq, &Result{Seeds: cq.dedup, Mode: ModePrize})
	e.comm.Run(env.rankBody)
	if env.err != nil {
		return nil, nil, env.err
	}
	return env.dist.edges, cq.penalty, nil
}

// TestPrizePlanMatchesReferenceLVJ checks the event-driven plan against
// the reference on a real k=512 table.
func TestPrizePlanMatchesReferenceLVJ(t *testing.T) {
	edges, penalty := lvjPrizeTable(t)
	if len(edges) < 2000 {
		t.Fatalf("LVJ k=512 table has only %d edges", len(edges))
	}
	want := prizePlanRef(len(penalty), edges, penalty)
	got := prizePlan(len(penalty), edges, penalty)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("keep vectors differ on the LVJ k=512 table (%d edges)", len(edges))
	}
	skipped := 0
	for _, k := range got {
		if !k {
			skipped++
		}
	}
	t.Logf("LVJ k=512: %d distance-graph edges, %d terminals skipped", len(edges), skipped)
}

// BenchmarkPrizePlan times the event-driven plan against the reference on
// the LVJ k=512 table. CI gates their ratio, which cancels runner speed.
func BenchmarkPrizePlan(b *testing.B) {
	edges, penalty := lvjPrizeTable(b)
	for _, c := range []struct {
		name string
		plan func(int, []mst.WEdge, []graph.Dist) []bool
	}{
		{"event", prizePlan},
		{"reference", prizePlanRef},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.plan(len(penalty), edges, penalty)
			}
		})
	}
}
