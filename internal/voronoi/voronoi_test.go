package voronoi

import (
	"math/rand"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/sssp"
)

func randomConnected(seed int64, n int, maxW uint32) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VID(rng.Intn(v)), graph.VID(v), uint32(rng.Intn(int(maxW)))+1)
	}
	for i := 0; i < 2*n; i++ {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)), uint32(rng.Intn(int(maxW)))+1)
	}
	g, _ := b.Build()
	return g
}

func pickSeeds(rng *rand.Rand, n, k int) []graph.VID {
	seen := map[graph.VID]bool{}
	seeds := make([]graph.VID, 0, k)
	for len(seeds) < k {
		s := graph.VID(rng.Intn(n))
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	return seeds
}

func newComm(t testing.TB, n, ranks int, q rt.QueueKind) *rt.Comm {
	t.Helper()
	part, err := partition.NewBlock(n, ranks)
	if err != nil {
		t.Fatal(err)
	}
	return rt.MustNew(rt.Config{Ranks: ranks, Queue: q}, part)
}

func TestSequentialMatchesSSSPOracle(t *testing.T) {
	g := randomConnected(3, 300, 40)
	seeds := []graph.VID{7, 100, 250}
	st := Sequential(g, seeds)
	oracle := sssp.MultiSource(g, seeds)
	for v := 0; v < g.NumVertices(); v++ {
		if st.Dist(graph.VID(v)) != oracle.Dist[v] {
			t.Fatalf("Dist[%d] = %d, oracle %d", v, st.Dist(graph.VID(v)), oracle.Dist[v])
		}
		if st.Src(graph.VID(v)) != oracle.Src[v] {
			t.Fatalf("Src[%d] = %d, oracle %d", v, st.Src(graph.VID(v)), oracle.Src[v])
		}
	}
}

func TestDistributedMatchesSequential(t *testing.T) {
	g := randomConnected(5, 400, 30)
	rng := rand.New(rand.NewSource(6))
	seeds := pickSeeds(rng, g.NumVertices(), 8)
	want := Sequential(g, seeds)
	for _, ranks := range []int{1, 2, 4, 8} {
		for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority, rt.QueueBucket} {
			c := newComm(t, g.NumVertices(), ranks, q)
			got := Compute(c, g, seeds)
			for v := 0; v < g.NumVertices(); v++ {
				if got.Dist(graph.VID(v)) != want.Dist(graph.VID(v)) || got.Src(graph.VID(v)) != want.Src(graph.VID(v)) || got.Pred(graph.VID(v)) != want.Pred(graph.VID(v)) {
					t.Fatalf("ranks=%d q=%v vertex %d: got (%d,%d,%d), want (%d,%d,%d)",
						ranks, q, v,
						got.Dist(graph.VID(v)), got.Src(graph.VID(v)), got.Pred(graph.VID(v)),
						want.Dist(graph.VID(v)), want.Src(graph.VID(v)), want.Pred(graph.VID(v)))
				}
			}
		}
	}
}

func TestSeedStateAfterConvergence(t *testing.T) {
	g := randomConnected(9, 100, 10)
	seeds := []graph.VID{3, 42}
	c := newComm(t, 100, 2, rt.QueuePriority)
	st := Compute(c, g, seeds)
	for _, s := range seeds {
		if st.Dist(s) != 0 || st.Src(s) != s || st.Pred(s) != s {
			t.Fatalf("seed %d state (%d,%d,%d)", s, st.Dist(s), st.Src(s), st.Pred(s))
		}
	}
}

func TestCellsPartitionTheComponent(t *testing.T) {
	g := randomConnected(11, 200, 20)
	seeds := []graph.VID{0, 50, 150}
	c := newComm(t, 200, 4, rt.QueuePriority)
	st := Compute(c, g, seeds)
	isSeed := map[graph.VID]bool{0: true, 50: true, 150: true}
	for v := 0; v < g.NumVertices(); v++ {
		if st.Src(graph.VID(v)) == graph.NilVID {
			t.Fatalf("vertex %d unreached in connected graph", v)
		}
		if !isSeed[st.Src(graph.VID(v))] {
			t.Fatalf("vertex %d assigned to non-seed %d", v, st.Src(graph.VID(v)))
		}
	}
}

func TestPredecessorChainsLeadToCellSeed(t *testing.T) {
	g := randomConnected(13, 300, 25)
	seeds := []graph.VID{10, 200}
	c := newComm(t, 300, 4, rt.QueuePriority)
	st := Compute(c, g, seeds)
	for v := 0; v < g.NumVertices(); v++ {
		// Walk predecessors; must reach src(v) within n hops with
		// monotonically decreasing distance, staying inside the cell.
		cur := graph.VID(v)
		for hops := 0; cur != st.Src(cur); hops++ {
			if hops > g.NumVertices() {
				t.Fatalf("pred cycle starting at %d", v)
			}
			p := st.Pred(cur)
			w, ok := g.HasEdge(p, cur)
			if !ok {
				t.Fatalf("pred edge (%d,%d) not in graph", p, cur)
			}
			if st.Src(p) != st.Src(cur) {
				t.Fatalf("pred %d of %d in different cell", p, cur)
			}
			if st.Dist(p)+graph.Dist(w) != st.Dist(cur) {
				t.Fatalf("pred distance inconsistent at %d", cur)
			}
			cur = p
		}
	}
}

func TestDisconnectedVerticesStayUnreached(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1) // separate component, no seeds
	g, _ := b.Build()
	c := newComm(t, 6, 2, rt.QueuePriority)
	st := Compute(c, g, []graph.VID{0})
	for _, v := range []graph.VID{3, 4, 5} {
		if st.Src(graph.VID(v)) != graph.NilVID || st.Dist(graph.VID(v)) != graph.InfDist {
			t.Fatalf("vertex %d should be unreached, got src=%d dist=%d", v, st.Src(graph.VID(v)), st.Dist(graph.VID(v)))
		}
	}
}

func TestDelegatesProduceSameFixedPoint(t *testing.T) {
	// Star-heavy graph: hub 0 connected to everything plus a ring.
	n := 120
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, graph.VID(v), uint32(v%17)+1)
		b.AddEdge(graph.VID(v), graph.VID((v%(n-1))+1), uint32(v%5)+1)
	}
	g, _ := b.Build()
	seeds := []graph.VID{1, 60, 110}
	want := Sequential(g, seeds)
	for _, ranks := range []int{2, 4} {
		base, _ := partition.NewBlock(n, ranks)
		part := partition.WithDelegates(base, g, 50) // hub 0 becomes a delegate
		if !part.IsDelegate(0) {
			t.Fatal("hub not delegated")
		}
		c := rt.MustNew(rt.Config{Ranks: ranks, Queue: rt.QueuePriority}, part)
		got := Compute(c, g, seeds)
		for v := 0; v < n; v++ {
			if got.Dist(graph.VID(v)) != want.Dist(graph.VID(v)) || got.Src(graph.VID(v)) != want.Src(graph.VID(v)) {
				t.Fatalf("ranks=%d vertex %d: got (%d,%d), want (%d,%d)",
					ranks, v, got.Dist(graph.VID(v)), got.Src(graph.VID(v)), want.Dist(graph.VID(v)), want.Src(graph.VID(v)))
			}
		}
	}
}

// TestShardedMatchesGlobalReference pins the shard refactor's core claim:
// the sharded traversal (rank-local slabs + materialized delegate stripes)
// reaches the identical Voronoi fixed point as the retained global-CSR
// reference, for every partition kind, with and without delegates, async
// and BSP.
func TestShardedMatchesGlobalReference(t *testing.T) {
	g := randomConnected(77, 300, 25)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(78))
	seeds := pickSeeds(rng, n, 5)

	makePart := func(kind string, ranks, threshold int) partition.Partition {
		var base partition.Partition
		var err error
		switch kind {
		case "hash":
			base, err = partition.NewHash(n, ranks)
		case "arcblock":
			base, err = partition.NewArcBlock(g, ranks)
		default:
			base, err = partition.NewBlock(n, ranks)
		}
		if err != nil {
			t.Fatal(err)
		}
		if threshold > 0 {
			return partition.WithDelegates(base, g, threshold)
		}
		return base
	}

	for _, kind := range []string{"block", "hash", "arcblock"} {
		for _, threshold := range []int{0, 6} {
			for _, bsp := range []bool{false, true} {
				for _, ranks := range []int{1, 4} {
					// Global reference run.
					cg := rt.MustNew(rt.Config{Ranks: ranks, Queue: rt.QueuePriority}, makePart(kind, ranks, threshold))
					want := NewState(n)
					cg.Run(func(r *rt.Rank) {
						if bsp {
							RunRankGlobalBSP(r, g, seeds, want)
						} else {
							RunRankGlobal(r, g, seeds, want)
						}
					})
					// Sharded run: rank-local slabs, collected afterwards.
					cs := rt.MustNew(rt.Config{Ranks: ranks, Queue: rt.QueuePriority}, makePart(kind, ranks, threshold))
					cs.EnsureShards(g)
					slabs := EnsureSlabs(cs, g)
					cs.Run(func(r *rt.Rank) {
						if bsp {
							RunRankBSP(r, seeds)
						} else {
							RunRank(r, seeds)
						}
					})
					got := Collect(slabs, n)
					for v := 0; v < n; v++ {
						gs, gp, gd := got.Get(graph.VID(v))
						ws, wp, wd := want.Get(graph.VID(v))
						if gs != ws || gp != wp || gd != wd {
							t.Fatalf("%s thr=%d bsp=%v ranks=%d vertex %d: sharded (%d,%d,%d), global (%d,%d,%d)",
								kind, threshold, bsp, ranks, v, gs, gp, gd, ws, wp, wd)
						}
					}
				}
			}
		}
	}
}

func TestBSPMatchesAsync(t *testing.T) {
	g := randomConnected(21, 250, 15)
	seeds := []graph.VID{5, 99, 180}
	want := Sequential(g, seeds)
	part, _ := partition.NewBlock(250, 4)
	c := rt.MustNew(rt.Config{Ranks: 4, Queue: rt.QueueFIFO}, part)
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	c.Run(func(r *rt.Rank) {
		// Run the same visitor logic under BSP via RunRank's building
		// blocks: reuse Compute-style traversal but in BSP mode through
		// a manual traversal.
		RunRankBSP(r, seeds)
	})
	st := Collect(slabs, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if st.Dist(graph.VID(v)) != want.Dist(graph.VID(v)) || st.Src(graph.VID(v)) != want.Src(graph.VID(v)) {
			t.Fatalf("BSP vertex %d: got (%d,%d), want (%d,%d)",
				v, st.Dist(graph.VID(v)), st.Src(graph.VID(v)), want.Dist(graph.VID(v)), want.Src(graph.VID(v)))
		}
	}
}

func TestStateMemoryBytes(t *testing.T) {
	st := NewState(100)
	if got := st.MemoryBytes(); got != 100*(4+4+8+8) {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

func TestStateResetInvalidatesInO1(t *testing.T) {
	st := NewState(10)
	st.Set(3, 1, 2, 7)
	if !st.Reached(3) || st.Src(3) != 1 || st.Pred(3) != 2 || st.Dist(3) != 7 {
		t.Fatalf("entry not readable: %v %v %v", st.Src(3), st.Pred(3), st.Dist(3))
	}
	st.Reset()
	if st.Reached(3) {
		t.Fatal("entry survived Reset")
	}
	if s, p, d := st.Get(3); s != graph.NilVID || p != graph.NilVID || d != graph.InfDist {
		t.Fatalf("stale entry visible after Reset: (%d,%d,%d)", s, p, d)
	}
}

func TestStateReuseAcrossQueriesMatchesFresh(t *testing.T) {
	// One pooled slab set driven through several different seed sets must
	// produce exactly the fixed point fresh slabs produce: stale entries
	// from earlier epochs must be invisible.
	g := randomConnected(17, 300, 25)
	rng := rand.New(rand.NewSource(18))
	part, _ := partition.NewBlock(300, 4)
	c := rt.MustNew(rt.Config{Ranks: 4, Queue: rt.QueuePriority}, part)
	c.EnsureShards(g)
	slabs := EnsureSlabs(c, g)
	for q := 0; q < 5; q++ {
		seeds := pickSeeds(rng, g.NumVertices(), 2+q)
		c.ResetStateSlabs()
		c.Run(func(r *rt.Rank) {
			RunRank(r, seeds)
		})
		pooled := Collect(slabs, g.NumVertices())
		fresh := Compute(newComm(t, 300, 4, rt.QueuePriority), g, seeds)
		for v := 0; v < g.NumVertices(); v++ {
			gs, gp, gd := pooled.Get(graph.VID(v))
			ws, wp, wd := fresh.Get(graph.VID(v))
			if gs != ws || gp != wp || gd != wd {
				t.Fatalf("query %d vertex %d: pooled (%d,%d,%d), fresh (%d,%d,%d)",
					q, v, gs, gp, gd, ws, wp, wd)
			}
		}
	}
}

func TestWorkCountersReported(t *testing.T) {
	g := randomConnected(31, 150, 10)
	part, _ := partition.NewBlock(150, 2)
	c := rt.MustNew(rt.Config{Ranks: 2, Queue: rt.QueuePriority}, part)
	c.EnsureShards(g)
	EnsureSlabs(c, g)
	var totalProcessed int64
	done := make(chan int64, 2)
	c.Run(func(r *rt.Rank) {
		s := RunRank(r, []graph.VID{0, 100})
		done <- s.Processed
	})
	close(done)
	for p := range done {
		totalProcessed += p
	}
	if got := c.Stats().Processed; got != totalProcessed || got == 0 {
		t.Fatalf("per-rank sum %d != comm counter %d", totalProcessed, got)
	}
}

// TestPropertyDeterministicAcrossRanksQueuesAndShuffles checks the flood
// against the independent Sequential oracle in every runtime mode
// combination: queue discipline {fifo, priority, bucket} x {async, BSP} x
// delegates {off, on} x ranks {1, 3, 4, 5}, each on several random graphs
// with shuffled delivery and a random batch size. The sharded-vs-global
// and TCP-vs-loopback suites compare two runs of the shared traversal
// skeleton with each other; this one compares every mode of it with a
// separately written Dijkstra sweep, so a change to the skeleton cannot
// move both sides of an equivalence together unnoticed.
func TestPropertyDeterministicAcrossRanksQueuesAndShuffles(t *testing.T) {
	graphs := 3
	if testing.Short() {
		graphs = 1
	}
	var delegated, runs int64
	for _, q := range []rt.QueueKind{rt.QueueFIFO, rt.QueuePriority, rt.QueueBucket} {
		for _, bsp := range []bool{false, true} {
			for _, delegates := range []bool{false, true} {
				for _, ranks := range []int{1, 3, 4, 5} {
					for gi := 0; gi < graphs; gi++ {
						runs++
						seed := runs*7919 + 7 // a fresh random graph per run
						rng := rand.New(rand.NewSource(seed))
						n := 60 + rng.Intn(140)
						g := randomConnected(seed, n, 20)
						seeds := pickSeeds(rng, n, 2+rng.Intn(6))
						var part partition.Partition
						part, _ = partition.NewBlock(n, ranks)
						if delegates {
							// Average degree is ~6, so threshold 8
							// delegates the upper tail of hubs.
							part = partition.WithDelegates(part, g, 8)
							if dc, ok := part.(interface{ NumDelegates() int }); ok {
								delegated += int64(dc.NumDelegates())
							}
						}
						c := rt.MustNew(rt.Config{
							Ranks: ranks, Queue: q, BucketDelta: 64,
							ShuffleDelivery: true, ShuffleSeed: seed * 31,
							BatchSize: 1 + rng.Intn(64),
						}, part)
						c.EnsureShards(g)
						slabs := EnsureSlabs(c, g)
						c.Run(func(r *rt.Rank) {
							if bsp {
								RunRankBSP(r, seeds)
							} else {
								RunRank(r, seeds)
							}
						})
						got := Collect(slabs, n)
						want := Sequential(g, seeds)
						for v := 0; v < n; v++ {
							gs, gp, gd := got.Get(graph.VID(v))
							ws, wp, wd := want.Get(graph.VID(v))
							if gs != ws || gp != wp || gd != wd {
								t.Fatalf("q=%v bsp=%v delegates=%v ranks=%d graph %d vertex %d: got (%d,%d,%d), oracle (%d,%d,%d)",
									q, bsp, delegates, ranks, gi, v, gs, gp, gd, ws, wp, wd)
							}
						}
					}
				}
			}
		}
	}
	if delegated == 0 {
		t.Fatal("no vertex was delegated: the delegate cells tested plain partitions only")
	}
}
