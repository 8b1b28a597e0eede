package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	"dsteiner/internal/voronoi"
)

// ghostPushCount is the phase-2 message count the ghost push must produce,
// computed from the global CSR and the sequential Voronoi oracle alone:
// the number of (reached v, rank owner(u)) pairs with u < v adjacent to v
// and owner(u) != owner(v).
func ghostPushCount(g *graph.Graph, part partition.Partition, terminals []graph.VID) int64 {
	st := voronoi.Sequential(g, terminals)
	var n int64
	ranks := map[int]bool{}
	for i := 0; i < g.NumVertices(); i++ {
		v := graph.VID(i)
		if st.Src(v) == graph.NilVID {
			continue
		}
		clear(ranks)
		adj, _ := g.Adj(v)
		for _, u := range adj {
			if u < v && part.Owner(u) != part.Owner(v) {
				ranks[part.Owner(u)] = true
			}
		}
		n += int64(len(ranks))
	}
	return n
}

// specTerminals is the terminal union of a query.
func specTerminals(spec QuerySpec) []graph.VID {
	ts := append([]graph.VID(nil), spec.Seeds...)
	for _, grp := range spec.Groups {
		ts = append(ts, grp...)
	}
	return ts
}

// ghostCase is one graph with the queries run on it.
type ghostCase struct {
	name  string
	g     *graph.Graph
	specs []QuerySpec
}

// ghostCases builds tree and prize queries on a random graph and forest
// queries (one group per cluster, so always feasible) on a clustered one.
func ghostCases(seed int64) []ghostCase {
	rng := rand.New(rand.NewSource(seed))
	g := engineTestGraph(seed, 150+rng.Intn(100))
	var specs []QuerySpec
	for _, k := range []int{2, 7, 16} {
		specs = append(specs, TreeSpec(pickEngineSeeds(rng, g.NumVertices(), k)))
	}
	prize := pickEngineSeeds(rng, g.NumVertices(), 8)
	penalties := make([]graph.Dist, len(prize))
	for i := range penalties {
		penalties[i] = graph.Dist(rng.Intn(120))
	}
	specs = append(specs, QuerySpec{Mode: ModePrize, Seeds: prize, Penalties: penalties})

	cg := clusteredTestGraph(seed+1, 3, 40)
	forest := []QuerySpec{{Mode: ModeForest, Groups: pickClusterGroups(rng, 40, []int{3, 2, 4})}}
	return []ghostCase{{"random", g, specs}, {"clustered", cg, forest}}
}

// assertSameAnswer compares every solver output of two Results, the
// forest and prize fields included.
func assertSameAnswer(t *testing.T, label string, got, want *Result) {
	t.Helper()
	assertResultsEquivalent(t, label, got, want)
	if !reflect.DeepEqual(got.GroupTrees, want.GroupTrees) || !reflect.DeepEqual(got.Skipped, want.Skipped) ||
		got.Objective != want.Objective {
		t.Fatalf("%s: forest/prize outputs differ: groups %v/%v skipped %v/%v objective %d/%d",
			label, got.GroupTrees, want.GroupTrees, got.Skipped, want.Skipped, got.Objective, want.Objective)
	}
}

// TestGhostPushTrafficAndIdentity pins phase 2's exact message count — one
// ghost push per (reached boundary vertex, neighbour rank) pair, as counted
// independently from the global CSR — and checks that every partition,
// async/BSP and rank-count cell answers tree, forest and prize queries
// exactly like a 1-rank engine, on loopback and over TCP. The TCP cell
// pinned to wire v1 shows the push needs no versioned frame.
func TestGhostPushTrafficAndIdentity(t *testing.T) {
	type layout struct {
		name      string
		kind      PartitionKind
		delegates int
	}
	layouts := []layout{
		{"block", PartitionBlock, 0},
		{"hash", PartitionHash, 0},
		{"arcblock", PartitionArcBlock, 0},
		{"arcblock+delegates", PartitionArcBlock, 8},
	}
	for _, seed := range []int64{301, 302} {
		cases := ghostCases(seed)
		// The 1-rank reference answers and sends nothing in phase 2.
		want := map[string]*Result{}
		for _, c := range cases {
			ref, err := NewEngine(c.g, Default(1))
			if err != nil {
				t.Fatal(err)
			}
			for qi, spec := range c.specs {
				res, err := ref.SolveSpec(spec)
				if err != nil {
					t.Fatalf("seed %d %s q%d: 1-rank: %v", seed, c.name, qi, err)
				}
				if sent := res.Phase(PhaseLocalMinEdge).Sent; sent != 0 {
					t.Fatalf("seed %d %s q%d: 1-rank phase 2 sent %d, want 0", seed, c.name, qi, sent)
				}
				want[fmt.Sprintf("%s/%d", c.name, qi)] = res
			}
			ref.Close()
		}
		check := func(label string, e *Engine, part partition.Partition, c ghostCase) {
			t.Helper()
			for qi, spec := range c.specs {
				l := fmt.Sprintf("seed %d %s %s q%d (%s)", seed, label, c.name, qi, spec.Mode)
				got, err := e.SolveSpec(spec)
				if err != nil {
					t.Fatalf("%s: %v", l, err)
				}
				assertSameAnswer(t, l, got, want[fmt.Sprintf("%s/%d", c.name, qi)])
				wantSent := ghostPushCount(c.g, part, specTerminals(spec))
				if sent := got.Phase(PhaseLocalMinEdge).Sent; sent != wantSent {
					t.Fatalf("%s: phase 2 sent %d, want %d", l, sent, wantSent)
				}
			}
		}
		for _, lay := range layouts {
			for _, bsp := range []bool{false, true} {
				for _, ranks := range []int{1, 3, 4, 5} {
					opts := Default(ranks)
					opts.Partition = lay.kind
					opts.DelegateThreshold = lay.delegates
					opts.BSP = bsp
					label := fmt.Sprintf("%s bsp=%v P=%d", lay.name, bsp, ranks)
					for _, c := range cases {
						e, err := NewEngine(c.g, opts)
						if err != nil {
							t.Fatal(err)
						}
						check(label, e, e.comm.Partition(), c)
						e.Close()
					}
				}
			}
		}

		// TCP: the coordinator cuts the same partition as a loopback engine
		// with the same options, which supplies the independent owner map.
		for _, pin := range []uint32{0, 1} {
			opts := Default(4)
			opts.DelegateThreshold = 8
			opts.MaxWireVersion = pin
			for _, c := range cases {
				if pin == 1 && c.specs[0].Mode == ModeForest {
					continue // forest and prize queries need wire v3
				}
				if pin == 1 {
					c.specs = c.specs[:3] // the tree queries
				}
				loop, err := NewEngine(c.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				tcp, wait := startTCPEngine(t, c.g, opts, 2)
				check(fmt.Sprintf("tcp wire<=%d", pin), tcp, loop.comm.Partition(), c)
				tcp.Close()
				wait()
				loop.Close()
			}
		}
	}
}
