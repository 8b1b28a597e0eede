package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"dsteiner/internal/core"
	"dsteiner/internal/gen"
	"dsteiner/internal/graph"
)

// Query sizes and pool sizes of the three workloads.
const (
	treeK       = 16  // terminals per tree query
	prizeK      = 512 // terminals per prize query
	numTreeSets = 64  // engine-tree / tcp-tree cycle (and the ladder's sets)
	numHotSets  = 32  // svc-mixed hot pool, pre-solved during warm-up
	maxPenalty  = 4000
)

// class is a svc-mixed query class.
type class int

const (
	classTree  class = iota // a tree set from the fixed cycle (engine-tree, tcp-tree)
	classHot                // svc-mixed: a pre-solved tree set, answered by the cache
	classFresh              // svc-mixed: a never-seen tree set
	classPrize              // svc-mixed: a never-seen prize query
)

func (c class) String() string {
	return [...]string{"tree", "hot", "fresh", "prize"}[c]
}

// query is one request as the benchmark sends it.
type query struct {
	class class
	spec  core.QuerySpec
}

// inputs is everything one run sends to the program, all derived from the
// workload seed. The program receives the graph only as serialized bytes.
type inputs struct {
	seed       int64
	graphBytes []byte
	n          int
	comp       []graph.VID    // the graph's largest component, where terminals are drawn
	treeSets   [][]graph.VID  // the fixed cycle of numTreeSets tree sets
	hot        [][]graph.VID  // svc-mixed hot pool
	warmPrize  core.QuerySpec // svc-mixed warm-up prize query
}

// makeInputs builds the LVJ Table III stand-in at scale 1 with the given
// generator seed, serializes it, and draws the fixed query lists. The
// fixed lists hold distinct sets.
func makeInputs(seed int64) (*inputs, error) {
	cfg := gen.MustDataset("LVJ").Config
	cfg.Seed = seed
	g, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("generate LVJ: %w", err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil, fmt.Errorf("serialize graph: %w", err)
	}
	in := &inputs{seed: seed, graphBytes: buf.Bytes(), n: g.NumVertices(),
		comp: graph.LargestComponentVertices(g)}
	seen := map[string]bool{}
	rng := in.stream(1, 0)
	for len(in.treeSets)+len(in.hot) < numTreeSets+numHotSets {
		set := sampleDistinct(rng, in.comp, treeK)
		if key := setKey(set); !seen[key] {
			seen[key] = true
			if len(in.treeSets) < numTreeSets {
				in.treeSets = append(in.treeSets, set)
			} else {
				in.hot = append(in.hot, set)
			}
		}
	}
	in.warmPrize = in.prize(-1)
	return in, nil
}

// stream is the random source of draw i of one query list.
func (in *inputs) stream(list, i int64) *rand.Rand {
	x := uint64(in.seed)*0x9e3779b97f4a7c15 ^ uint64(list)<<56 ^ uint64(i)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x)))
}

// fresh is svc-mixed's i-th never-seen tree set. Draws are made on demand
// from their own streams, so a run of any length has enough; two uniform
// k=16 draws over 8K vertices coincide with negligible probability.
func (in *inputs) fresh(i int64) []graph.VID {
	return sampleDistinct(in.stream(3, i), in.comp, treeK)
}

// prize is svc-mixed's i-th never-seen prize query: prizeK uniform
// terminals with penalties uniform in [1, maxPenalty], co-sorted.
func (in *inputs) prize(i int64) core.QuerySpec {
	rng := in.stream(4, i)
	set := sampleDistinct(rng, in.comp, prizeK)
	pen := make([]graph.Dist, len(set))
	for j := range pen {
		pen[j] = graph.Dist(1 + rng.Int63n(maxPenalty))
	}
	return core.QuerySpec{Mode: core.ModePrize, Seeds: set, Penalties: pen}
}

// mixBlock is one block of the svc-mixed schedule: 3 hot, 5 fresh and 2
// prize queries.
var mixBlock = [10]class{classHot, classHot, classHot,
	classFresh, classFresh, classFresh, classFresh, classFresh,
	classPrize, classPrize}

// class is the class of svc-mixed's i-th query: every block of ten holds
// mixBlock in a seed-shuffled order.
func (in *inputs) class(i int64) class {
	perm := in.stream(5, i/10).Perm(len(mixBlock))
	return mixBlock[perm[i%10]]
}

// sampleDistinct draws k distinct vertices of comp, sorted.
func sampleDistinct(rng *rand.Rand, comp []graph.VID, k int) []graph.VID {
	picked := make(map[graph.VID]bool, k)
	out := make([]graph.VID, 0, k)
	for len(out) < k {
		v := comp[rng.Intn(len(comp))]
		if !picked[v] {
			picked[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// setKey is a map key for a sorted terminal set.
func setKey(set []graph.VID) string {
	return fmt.Sprint(set)
}
