package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dsteiner/internal/graph"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
)

// bucketTestSpecs builds one query per mode — tree, forest, prize — over a
// clustered graph of the given cluster width (forest groups must each be
// connected in the group-filtered distance graph, which the one-group-per-
// cluster layout guarantees).
func bucketTestSpecs(rng *rand.Rand, clusters, perCluster int) []QuerySpec {
	n := clusters * perCluster
	seeds := pickEngineSeeds(rng, n, 8)
	groups := pickClusterGroups(rng, perCluster, []int{3, 4, 2})
	prize := pickEngineSeeds(rng, n, 6)
	penalties := make([]graph.Dist, len(prize))
	for i := range penalties {
		penalties[i] = graph.Dist(5 + rng.Intn(400))
	}
	return []QuerySpec{
		{Mode: ModeTree, Seeds: seeds},
		{Mode: ModeForest, Groups: groups},
		{Mode: ModePrize, Seeds: prize, Penalties: penalties},
	}
}

// bucketOpts is the Δ-bucket engine shape the tests below share.
func bucketOpts(kind PartitionKind, threshold int, bsp bool) Options {
	return Options{
		Ranks:             4,
		Queue:             rt.QueueBucket,
		BucketDelta:       32,
		Partition:         kind,
		DelegateThreshold: threshold,
		BSP:               bsp,
	}
}

// voronoiStat returns the phase-1 entry of a Result.
func voronoiStat(t *testing.T, label string, res *Result) PhaseStat {
	t.Helper()
	for _, ph := range res.Phases {
		if ph.Name == PhaseVoronoi {
			return ph
		}
	}
	t.Fatalf("%s: result has no %q phase", label, PhaseVoronoi)
	return PhaseStat{}
}

// TestBucketQueueMatchesPriority is the queue-discipline equivalence
// property: for every partition kind × delegate threshold × async/BSP ×
// query mode, a Δ-bucket engine returns Results byte-identical to the
// priority-queue engine on the same configuration. The flood's fixed point
// is the lex-min (dist, seed) assignment whatever order messages are
// visited in, so only the message counts may differ.
func TestBucketQueueMatchesPriority(t *testing.T) {
	g := clusteredTestGraph(131, 3, 40)
	rng := rand.New(rand.NewSource(132))
	specs := bucketTestSpecs(rng, 3, 40)
	for _, kind := range []PartitionKind{PartitionBlock, PartitionHash, PartitionArcBlock} {
		t.Run("part="+kind.String(), func(t *testing.T) {
			for _, threshold := range []int{0, 6} {
				for _, bsp := range []bool{false, true} {
					opts := bucketOpts(kind, threshold, bsp)
					bucket, err := NewEngine(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Queue = rt.QueuePriority
					opts.BucketDelta = 0
					prio, err := NewEngine(g, opts)
					if err != nil {
						bucket.Close()
						t.Fatal(err)
					}
					for si, spec := range specs {
						label := fmt.Sprintf("thr=%d/bsp=%v/spec=%d(%s)", threshold, bsp, si, spec.Mode)
						want, err := prio.SolveSpec(spec)
						if err != nil {
							t.Fatalf("%s: priority: %v", label, err)
						}
						got, err := bucket.SolveSpec(spec)
						if err != nil {
							t.Fatalf("%s: bucket: %v", label, err)
						}
						assertResultsEquivalent(t, label, got, want)
						if got.PaidPenalty != want.PaidPenalty || got.Objective != want.Objective {
							t.Fatalf("%s: prize outputs differ: paid %d/%d objective %d/%d",
								label, got.PaidPenalty, want.PaidPenalty, got.Objective, want.Objective)
						}
						if voronoiStat(t, label, got).Processed == 0 {
							t.Fatalf("%s: bucket engine processed no Voronoi messages", label)
						}
					}
					prio.Close()
					bucket.Close()
				}
			}
		})
	}
}

// TestTCPBackendBucketQueueMatchesLoopback carries the Δ-bucket discipline
// across the wire: a 4-worker rankd fleet running the bucket queue returns
// Results byte-identical to a loopback bucket engine, for async and BSP on
// both delegate settings, across tree, forest and prize queries.
func TestTCPBackendBucketQueueMatchesLoopback(t *testing.T) {
	g := clusteredTestGraph(131, 3, 40)
	rng := rand.New(rand.NewSource(134))
	specs := bucketTestSpecs(rng, 3, 40)
	for _, threshold := range []int{0, 6} {
		for _, bsp := range []bool{false, true} {
			label := fmt.Sprintf("thr=%d/bsp=%v", threshold, bsp)
			t.Run(label, func(t *testing.T) {
				opts := bucketOpts(PartitionArcBlock, threshold, bsp)
				loop, err := NewEngine(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer loop.Close()
				tcp, wait := startTCPEngine(t, g, opts, 4)
				defer wait()
				defer tcp.Close()
				for si, spec := range specs {
					want, err := loop.SolveSpec(spec)
					if err != nil {
						t.Fatalf("spec %d: loopback: %v", si, err)
					}
					got, err := tcp.SolveSpec(spec)
					if err != nil {
						t.Fatalf("spec %d: tcp: %v", si, err)
					}
					sl := fmt.Sprintf("%s/spec=%d(%s)", label, si, spec.Mode)
					assertResultsEquivalent(t, sl, got, want)
					if got.Net.FramesOut == 0 {
						t.Fatalf("%s: tcp solve reports no transport traffic", sl)
					}
				}
			})
		}
	}
}

// TestTCPBackendBucketQueueV1Session pins the rollback seam for the bucket
// queue: the queue kind and Δ travel in the base Setup frame, so a session
// pinned to wire v1 (the oldest "old coordinator") answers byte-identically
// to loopback, and never uses the v2 compacted batch frames.
func TestTCPBackendBucketQueueV1Session(t *testing.T) {
	g := engineTestGraph(31, 100)
	rng := rand.New(rand.NewSource(135))
	seedSets := [][]graph.VID{
		pickEngineSeeds(rng, g.NumVertices(), 4),
		pickEngineSeeds(rng, g.NumVertices(), 9),
	}
	opts := bucketOpts(PartitionBlock, 0, true)
	opts.Ranks = 2
	loop, err := NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	opts.MaxWireVersion = 1
	tcp, wait := startTCPEngine(t, g, opts, 2)
	defer wait()
	defer tcp.Close()
	for i, seeds := range seedSets {
		label := fmt.Sprintf("v1/set=%d", i)
		want, err := loop.Solve(seeds)
		if err != nil {
			t.Fatalf("%s: loopback: %v", label, err)
		}
		got, err := tcp.Solve(seeds)
		if err != nil {
			t.Fatalf("%s: tcp: %v", label, err)
		}
		assertResultsEquivalent(t, label, got, want)
		if got.Net.FramesOut == 0 {
			t.Fatalf("%s: tcp solve reports no transport traffic", label)
		}
		if got.Net.CompactionSavedBytes != 0 {
			t.Fatalf("%s: v1 session reports compaction savings %d", label, got.Net.CompactionSavedBytes)
		}
	}
}

// TestChaosBucketQueue runs the fault-tolerance contract on the Δ-bucket
// discipline with delegates (TestChaosMatrix covers the priority queue): a
// recovering 2-worker fleet takes one deterministic mid-solve fault, heals,
// and still answers byte-identically to an undisturbed loopback run — then
// answers again on the healed fleet.
func TestChaosBucketQueue(t *testing.T) {
	g := engineTestGraph(17, 120)
	rng := rand.New(rand.NewSource(94))
	seeds := pickEngineSeeds(rng, g.NumVertices(), 7)
	chaosBucketOpts := func() Options { return bucketOpts(PartitionArcBlock, 6, false) }

	loop, err := NewEngine(g, chaosBucketOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := loop.Solve(seeds)
	loop.Close()
	if err != nil {
		t.Fatalf("loopback reference: %v", err)
	}

	// Probe the per-solve transport op count with an inject-nothing shim on
	// this exact fleet shape, so the fault triggers land mid-solve.
	before := transport.ChaosOpsTotal()
	{
		opts := chaosBucketOpts()
		opts.Recover = true
		opts.RejoinWait = 10 * time.Second
		e, shutdown := startChaosFleet(t, g, opts, 2, func(w int) WorkerConfig {
			cfg := WorkerConfig{RejoinWait: 10 * time.Second}
			if w == 0 {
				cfg.Chaos = &transport.ChaosConfig{Seed: 1}
			}
			return cfg
		})
		if _, err := solveWithDeadline(t, "probe", e, seeds); err != nil {
			t.Fatalf("probe solve: %v", err)
		}
		shutdown(true)
	}
	ops := transport.ChaosOpsTotal() - before
	if ops < 4 {
		t.Fatalf("probe observed only %d transport ops", ops)
	}

	for _, kind := range []string{transport.ChaosPeerDrop, transport.ChaosCoordDrop, transport.ChaosTruncate} {
		t.Run(kind, func(t *testing.T) {
			opts := chaosBucketOpts()
			opts.Recover = true
			opts.RejoinWait = 15 * time.Second
			e, shutdown := startChaosFleet(t, g, opts, 2, func(w int) WorkerConfig {
				cfg := WorkerConfig{RejoinWait: 15 * time.Second}
				if w == 0 {
					cfg.Chaos = &transport.ChaosConfig{Kind: kind, Seed: 2, After: ops / 2}
				}
				return cfg
			})
			got, err := solveWithDeadline(t, kind+"/faulted", e, seeds)
			if err != nil {
				t.Fatalf("faulted solve not recovered: %v", err)
			}
			assertResultsEquivalent(t, kind+"/faulted", got, want)
			again, err := solveWithDeadline(t, kind+"/healed", e, seeds)
			if err != nil {
				t.Fatalf("solve on healed fleet: %v", err)
			}
			assertResultsEquivalent(t, kind+"/healed", again, want)
			fs := e.FaultStats()
			shutdown(true)
			if fs.Detected < 1 || fs.Heals < 1 {
				t.Fatalf("injected a %s fault but the session never healed: %+v", kind, fs)
			}
		})
	}
}
