// Benchmarks for the reusable solver Engine: the paper's §I interactive
// scenario is many queries against one resident graph, where per-query
// setup — not a single solve — dominates throughput. BenchmarkColdSolve
// pays the full O(|V|) session setup (partition, communicator goroutines,
// Voronoi arrays, walked bitmap) per query; BenchmarkEngineReuse pays it
// once and runs every query on pooled epoch-versioned state. Compare with
//
//	go test -bench 'ColdSolve|EngineReuse' -benchmem
package dsteiner_test

import (
	"math/rand"
	"sync"
	"testing"

	"dsteiner"
	"dsteiner/internal/baseline"
)

// benchSolveGraph builds a reproducible mid-size connected graph.
func benchSolveGraph(b *testing.B) *dsteiner.Graph {
	b.Helper()
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	bld := dsteiner.NewBuilder(n)
	for v := 1; v < n; v++ {
		bld.AddEdge(dsteiner.VID(rng.Intn(v)), dsteiner.VID(v), uint32(rng.Intn(64))+1)
	}
	for i := 0; i < 3*n; i++ {
		bld.AddEdge(dsteiner.VID(rng.Intn(n)), dsteiner.VID(rng.Intn(n)), uint32(rng.Intn(64))+1)
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSeedSets(g *dsteiner.Graph, count, k int) [][]dsteiner.VID {
	rng := rand.New(rand.NewSource(2))
	sets := make([][]dsteiner.VID, count)
	for i := range sets {
		seen := map[dsteiner.VID]bool{}
		for len(sets[i]) < k {
			s := dsteiner.VID(rng.Intn(g.NumVertices()))
			if !seen[s] {
				seen[s] = true
				sets[i] = append(sets[i], s)
			}
		}
	}
	return sets
}

// BenchmarkColdSolve is the baseline: a fresh solver session per query.
func BenchmarkColdSolve(b *testing.B) {
	g := benchSolveGraph(b)
	seedSets := benchSeedSets(g, 16, 16)
	opts := dsteiner.Defaults(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsteiner.Solve(g, seedSets[i%len(seedSets)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuse runs the same queries against one resident Engine.
func BenchmarkEngineReuse(b *testing.B) {
	g := benchSolveGraph(b)
	seedSets := benchSeedSets(g, 16, 16)
	e, err := dsteiner.NewEngine(g, dsteiner.Defaults(4))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(seedSets[i%len(seedSets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLadder measures the bottom rungs of the layer-tax ladder on the
// same graph and queries as BenchmarkEngineReuse: l0_mehlhorn is the
// sequential floor (baseline.Mehlhorn), l1_1rank one resident 1-rank
// Engine — the runtime message plane and queue with no partition,
// mailboxes or wire — and l2_loopback one resident 4-rank loopback Engine,
// which adds the partition, the mailboxes and phase 2's ghost push. All
// rungs come from one run, so their ratios hold across hardware; CI gates
// l1_1rank <= 2.0 * l0_mehlhorn and l2_loopback <= 1.6 * l1_1rank.
func BenchmarkLadder(b *testing.B) {
	g := benchSolveGraph(b)
	seedSets := benchSeedSets(g, 16, 16)
	b.Run("l0_mehlhorn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Mehlhorn(g, seedSets[i%len(seedSets)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	engineRung := func(ranks int) func(*testing.B) {
		return func(b *testing.B) {
			e, err := dsteiner.NewEngine(g, dsteiner.Defaults(ranks))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Solve(seedSets[i%len(seedSets)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("l1_1rank", engineRung(1))
	b.Run("l2_loopback", engineRung(4))
}

// BenchmarkTCPTransportSolve is the loopback-vs-wire comparison: the same
// resident-engine workload as BenchmarkEngineReuse, but the four ranks run
// in four rankd worker sessions (in-process goroutines speaking the real
// wire protocol over real localhost TCP), so every cross-rank batch is
// varint-encoded, framed, written, read and decoded, collectives cross the
// coordinator, and asynchronous quiescence is detected with termination
// tokens. The ratio against BenchmarkEngineReuse is the transport tax.
func BenchmarkTCPTransportSolve(b *testing.B) {
	g := benchSolveGraph(b)
	seedSets := benchSeedSets(g, 16, 16)
	opts := dsteiner.Defaults(4)
	opts.Backend = dsteiner.BackendTCP
	opts.Workers = 4
	opts.ListenAddr = "127.0.0.1:0"
	var wg sync.WaitGroup
	opts.OnListen = func(addr string) {
		for i := 0; i < opts.Workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := dsteiner.RunWorker(addr, dsteiner.WorkerConfig{}); err != nil {
					b.Errorf("worker: %v", err)
				}
			}()
		}
	}
	e, err := dsteiner.NewEngine(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer wg.Wait()
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(seedSets[i%len(seedSets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReuseGlobalCSR is the sharded-vs-global comparison: the
// same resident-engine workload as BenchmarkEngineReuse, but on the
// pre-shard reference path that strides the shared global CSR instead of
// walking rank-local shard slabs. The ratio between the two is the cache
// locality the shard refactor buys.
func BenchmarkEngineReuseGlobalCSR(b *testing.B) {
	g := benchSolveGraph(b)
	seedSets := benchSeedSets(g, 16, 16)
	opts := dsteiner.Defaults(4)
	opts.GlobalCSR = true
	e, err := dsteiner.NewEngine(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(seedSets[i%len(seedSets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardBuild measures the session-setup cost the shard substrate
// adds: cutting P rank-local CSR slabs (plus delegate stripes) out of the
// 20K-vertex benchmark graph. Paid once per Engine, amortized across every
// query the engine serves.
func BenchmarkShardBuild(b *testing.B) {
	g := benchSolveGraph(b)
	opts := dsteiner.Defaults(4)
	opts.DelegateThreshold = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := dsteiner.NewEngine(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkEnginePoolConcurrent measures query throughput with 4 resident
// engines serving in-flight queries concurrently — the steinersvc -engines
// configuration, without the HTTP layer.
func BenchmarkEnginePoolConcurrent(b *testing.B) {
	g := benchSolveGraph(b)
	seedSets := benchSeedSets(g, 16, 16)
	const poolSize = 4
	pool := make(chan *dsteiner.Engine, poolSize)
	for i := 0; i < poolSize; i++ {
		e, err := dsteiner.NewEngine(g, dsteiner.Defaults(2))
		if err != nil {
			b.Fatal(err)
		}
		pool <- e
	}
	defer func() {
		for i := 0; i < poolSize; i++ {
			(<-pool).Close()
		}
	}()
	var mu sync.Mutex
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			mu.Lock()
			seeds := seedSets[next%len(seedSets)]
			next++
			mu.Unlock()
			e := <-pool
			_, err := e.Solve(seeds)
			pool <- e
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
