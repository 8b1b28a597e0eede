package runtime_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsteiner/internal/graph"
	"dsteiner/internal/partition"
	rt "dsteiner/internal/runtime"
	"dsteiner/internal/transport"
	"dsteiner/internal/wire"
)

// Message kinds of the drop-everything traversal below.
const (
	kindOffer uint8 = iota // dropped by Merge wherever it lands
	kindFan                // kept: its visit fans offers out to every vertex
)

// dropAllTraversal sends one offer from every rank to every vertex during
// Init and, when fan is set, once more from inside a visit; Merge drops
// every offer, same-rank or inbound. Only the single self-addressed fan
// message per rank (if any) survives to be visited. merged counts Merge
// calls on offers, visited counts visits.
func dropAllTraversal(n int, bsp, fan bool, merged, visited *atomic.Int64) *rt.Traversal {
	offers := func(r *rt.Rank) {
		for v := 0; v < n; v++ {
			r.Send(rt.Msg{Target: graph.VID(v), From: graph.VID(r.ID())})
		}
	}
	return &rt.Traversal{
		BSP: bsp,
		Init: func(r *rt.Rank) {
			offers(r)
			if fan {
				r.OwnedVertices(func(v graph.VID) {
					if v == 0 || r.Owner(v-1) != r.ID() {
						// The rank's lowest vertex carries its fan message.
						r.Send(rt.Msg{Target: v, Kind: kindFan})
					}
				})
			}
		},
		Merge: func(r *rt.Rank, m rt.Msg) bool {
			if m.Kind == kindFan {
				return true
			}
			if !r.Owns(m.Target) {
				panic("merge hook ran on a rank that does not own the target")
			}
			merged.Add(1)
			return false
		},
		Visit: func(r *rt.Rank, m rt.Msg) {
			visited.Add(1)
			if m.Kind == kindFan {
				offers(r)
			}
		},
	}
}

// runOrTimeout fails the test when fn does not return in time: a dropped
// message whose pending unit is never released hangs Traverse forever.
func runOrTimeout(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: traversal whose Merge drops every offer never reached quiescence", what)
	}
}

// TestMergeDropsReachQuiescence pins the termination accounting of
// Traversal.Merge: a traversal whose hook drops every same-rank and every
// inbound offer — sent from Init and from inside a visit — must still end,
// on loopback async, loopback BSP and TCP-backed communicators. A dropped
// same-rank send must not take a pending unit and a dropped inbound
// message must give its unit back; either leak hangs the traversal.
func TestMergeDropsReachQuiescence(t *testing.T) {
	const n, ranks = 40, 4
	for _, fan := range []bool{false, true} {
		for _, mode := range []string{"async", "bsp", "tcp-async", "tcp-bsp"} {
			bsp := mode == "bsp" || mode == "tcp-bsp"
			var merged, visited atomic.Int64
			tr := dropAllTraversal(n, bsp, fan, &merged, &visited)
			var sent int64
			var mu sync.Mutex
			body := func(r *rt.Rank) {
				st := r.Traverse(tr)
				mu.Lock()
				sent += st.Sent
				mu.Unlock()
			}
			what := mode
			if fan {
				what += "+fan"
			}
			runOrTimeout(t, what, func() {
				if mode == "async" || mode == "bsp" {
					part, err := partition.NewBlock(n, ranks)
					if err != nil {
						t.Error(err)
						return
					}
					rt.MustNew(rt.Config{Ranks: ranks, BatchSize: 3}, part).Run(body)
					return
				}
				runOnTCP(t, n, ranks, 2, body)
			})
			rounds := int64(1)
			wantVisits := int64(0)
			if fan {
				rounds, wantVisits = 2, ranks
			}
			if got, want := merged.Load(), rounds*ranks*n; got != want {
				t.Errorf("%s: Merge saw %d offers, want %d (each offer reaches its owner once)", what, got, want)
			}
			if got := visited.Load(); got != wantVisits {
				t.Errorf("%s: %d visits, want %d (every offer was dropped)", what, got, wantVisits)
			}
			if want := rounds*ranks*n + wantVisits; sent != want {
				t.Errorf("%s: Sent = %d, want %d (dropped offers still count as sent)", what, sent, want)
			}
		}
	}
}

// runOnTCP runs body SPMD on a communicator whose ranks are spread over
// `workers` in-process workers speaking the real wire protocol: a
// transport.Hub coordinates collectives and termination tokens, and the
// workers exchange visitor batches over a localhost TCP mesh. Connections
// close only after every worker finished, so no worker sees a peer hang up
// mid-run.
func runOnTCP(t *testing.T, n, ranks, workers int, body func(r *rt.Rank)) {
	hub, err := transport.ListenHub("127.0.0.1:0", workers, ranks)
	if err != nil {
		t.Error(err)
		return
	}
	defer hub.Close()
	hsErr := make(chan error, 1)
	go func() {
		_, err := hub.Handshake(10*time.Second, func(int) wire.Setup {
			return wire.Setup{Ranks: ranks, NumVertices: n}
		})
		hsErr <- err
	}()
	comms := make([]*rt.Comm, workers)
	tcps := make([]*transport.TCP, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if comms[w], tcps[w], err = tcpWorker(hub.Addr(), n, ranks); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := <-hsErr; err != nil {
		t.Error(err)
	}
	defer func() {
		for _, tcp := range tcps {
			if tcp != nil {
				tcp.Close()
			}
		}
	}()
	if t.Failed() {
		return
	}
	for w := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("worker %d: %v (session: %v)", w, p, tcps[w].Err())
				}
			}()
			comms[w].Run(body)
		}()
	}
	wg.Wait()
}

// tcpWorker is a minimal worker: handshake with the hub, mesh with its
// peers and host its rank range on a TCP-backed communicator.
func tcpWorker(addr string, n, ranks int) (*rt.Comm, *transport.TCP, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = conn.Close()
		return nil, nil, err
	}
	defer ln.Close()
	fail := func(err error) (*rt.Comm, *transport.TCP, error) {
		_ = conn.Close()
		return nil, nil, err
	}
	hello := wire.EncodeHello(nil, wire.Hello{Version: wire.Version, PeerAddr: ln.Addr().String()})
	if err := wire.WriteFrame(conn, hello); err != nil {
		return fail(err)
	}
	frame, err := wire.ReadFrame(conn, nil)
	if err != nil {
		return fail(err)
	}
	setup, err := wire.DecodeSetup(frame[1:])
	if err != nil {
		return fail(err)
	}
	mesh, err := transport.ConnectMesh(setup.WorkerIndex, setup.PeerAddrs, ln, 10*time.Second)
	if err != nil {
		return fail(err)
	}
	tcp := transport.NewTCP(setup.WorkerIndex, setup.RankLo, conn, mesh)
	tcp.SetWireVersion(setup.WireVersion)
	part, err := partition.NewBlock(n, ranks)
	if err != nil {
		tcp.Close()
		return nil, nil, err
	}
	lo, hi := setup.RankLo[setup.WorkerIndex], setup.RankLo[setup.WorkerIndex+1]
	comm, err := rt.New(rt.Config{
		Ranks: ranks, BatchSize: 3, HostLo: int(lo), HostHi: int(hi), Transport: tcp,
	}, part)
	if err == nil {
		err = tcp.SendReady(wire.Ready{})
	}
	if err != nil {
		tcp.Close()
		return nil, nil, err
	}
	return comm, tcp, nil
}
