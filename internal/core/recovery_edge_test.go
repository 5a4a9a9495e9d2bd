package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

// cutOpts break a QP on a cut link within a few retransmits.
var cutOpts = Options{
	QPsPerConn:   2,
	RPCTimeout:   100 * time.Millisecond,
	StallTimeout: 10 * time.Millisecond,
	test:         testKnobs{rcRetries: 2},
}

// cutFailsTheFirstRecycle warms conn up, cuts the link with cut, and calls
// until the connection fails: it must fail with ErrConnClosed, without a
// single QP recycled or quarantined.
func cutFailsTheFirstRecycle(t *testing.T, tc *testCluster, conn *Conn, cut func()) {
	th := conn.RegisterThread()
	callUntilOK(t, th, []byte("warm"))
	cut()
	deadline := time.Now().Add(chaosDeadline)
	for {
		err := callDrop(th, echoID, []byte("cut"))
		if errors.Is(err, ErrConnClosed) {
			break
		}
		if err != nil && !errors.Is(err, ErrQPBroken) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("call across the cut: %v, want ErrConnClosed in the end", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("the connection outlived a cut link")
		}
	}
	if m := tc.clients[0].Metrics(); m.QPRecycles != 0 || m.QPQuarantines != 0 {
		t.Fatalf("recycles=%d quarantines=%d across a cut link, want 0 and 0", m.QPRecycles, m.QPQuarantines)
	}
}

// Table-driven edge cases for recovery.go: each scenario forces one of
// the narrow races the recovery design must survive — a recycle
// contending with active combining leaders, quarantine landing while a
// combine is in flight, a recycle on a link cut for good, and a per-call
// deadline expiring while the response buffer is still a pooled lease in
// flight. Every case ends at the same gate: zero outstanding pooled leases.
func TestRecoveryEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		run  func(t *testing.T, tc *testCluster, conn *Conn)
	}{
		{
			// A link outage breaks QPs while combining leaders — slowed
			// by the stall hook so they are still inside lead() when
			// markBroken fires — race the recycler's drain loop. The
			// recycler must wait out every leader, and every call must
			// still complete after migration/retry.
			name: "qp-recycle-races-leader-handoff",
			opts: Options{
				QPsPerConn:   2,
				RPCTimeout:   100 * time.Millisecond,
				StallTimeout: 10 * time.Millisecond,
				test:         testKnobs{rcRetries: 2},
			},
			run: func(t *testing.T, tc *testCluster, conn *Conn) {
				leaderStallHook = func(c *Conn, q *connQP) { time.Sleep(50 * time.Microsecond) }
				defer func() { leaderStallHook = nil }()
				tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{
					Seed: 11,
					Links: []fabric.LinkFault{
						{Src: tc.clients[0].ID(), Dst: tc.server.ID(), DownAfter: 10, DownFor: 250},
					},
				})
				const nThreads, perThread = 6, 12
				var wg sync.WaitGroup
				for g := 0; g < nThreads; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						th := conn.RegisterThread()
						for i := 0; i < perThread; i++ {
							callUntilOK(t, th, []byte(fmt.Sprintf("rr-%d-%d", g, i)))
						}
					}(g)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				if m := tc.clients[0].Metrics(); m.QPRecycles == 0 {
					t.Errorf("no recycle despite outage window (metrics %+v)", m)
				}
			},
		},
		{
			// The flapping QP crosses FlapThreshold and is quarantined
			// while combines are in flight on both QPs. The in-flight
			// operations on the dying QP must fail over, the survivor must
			// keep serving, and the retirement must stick.
			name: "flap-quarantine-expiry-during-inflight-combine",
			opts: Options{
				QPsPerConn:   2,
				RPCTimeout:   100 * time.Millisecond,
				StallTimeout: 10 * time.Millisecond,
				test:         testKnobs{rcRetries: 2},
			},
			run: func(t *testing.T, tc *testCluster, conn *Conn) {
				q0 := conn.qps[0]
				stop := make(chan struct{})
				var wg sync.WaitGroup
				// Four threads keep combines in flight on both QPs for the
				// whole flap/quarantine sequence.
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						th := conn.RegisterThread()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							resp, err := th.Call(echoID, []byte(fmt.Sprintf("fq-%d-%d", g, i)))
							resp.Release()
							if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
								t.Errorf("fatal error under flaps: %v", err)
								return
							}
						}
					}(g)
				}
				flapIntoQuarantine(t, tc, q0)
				close(stop)
				wg.Wait()
				if t.Failed() {
					return
				}
				if !q0.disabled.Load() {
					t.Error("quarantined QP not disabled")
				}
				th := conn.RegisterThread()
				for i := 0; i < 10; i++ {
					callUntilOK(t, th, []byte(fmt.Sprintf("fq-post-%d", i)))
				}
			},
		},
		{
			// A peer cut by SetLinkDown in both directions: the recycle
			// handshake stands in for an out-of-band exchange that cannot
			// get through, so the first recycle fails the connection
			// instead of rebuilding QPs nothing can reach.
			name: "link-down-fails-the-first-recycle",
			opts: cutOpts,
			run: func(t *testing.T, tc *testCluster, conn *Conn) {
				fab, client, server := tc.net.Fabric(), tc.clients[0].ID(), tc.server.ID()
				cutFailsTheFirstRecycle(t, tc, conn, func() {
					fab.SetLinkDown(client, server, true)
					fab.SetLinkDown(server, client, true)
				})
			},
		},
		{
			// The same cut made by a whole-link fault that never recovers.
			name: "permanent-link-fault-fails-the-first-recycle",
			opts: cutOpts,
			run: func(t *testing.T, tc *testCluster, conn *Conn) {
				fab, client, server := tc.net.Fabric(), tc.clients[0].ID(), tc.server.ID()
				cutFailsTheFirstRecycle(t, tc, conn, func() {
					fab.AddLinkFault(fabric.LinkFault{Src: client, Dst: server, DownFor: 0})
				})
			},
		},
		{
			// CallWithDeadline expires while the response buffer is still
			// a pooled lease in flight (the handler is slow, the response
			// lands after abandonment). The late response must be dropped
			// AND its lease released — this is the path that silently
			// leaks buffers if the abandonment bookkeeping is wrong.
			name: "deadline-expiry-while-holding-pooled-lease",
			opts: Options{QPsPerConn: 1},
			run: func(t *testing.T, tc *testCluster, conn *Conn) {
				var slow atomic.Bool
				slow.Store(true)
				tc.server.RegisterHandler(7, func(req []byte) []byte {
					if slow.Load() {
						time.Sleep(5 * time.Millisecond)
					}
					return req
				})
				th := conn.RegisterThread()
				timeouts := 0
				for i := 0; i < 8; i++ {
					resp, err := th.CallWithDeadline(7, []byte(fmt.Sprintf("dl-%d", i)), time.Millisecond)
					if err == nil {
						resp.Release()
						continue
					}
					if !errors.Is(err, ErrTimeout) {
						t.Fatalf("unexpected error: %v", err)
					}
					timeouts++
				}
				if timeouts == 0 {
					t.Skip("no deadline ever expired; timing too coarse on this machine")
				}
				slow.Store(false)
				// Healthy again: the abandoned responses were dropped as
				// stale without wedging the thread.
				callUntilOK(t, th, []byte("dl-post"))
				if m := tc.clients[0].Metrics(); m.RPCTimeouts == 0 {
					t.Error("timeouts observed by the caller but not counted")
				}
			},
		},
		{
			// The recycle handshake has two halves. Between them the
			// client zeroes its response ring, so a response the server
			// writes in that gap — a worker finishing a request of the
			// QP's previous life — would be wiped with the server's ring
			// tail already past it, and the QP would look healthy and
			// never deliver again. The server half is driven by hand
			// here: the rebuilt end must write nothing until resumed.
			name: "server-end-quiet-until-client-rebuilt",
			opts: Options{QPsPerConn: 1},
			run: func(t *testing.T, tc *testCluster, conn *Conn) {
				client := tc.clients[0]
				callUntilOK(t, conn.RegisterThread(), []byte("warm"))
				_, peerQPN := conn.qps[0].qp.Peer()
				sqp := tc.server.byQPN.Load().(map[int]*serverQP)[peerQPN]
				qp, err := client.dev.CreateQP(rnic.RC, client.dev.CreateCQ(), client.dev.CreateCQ())
				if err != nil {
					t.Fatal(err)
				}
				oldLife := sqp.life.Load()
				reply, err := tc.server.recycleAccept(recycleArgs{
					clientNode: client.id, oldServerQPN: peerQPN, newClientQPN: qp.QPN(),
				})
				if err != nil {
					t.Fatal(err)
				}
				late := []respOut{nackOut(itemMeta{threadID: 1 << 20}, StatusOverloaded)}
				tc.server.flushResponses(sqp, late, sqp.life.Load())
				if tail := sqp.respProd.tail; tail != 0 {
					t.Fatalf("server wrote %d response bytes before the client rebuilt its end", tail)
				}
				tc.server.recycleResume(reply.serverQPN)
				// A reply still owed to a request of the previous life stays
				// dropped after the resume: its client failed the call when
				// the QP broke, and the ring has started over.
				tc.server.flushResponses(sqp, late, oldLife)
				if tail := sqp.respProd.tail; tail != 0 {
					t.Fatalf("server wrote %d response bytes for a request of the QP's previous life", tail)
				}
				tc.server.flushResponses(sqp, late, sqp.life.Load())
				if sqp.respProd.tail == 0 {
					t.Fatal("server end still quiet after recycleResume")
				}
			},
		},
	}
	for _, tcase := range cases {
		tcase := tcase
		t.Run(tcase.name, func(t *testing.T) {
			tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, tcase.opts)
			registerEcho(tc.server)
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			tcase.run(t, tc, conn)
			if t.Failed() {
				return
			}
			// The shared gate: every lease handed out during the scenario
			// must come back to the pool.
			if n := awaitLeaseDrain(5 * time.Second); n != 0 {
				t.Errorf("%d pooled buffer leases outstanding after %s", n, tcase.name)
			}
		})
	}
}
