package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/mem"
)

// TestInlineLaneAnswersWhileEveryWorkerBlocks: with every pool goroutine
// blocked inside a handler and more worker-lane calls queued behind them, an
// inline-lane handler still answers within a few milliseconds, and once the
// workers are released every call is answered and no lease is left behind.
// Four queued calls fit the hand-off channel (four per worker); four more
// than it holds wait in the dispatcher's backlog, and a dispatcher that
// blocked on the channel instead would stop pumping every ring.
func TestInlineLaneAnswersWhileEveryWorkerBlocks(t *testing.T) {
	const (
		blockID, pingID = 40, 41
		workers         = 2
	)
	for _, queued := range []int{4, 4*workers + 4} {
		t.Run(fmt.Sprintf("queued=%d", queued), func(t *testing.T) {
			base := mem.Default.Outstanding()
			tc := newTestCluster(t, 1, Options{Workers: workers}, Options{QPsPerConn: 2})
			release := make(chan struct{})
			var once sync.Once
			unblock := func() { once.Do(func() { close(release) }) }
			t.Cleanup(unblock) // a failed run must not leave Close waiting on the pool
			var entered atomic.Int32
			tc.server.RegisterHandler(blockID, func(req []byte) []byte {
				entered.Add(1)
				<-release
				return req
			})
			tc.server.RegisterInlineStatusHandler(pingID, func(req []byte) ([]byte, uint32) { return req, StatusOK })
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			blocker, pinger := conn.RegisterThread(), conn.RegisterThread()

			// One call at a time, so each is its own message and occupies its
			// own worker; the rest queue behind the blocked pool.
			var pends []*Pending
			for i := 0; i < workers+queued; i++ {
				p, err := blocker.CallAsync(blockID, []byte(fmt.Sprintf("b%d", i)), CallOptions{})
				if err != nil {
					t.Fatal(err)
				}
				pends = append(pends, p)
				if i < workers {
					waitFor(t, "a worker blocked in its handler", func() bool { return entered.Load() == int32(i+1) })
				}
			}
			waitFor(t, "the queued calls at the server", func() bool {
				return tc.server.Metrics().ItemsIn >= uint64(workers+queued)
			})

			best := time.Hour
			for try := 0; try < 3 && best > 5*time.Millisecond; try++ {
				start := time.Now()
				r, err := pinger.CallWithDeadline(pingID, []byte("ping"), time.Second)
				if err != nil {
					t.Fatal(err)
				}
				best = min(best, time.Since(start))
				if !bytes.Equal(r.Data, []byte("ping")) {
					t.Fatalf("ping answered %q", r.Data)
				}
				r.Release()
			}
			if got := entered.Load(); got != workers {
				t.Fatalf("%d worker-lane handlers entered with %d workers blocked", got, workers)
			}
			unblock()
			for i, p := range pends {
				r, err := p.Wait()
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if want := fmt.Sprintf("b%d", i); string(r.Data) != want {
					t.Fatalf("call %d answered %q, want %q", i, r.Data, want)
				}
				r.Release()
			}
			if best > 5*time.Millisecond {
				t.Fatalf("an inline-lane call took %v with every worker blocked, want within 5ms", best)
			}
			waitFor(t, "zero admitted requests and leases", func() bool {
				return tc.server.inflight.Load() == 0 && mem.Default.Outstanding() <= base
			})
		})
	}
}

// TestServeOutcomes drives every way a request can end through the one
// server loop, on a node whose dispatcher runs everything (Workers 0) and on
// one with a pool: echoes from several threads over several QPs, a reply
// sent after the handler returned, a handler panic, no handler, a keyed
// duplicate answered from the dedup window, an admission NACK, a drain NACK,
// and one message carrying an inline-lane and a worker-lane request, which
// is answered in two response messages — the inline lane's first. Every case
// ends with nothing admitted.
func TestServeOutcomes(t *testing.T) {
	const laterID, panicID, countID, pingID = 50, 51, 52, 53
	cases := []struct {
		name  string
		limit int // the server's AdmissionLimit
		run   func(t *testing.T, srv *Node, conn *Conn)
	}{
		{name: "echo", run: func(t *testing.T, srv *Node, conn *Conn) {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(th *Thread) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						msg := []byte(fmt.Sprintf("e%d-%d", g, i))
						r, err := th.Call(echoID, msg)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(r.Data, msg) {
							t.Errorf("echo answered %q, want %q", r.Data, msg)
						}
						r.Release()
					}
				}(conn.RegisterThread())
			}
			wg.Wait()
		}},
		{name: "reply-later", run: func(t *testing.T, srv *Node, conn *Conn) {
			var execs atomic.Uint64
			laterHandler(srv, laterID, &execs, nil, nil)
			th := conn.RegisterThread()
			for i := 0; i < 5; i++ {
				r, err := th.Call(laterID, []byte("x"))
				if err != nil || !bytes.Equal(r.Data, []byte("later:x")) {
					t.Fatalf("call %d: (%q, %v), want later:x", i, r.Data, err)
				}
				r.Release()
				if err := callDrop(th, echoID, []byte("between")); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "panic", run: func(t *testing.T, srv *Node, conn *Conn) {
			srv.RegisterHandler(panicID, func([]byte) []byte { panic("handler failure") })
			th := conn.RegisterThread()
			r, err := th.Call(panicID, []byte("x"))
			if err != nil || r.Status != StatusHandlerPanic {
				t.Fatalf("panicking handler: status %d, %v; want StatusHandlerPanic", r.Status, err)
			}
			r.Release()
			if err := callDrop(th, echoID, []byte("after")); err != nil {
				t.Fatalf("echo after the panic: %v", err)
			}
		}},
		{name: "no-handler", run: func(t *testing.T, srv *Node, conn *Conn) {
			r, err := conn.RegisterThread().Call(999, []byte("x"))
			if err != nil || r.Status != StatusNoHandler {
				t.Fatalf("unregistered rpc: status %d, %v; want StatusNoHandler", r.Status, err)
			}
			r.Release()
		}},
		{name: "dedup-hit", run: func(t *testing.T, srv *Node, conn *Conn) {
			var execs atomic.Uint64
			srv.RegisterHandler(countID, func([]byte) []byte { return []byte{byte(execs.Add(1))} })
			th := conn.RegisterThread()
			keyed := func() []byte {
				p := &Pending{t: th, rpcID: countID, payload: []byte("dup"), attempts: 1,
					idemKey: 7, deadline: time.Now().Add(chaosDeadline)}
				if p.startAttempt(true); p.phase == pendDone {
					t.Fatal(p.err)
				}
				r, err := p.Wait()
				if err != nil {
					t.Fatal(err)
				}
				defer r.Release()
				return append([]byte(nil), r.Data...)
			}
			if first, dup := keyed(), keyed(); !bytes.Equal(first, dup) {
				t.Fatalf("duplicate answered %v, the original %v", dup, first)
			}
			if n, hits := execs.Load(), srv.Metrics().DedupHits; n != 1 || hits != 1 {
				t.Fatalf("%d executions and %d dedup hits, want 1 and 1", n, hits)
			}
		}},
		{name: "admission-nack", limit: 1, run: func(t *testing.T, srv *Node, conn *Conn) {
			var execs atomic.Uint64
			release := make(chan struct{})
			laterHandler(srv, laterID, &execs, release, nil)
			th := conn.RegisterThread()
			p, err := th.CallAsync(laterID, []byte("held"), CallOptions{})
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the held request to be admitted", func() bool { return execs.Load() == 1 })
			if err := callDrop(th, echoID, []byte("x")); err != ErrOverloaded {
				t.Fatalf("call past the admission limit: %v, want ErrOverloaded", err)
			}
			close(release)
			r, err := p.Wait()
			if err != nil || !bytes.Equal(r.Data, []byte("later:held")) {
				t.Fatalf("held call: (%q, %v)", r.Data, err)
			}
			r.Release()
			if got := srv.Metrics().RPCRejected; got != 1 {
				t.Fatalf("%d admission rejections, want 1", got)
			}
		}},
		{name: "drain-nack", run: func(t *testing.T, srv *Node, conn *Conn) {
			th := conn.RegisterThread()
			ctx, cancel := context.WithTimeout(context.Background(), chaosDeadline)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if err := callDrop(th, echoID, []byte("x")); err != ErrDraining {
				t.Fatalf("call on a draining server: %v, want ErrDraining", err)
			}
			srv.Resume()
			if err := callDrop(th, echoID, []byte("y")); err != nil {
				t.Fatalf("call after Resume: %v", err)
			}
			if got := srv.Metrics().RPCRejectedDraining; got != 1 {
				t.Fatalf("%d drain rejections, want 1", got)
			}
		}},
		{name: "inline+worker", run: func(t *testing.T, srv *Node, conn *Conn) {
			srv.RegisterInlineStatusHandler(pingID, func(req []byte) ([]byte, uint32) { return req, StatusOK })
			respMsgs := func() (n uint64) {
				for _, sc := range srv.snapshotSconns() {
					for _, sqp := range sc.qps {
						sqp.respMu.Lock()
						n += sqp.respProd.msgSeq
						sqp.respMu.Unlock()
					}
				}
				return n
			}
			before, sent := srv.Metrics(), respMsgs()
			ops := []BatchOp{{RPCID: echoID, Payload: []byte("worker")}, {RPCID: pingID, Payload: []byte("inline")}}
			pends, err := conn.RegisterThread().SendBatch(ops, CallOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pends {
				r, err := p.Wait()
				if err != nil || !bytes.Equal(r.Data, ops[i].Payload) {
					t.Fatalf("op %d: (%q, %v), want %q", i, r.Data, err, ops[i].Payload)
				}
				r.Release()
			}
			after := srv.Metrics()
			if msgs, items := after.MsgsIn-before.MsgsIn, after.ItemsIn-before.ItemsIn; msgs != 1 || items != 2 {
				t.Fatalf("the batch reached the server as %d messages of %d items, want 1 of 2", msgs, items)
			}
			if got := respMsgs() - sent; got != 2 {
				t.Fatalf("answered in %d response messages, want 2 (the inline lane's, then the rest)", got)
			}
		}},
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					tc := newTestCluster(t, 1, Options{Workers: workers, AdmissionLimit: c.limit}, Options{QPsPerConn: 4})
					registerEcho(tc.server)
					conn, err := tc.clients[0].Connect(0)
					if err != nil {
						t.Fatal(err)
					}
					c.run(t, tc.server, conn)
					waitFor(t, "zero admitted requests", func() bool { return tc.server.inflight.Load() == 0 })
				})
			}
		})
	}
}

// TestServerPollRoleVersusRecycle is the server twin of
// TestPollRoleVersusRecycle: the pumps — pool goroutines and the dispatcher,
// or the dispatcher alone without a pool — pull from a QP's request ring
// while recycleAccept rebuilds it under them, until the QP is quarantined. It
// passes when every call resolves, the server ends with nothing admitted and
// no pooled lease leaks; that no pump touches the request ring's consumer of
// a broken QP is the race detector's to say (ci.sh runs this test under
// -race, ten times): the consumer's state is plain memory that only the
// poll role, taken inside enter/exit, guards.
func TestServerPollRoleVersusRecycle(t *testing.T) {
	const pingID = 41
	for _, workers := range []int{4, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := mem.Default.Outstanding()
			tc := newTestCluster(t, 1, Options{Workers: workers}, Options{
				QPsPerConn: 2,
			})
			registerEcho(tc.server)
			tc.server.RegisterInlineStatusHandler(pingID, func(req []byte) ([]byte, uint32) { return req, StatusOK })
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			q0 := conn.qps[0]
			threads := make([]*Thread, 4) // even IDs start on QP 0, odd on QP 1
			for i := range threads {
				threads[i] = conn.RegisterThread()
			}
			stop := make(chan struct{})
			var calls atomic.Uint64
			var wg sync.WaitGroup
			for i, th := range threads {
				wg.Add(1)
				go func(i int, th *Thread) {
					defer wg.Done()
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						rpc := uint32(echoID)
						if n%4 == 3 {
							rpc = pingID // the inline lane, run by whoever pumps
						}
						r, err := th.CallWithDeadline(rpc, []byte(fmt.Sprintf("t%d-%d", i, n)), time.Second)
						r.Release()
						if err != nil && !errors.Is(err, ErrQPBroken) && !errors.Is(err, ErrTimeout) {
							t.Errorf("thread %d: %v", i, err)
							return
						}
						calls.Add(1)
					}
				}(i, th)
			}
			waitFor(t, "traffic on both QPs", func() bool { return calls.Load() > 100 })
			pumped := tc.server.metrics.workerPumped.Load()
			for range DefaultFlapThreshold {
				// Break QP 0 under the pumps, let the recycle rebuild both ends and
				// the traffic find it again.
				conn.markBroken(q0)
				waitFor(t, "QP 0 recycled", func() bool { return !q0.broken.Load() })
				before := calls.Load()
				waitFor(t, "traffic after the recycle", func() bool { return calls.Load() > before+200 })
			}
			// Traffic found QP 0 after each recycle, so those breaks were no
			// streak: cutting its own link is what quarantines it.
			flapIntoQuarantine(t, tc, q0)
			close(stop)
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(chaosDeadline):
				t.Fatal("a call never resolved")
			}
			for i, th := range threads {
				if n := th.Outstanding(); n != 0 {
					t.Fatalf("thread %d left %d records unresolved", i, n)
				}
			}
			if workers > 0 && tc.server.metrics.workerPumped.Load() == pumped {
				t.Fatal("no pool goroutine pumped a request during the recycles")
			}
			if m := tc.server.Metrics(); m.QPRecycles < 3 || m.QPQuarantines != 1 {
				t.Fatalf("server recycles=%d quarantines=%d, want >= 3 and 1", m.QPRecycles, m.QPQuarantines)
			}
			waitFor(t, "zero admitted requests", func() bool { return tc.server.inflight.Load() == 0 })
			tc.net.Close()
			if n := awaitLeaseDrain(3 * time.Second); n > base {
				t.Fatalf("%d pooled leases outstanding after close, %d before the test", n, base)
			}
		})
	}
}

// TestRecycleWaitsOutWorkerHandler: a worker-lane handler reads its request
// where it landed, on the request ring, and a recycle zeroes that ring, so the
// unit of a pulled message holds its QP's inuse count until the message is
// finished. Here a handler blocks while the client breaks and recycles its
// QP: the recycle stays pending until the handler is released, the handler
// then still reads its request byte for byte, and the recycle completes only
// after the handler returned. The rebuilt QP serves, and nothing is left
// admitted or leased.
func TestRecycleWaitsOutWorkerHandler(t *testing.T) {
	const blockID = 40
	base := mem.Default.Outstanding()
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	entered, release := make(chan struct{}), make(chan struct{})
	var intact, returned atomic.Bool
	payload := echoPattern(99, 4096)
	tc.server.RegisterHandler(blockID, func(req []byte) []byte {
		close(entered)
		<-release
		intact.Store(bytes.Equal(req, payload))
		returned.Store(true)
		return nil
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	p, err := th.CallAsync(blockID, payload, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(chaosDeadline):
		t.Fatal("the handler never ran")
	}
	q0 := conn.qps[0]
	recycles := tc.server.metrics.recycles.Load()
	conn.markBroken(q0)
	// The recycle reaches recycleAccept at once; it must wait there.
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if tc.server.metrics.recycles.Load() != recycles {
			close(release)
			t.Fatal("the recycle completed under a running handler")
		}
	}
	close(release)
	waitFor(t, "the recycle", func() bool { return tc.server.metrics.recycles.Load() != recycles })
	if !returned.Load() {
		t.Fatal("the recycle completed before the handler returned")
	}
	if !intact.Load() {
		t.Fatal("the handler's request changed under it while its QP recycled")
	}
	if r, err := p.Wait(); !errors.Is(err, ErrQPBroken) {
		r.Release()
		t.Fatalf("the call on the broken QP returned %v, want ErrQPBroken", err)
	}
	waitFor(t, "QP 0 live again", func() bool { return !q0.broken.Load() })
	r, err := th.CallWithDeadline(echoID, payload, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, payload) {
		t.Fatal("the rebuilt QP echoed different bytes")
	}
	r.Release()
	waitFor(t, "zero admitted requests", func() bool { return tc.server.inflight.Load() == 0 })
	tc.net.Close()
	if n := awaitLeaseDrain(3 * time.Second); n > base {
		t.Fatalf("%d pooled leases outstanding after close, %d before the test", n, base)
	}
}
