package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/mem"
)

// drainCounts reads a node's waiter and relief completion counters.
func drainCounts(n *Node) (waiter, relief uint64) {
	return n.metrics.waiterCompletions.Load(), n.metrics.reliefCompletions.Load()
}

// TestWaiterDrainsItsOwnQP pins who drains what: the waiter polls the QP
// its attempt rode, and the dispatcher relieves only what no waiter serves.
func TestWaiterDrainsItsOwnQP(t *testing.T) {
	for _, row := range []struct {
		name string
		// noDispatcher marks the client's loop started before it connects,
		// so the loop never runs and only waiters ever poll.
		noDispatcher bool
		run          func(t *testing.T, tc *testCluster, conn *Conn)
	}{
		{name: "sync-read-loop", run: syncReadLoopRow},
		{name: "unwaited-window", run: unwaitedWindowRow},
		{name: "parked-beside-a-busy-waiter", run: parkedBesideBusyRow},
		{name: "done-only-loop", noDispatcher: true, run: doneOnlyLoopRow},
	} {
		t.Run(row.name, func(t *testing.T) {
			tc := newTestCluster(t, 1, Options{}, Options{QPsPerConn: 1})
			registerEcho(tc.server)
			if row.noDispatcher {
				tc.clients[0].started = true
			}
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			row.run(t, tc, conn)
		})
	}
}

// syncReadLoopRow: a synchronous Read loop drains (nearly) all of its own
// completions.
func syncReadLoopRow(t *testing.T, tc *testCluster, conn *Conn) {
	th := conn.RegisterThread()
	region, err := conn.AttachMemRegion(64)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8)
	w0, r0 := drainCounts(tc.clients[0])
	const reads = 2000
	for i := 0; i < reads; i++ {
		if err := th.Read(region, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	w1, r1 := drainCounts(tc.clients[0])
	w, r := w1-w0, r1-r0
	if w+r < reads || float64(w) < 0.9*float64(w+r) {
		t.Fatalf("%d reads: %d completions drained by the waiter, %d by relief; want >= 90%% by the waiter", reads, w, r)
	}
}

// unwaitedWindowRow: a CallAsync window nobody waits on reaches its records
// through the relief dispatcher, promptly.
func unwaitedWindowRow(t *testing.T, tc *testCluster, conn *Conn) {
	th := conn.RegisterThread()
	// Best of a few tries: the bound is about the design, not about a
	// descheduled test goroutine.
	best := time.Hour
	for try := 0; try < 5 && best > 10*time.Millisecond; try++ {
		w0, r0 := drainCounts(tc.clients[0])
		start := time.Now()
		ps := make([]*Pending, 8)
		for i := range ps {
			p, err := th.CallAsync(echoID, []byte(fmt.Sprintf("w%d", i)), CallOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		for _, p := range ps {
			for !p.rec.resolved() { // delivered = the record is done
				if time.Since(start) > 5*time.Second {
					t.Fatal("an unwaited window was never relieved")
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		best = min(best, time.Since(start))
		// pollQP counts what it drained after delivering it.
		waitFor(t, "relief's drain count", func() bool {
			_, r1 := drainCounts(tc.clients[0])
			return r1-r0 >= uint64(len(ps))
		})
		if w1, r1 := drainCounts(tc.clients[0]); w1 != w0 || r1-r0 < uint64(len(ps)) {
			t.Fatalf("unwaited window: %d completions by a waiter, %d by relief; want 0 and >= %d", w1-w0, r1-r0, len(ps))
		}
		for _, p := range ps {
			r, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
	}
	if best > 10*time.Millisecond {
		t.Fatalf("an unwaited window took %v to reach its records, want within 10ms", best)
	}
}

// parkedBesideBusyRow: a waiter parked on a slow reply-later handler is
// answered promptly even though another thread keeps its QP served.
func parkedBesideBusyRow(t *testing.T, tc *testCluster, conn *Conn) {
	const laterID = 42
	var sentAt atomic.Int64
	tc.server.RegisterReplyHandler(laterID, false, func(req []byte, r *Reply) {
		go func() {
			time.Sleep(20 * time.Millisecond)
			sentAt.Store(time.Now().UnixNano())
			r.Send(nil, StatusOK)
		}()
	})
	hammer, slow := conn.RegisterThread(), conn.RegisterThread()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := callDrop(hammer, echoID, []byte("hammer")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	best := time.Hour
	for try := 0; try < 3 && best > 5*time.Millisecond; try++ {
		r, err := slow.Call(laterID, nil)
		answered := time.Now()
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
		best = min(best, answered.Sub(time.Unix(0, sentAt.Load())))
	}
	close(stop)
	wg.Wait()
	if best > 5*time.Millisecond {
		t.Fatalf("a parked waiter was answered %v after the reply, want within 5ms", best)
	}
}

// doneOnlyLoopRow: a loop that only ever calls Done, as the replication
// forwarder's landed does, completes its calls with no dispatcher at all.
func doneOnlyLoopRow(t *testing.T, tc *testCluster, conn *Conn) {
	th := conn.RegisterThread()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 50; i++ {
		p, err := th.CallAsync(echoID, []byte("landed?"), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for !p.Done() {
			if time.Now().After(deadline) {
				t.Fatal("a Done-only loop never completed its call")
			}
			runtime.Gosched()
		}
		r, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	if w, r := drainCounts(tc.clients[0]); w < 50 || r != 0 {
		t.Fatalf("Done-only loop: %d completions by a waiter, %d by relief; want >= 50 and 0", w, r)
	}
}

// TestTimeoutStrikesTheAttemptsQP: a deadline expiry on a silent QP is a
// strike against the QP the attempt rode, even after its thread has moved to
// another one whose echo was answered.
func TestTimeoutStrikesTheAttemptsQP(t *testing.T) {
	const silentID = 43
	tc := newTestCluster(t, 1, Options{}, Options{QPsPerConn: 2})
	registerEcho(tc.server)
	tc.server.RegisterReplyHandler(silentID, false, func(req []byte, r *Reply) {}) // never answers
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	p, err := th.CallAsync(silentID, []byte("x"), CallOptions{Budget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.rec.qp(); got != 0 {
		t.Fatalf("the silent call rode QP %d, want 0", got)
	}
	conn.qps[0].ctrl.Store64(ctrlActiveOff, 0)
	if err := callDrop(th, echoID, []byte("move")); err != nil {
		t.Fatal(err)
	}
	if cur := th.curQP.Load(); cur != 1 {
		t.Fatalf("the echo left the thread on QP %d, want 1", cur)
	}
	conn.qps[0].ctrl.Store64(ctrlActiveOff, 1)
	if _, err := p.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("silent call: err = %v, want ErrTimeout", err)
	}
	if q0, q1 := conn.qps[0].strikes, conn.qps[1].strikes; q0 != 1 || q1 != 0 {
		t.Fatalf("qp0.strikes=%d qp1.strikes=%d, want 1 and 0", q0, q1)
	}
}

// TestSlowServerIsNotADeadQP: a deadline expiry on a QP that keeps
// answering is the server being slow, not the QP being dead. One thread's
// calls to a handler slower than their budget all expire, while another
// thread's echoes keep completing on the same QP: every expiry is counted,
// none strikes the QP, so it is neither recycled nor quarantined and the
// echoes never see an error.
//
// The one worker runs the slow requests and the echoes in arrival order, so
// an answer (a late one and an echo) arrives every late = 2.75 budgets while
// the slow calls expire one budget apart: three expiries fall between two
// answers — a rule that struck every expiry reset only by a completed call
// breaks the QP — yet every third wait has an answer land in its middle,
// a quarter budget from either end, so no three waits in a row are silent.
func TestSlowServerIsNotADeadQP(t *testing.T) {
	const slowID = 44
	const budget = 20 * time.Millisecond
	const late = budget * 11 / 4
	const slowCalls = 6
	tc := newTestCluster(t, 1, Options{Workers: 1}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	stop := make(chan struct{})
	tc.server.RegisterHandler(slowID, func([]byte) []byte {
		select {
		case <-time.After(late):
		case <-stop: // the test is done: do not hold Close up
		}
		return nil
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	echoErr := make(chan error, 1)
	var echoes atomic.Uint64
	go func() {
		th := conn.RegisterThread()
		for {
			select {
			case <-stop:
				echoErr <- nil
				return
			default:
			}
			if err := callDrop(th, echoID, []byte("alive")); err != nil {
				echoErr <- err
				return
			}
			echoes.Add(1)
		}
	}()
	waitFor(t, "the echoes to flow", func() bool { return echoes.Load() > 0 })
	th := conn.RegisterThread()
	for i := 0; i < slowCalls; i++ {
		r, err := th.CallWithDeadline(slowID, nil, budget)
		r.Release()
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("slow call %d: err = %v, want ErrTimeout", i, err)
		}
	}
	close(stop)
	if err := <-echoErr; err != nil {
		t.Fatalf("echo thread: %v", err)
	}
	m := tc.clients[0].Metrics()
	if m.QPRecycles != 0 || m.QPQuarantines != 0 || m.RPCTimeouts != slowCalls {
		t.Fatalf("recycles=%d quarantines=%d rpc_timeouts=%d, want 0, 0 and %d",
			m.QPRecycles, m.QPQuarantines, m.RPCTimeouts, slowCalls)
	}
}

// TestPollRoleVersusRecycle runs waiters spinning on a QP while it is broken,
// recycled and finally quarantined under them. It passes when every call
// resolves, no pending-call record is left behind and no pooled lease leaks;
// that the recycler never touches the ring while a waiter is inside it is
// the race detector's to say (ci.sh runs this test under -race, ten times):
// the ring consumer's state is plain memory that only the poll role guards.
func TestPollRoleVersusRecycle(t *testing.T) {
	base := mem.Default.Outstanding()
	tc := newTestCluster(t, 1, Options{}, Options{
		QPsPerConn: 2,
	})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := conn.AttachMemRegion(64)
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
			dst := make([]byte, 8)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if n%2 == 0 {
					var r Response
					r, err = th.CallWithDeadline(echoID, []byte(fmt.Sprintf("t%d-%d", i, n)), time.Second)
					r.Release()
				} else {
					err = th.Read(region, 0, dst)
				}
				if err != nil && !errors.Is(err, ErrQPBroken) && !errors.Is(err, ErrTimeout) {
					t.Errorf("thread %d: %v", i, err)
					return
				}
				calls.Add(1)
			}
		}(i, th)
	}
	waitFor(t, "traffic on both QPs", func() bool { return calls.Load() > 100 })
	for range DefaultFlapThreshold {
		// Break QP 0 under its waiters, let the recycler rebuild it and the
		// traffic find it again.
		conn.markBroken(q0)
		waitFor(t, "QP 0 recycled", func() bool { return !q0.broken.Load() })
		before := calls.Load()
		waitFor(t, "traffic after the recycle", func() bool { return calls.Load() > before+200 })
	}
	// Traffic found QP 0 after each recycle, so those breaks were no streak:
	// cutting its own link is what quarantines it under the waiters.
	flapIntoQuarantine(t, tc, q0)
	close(stop)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(chaosDeadline):
		t.Fatal("a waiter never resolved")
	}
	for i, th := range threads {
		if n := th.Outstanding(); n != 0 {
			t.Fatalf("thread %d left %d records unresolved", i, n)
		}
	}
	if m := tc.clients[0].Metrics(); m.QPRecycles < 3 || m.QPQuarantines != 1 {
		t.Fatalf("recycles=%d quarantines=%d, want >= 3 and 1", m.QPRecycles, m.QPQuarantines)
	}
	tc.net.Close()
	if n := awaitLeaseDrain(3 * time.Second); n > base {
		t.Fatalf("%d pooled leases outstanding after close, %d before the test", n, base)
	}
}
