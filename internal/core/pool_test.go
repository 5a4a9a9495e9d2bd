package core

import (
	"bytes"
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
func TestInlineLaneAnswersWhileEveryWorkerBlocks(t *testing.T) {
	const (
		blockID, pingID = 40, 41
		workers, queued = 2, 4
	)
	base := mem.Default.Outstanding()
	tc := newTestCluster(t, 1, Options{Workers: workers}, Options{QPsPerConn: 2})
	release := make(chan struct{})
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

	// One call at a time, so each is its own message and occupies its own
	// worker; the rest queue behind the blocked pool.
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
		return tc.server.Metrics().ItemsIn >= workers+queued
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
	close(release)
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
}

// TestServerPollRoleVersusRecycle is the server twin of
// TestPollRoleVersusRecycle: pool goroutines pump a QP's request ring while
// recycleAccept rebuilds it under them, until the QP is quarantined. It
// passes when every call resolves, the server ends with nothing admitted and
// no pooled lease leaks; that no pump touches the request ring's consumer of
// a broken QP is the race detector's to say (ci.sh runs this test under
// -race, ten times): the consumer's state is plain memory that only the
// poll role, taken inside enter/exit, guards.
func TestServerPollRoleVersusRecycle(t *testing.T) {
	const pingID = 41
	base := mem.Default.Outstanding()
	tc := newTestCluster(t, 1, Options{Workers: 4}, Options{
		QPsPerConn: 2,
		test:       testKnobs{flapThreshold: 3},
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
	for !q0.disabled.Load() {
		// Break QP 0 under the pumps, let the recycle rebuild both ends and the
		// traffic find it again; the fourth break quarantines it.
		conn.markBroken(q0)
		waitFor(t, "QP 0 recycled or quarantined", func() bool {
			return !q0.broken.Load() || q0.disabled.Load()
		})
		before := calls.Load()
		waitFor(t, "traffic after the recycle", func() bool { return calls.Load() > before+200 })
	}
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
	if tc.server.metrics.workerPumped.Load() == pumped {
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
}
