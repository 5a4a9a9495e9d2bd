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

	"flock/internal/fabric"
)

// Overload-control suite: admission pushback, idempotent dedup and
// graceful drain, exercised end to end over the software RNIC. The package leak gate (TestMain) doubles as the "drain
// ends at zero leases" assertion for every test here.

// TestOverloadPushback drives more concurrent work than the admission
// limit allows and asserts the excess is shed with typed pushback before
// any handler ran: callers see ErrOverloaded (not a timeout), the server
// counts the rejects, and a backed-off retry eventually lands every call.
func TestOverloadPushback(t *testing.T) {
	const slowID = 9
	tc := newTestCluster(t, 1, Options{AdmissionLimit: 2, Workers: 2}, Options{})
	tc.server.RegisterHandler(slowID, func(req []byte) []byte {
		time.Sleep(2 * time.Millisecond)
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}

	const nThreads, perThread = 6, 25
	var overloaded atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; i < perThread; i++ {
				payload := []byte(fmt.Sprintf("t%d-%d", g, i))
				deadline := time.Now().Add(chaosDeadline)
				for {
					r, err := th.Call(slowID, payload)
					if err == nil {
						if !bytes.Equal(r.Data, payload) {
							t.Errorf("echo mismatch under overload: %q != %q", r.Data, payload)
						}
						r.Release()
						break
					}
					switch {
					case err == ErrOverloaded:
						overloaded.Add(1)
					case errors.Is(err, ErrTimeout):
					default:
						t.Errorf("unexpected error under overload: %v", err)
						return
					}
					if time.Now().After(deadline) {
						t.Errorf("call never admitted: %v", err)
						return
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if overloaded.Load() == 0 {
		t.Fatal("no caller ever saw ErrOverloaded — the overload was vacuous")
	}
	if m := tc.server.Metrics(); m.RPCRejected == 0 {
		t.Fatalf("admission control rejected nothing (metrics %+v)", m)
	}
}

// TestDedupSingleExecution sends one idempotency key three ways — the
// original, a duplicate racing the still-executing original, and a
// duplicate after completion — and asserts the handler executed exactly
// once: the racer is NACKed with StatusOverloaded (never blocks a
// worker), the late duplicate is answered from the dedup window with the
// cached bytes.
func TestDedupSingleExecution(t *testing.T) {
	const countID = 11
	var execs atomic.Uint64
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{})
	// Before the nodes close: a failed assertion below would otherwise
	// leave the original's handler blocked, and Close waiting on it.
	t.Cleanup(unblock)
	tc.server.RegisterHandler(countID, func(req []byte) []byte {
		if execs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return []byte{byte(execs.Load())}
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	const key = 42
	// keyed submits one single-attempt copy of the request under the
	// shared idempotency key and returns its future and sequence ID.
	keyed := func() (*Pending, uint64) {
		p := &Pending{t: th, rpcID: countID, payload: []byte("dup"), attempts: 1,
			idemKey: key, deadline: time.Now().Add(chaosDeadline)}
		if p.startAttempt(true); p.phase == pendDone {
			t.Fatal(p.err)
		}
		return p, p.rec.seq
	}

	pA, seqA := keyed()
	<-entered // the original is executing and holds the dedup reservation
	pB, _ := keyed()
	if _, err := pB.Wait(); err != ErrOverloaded {
		t.Fatalf("racing duplicate: %v, want the StatusOverloaded NACK as ErrOverloaded", err)
	}

	unblock()
	rA, err := pA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rA.Seq != seqA || rA.Status != StatusOK {
		t.Fatalf("original: seq=%d status=%d, want seq=%d StatusOK", rA.Seq, rA.Status, seqA)
	}
	want := append([]byte(nil), rA.Data...)
	rA.Release()

	pC, seqC := keyed()
	rC, err := pC.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rC.Seq != seqC || rC.Status != StatusOK {
		t.Fatalf("late duplicate: seq=%d status=%d, want seq=%d StatusOK", rC.Seq, rC.Status, seqC)
	}
	if !bytes.Equal(rC.Data, want) {
		t.Fatalf("cached replay mismatch: %v != %v", rC.Data, want)
	}
	rC.Release()

	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want exactly 1", n)
	}
	if m := tc.server.Metrics(); m.DedupHits == 0 {
		t.Fatalf("no dedup hit recorded (metrics %+v)", m)
	}
}

// TestKeyOnlyWhenPlanCanDuplicate: a one-attempt plan can never
// put a second copy of its request on the wire, so it carries no
// idempotency key and the server's dedup window stays empty; a plan that may
// retry is keyed and leaves its entry.
func TestKeyOnlyWhenPlanCanDuplicate(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	window := tc.server.snapshotSconns()[0].dedup
	for _, c := range []struct {
		opts CallOptions
		want int
	}{
		{CallOptions{}, 0},
		{CallOptions{MaxAttempts: 2}, 1},
	} {
		p, err := th.CallAsync(echoID, []byte("keyed?"), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
		if got := window.Len(); got != c.want {
			t.Fatalf("dedup window holds %d entries after CallAsync(%+v), want %d", got, c.opts, c.want)
		}
	}
}

// TestDrainQuiesces drains the server under live fire: Drain must return
// once nothing is in flight while callers are pushed back with
// ErrDraining (not timeouts, not ErrClosed), and Resume must restore
// service on the same connections.
func TestDrainQuiesces(t *testing.T) {
	tc := newTestCluster(t, 1, Options{Workers: 1}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th0 := conn.RegisterThread()
	callUntilOK(t, th0, []byte("warm"))

	stop := make(chan struct{})
	var drainNACKs atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
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
				err := callDrop(th, echoID, []byte(fmt.Sprintf("g%d-%d", g, i)))
				switch {
				case err == nil:
				case err == ErrDraining:
					drainNACKs.Add(1)
					time.Sleep(200 * time.Microsecond)
				case errors.Is(err, ErrTimeout) || err == ErrOverloaded:
				default:
					t.Errorf("unexpected error during drain: %v", err)
					return
				}
			}
		}(g)
	}

	ctx, cancel := context.WithTimeout(context.Background(), chaosDeadline)
	defer cancel()
	if err := tc.server.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !tc.server.Draining() {
		t.Fatal("Draining() false after Drain returned")
	}
	waitFor(t, "a drain NACK to reach a caller", func() bool { return drainNACKs.Load() > 0 })
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if m := tc.server.Metrics(); m.RPCRejectedDraining == 0 {
		t.Fatalf("no drain rejections recorded (metrics %+v)", m)
	}

	tc.server.Resume()
	callUntilOK(t, th0, []byte("post-drain"))
}

// TestDrainingVsClosedErrors pins the error taxonomy callers route on:
// drain pushback means "the node is healthy, retry elsewhere" and must
// not look like closure, while connection teardown means "give up" and
// must wrap ErrClosed.
func TestDrainingVsClosedErrors(t *testing.T) {
	if errors.Is(ErrDraining, ErrClosed) {
		t.Fatal("ErrDraining must not wrap ErrClosed — it means retry elsewhere")
	}
	if !errors.Is(ErrConnClosed, ErrClosed) {
		t.Fatal("ErrConnClosed must wrap ErrClosed")
	}

	tc := newTestCluster(t, 2, Options{}, Options{})
	registerEcho(tc.server)

	// A draining client node refuses new sends with ErrDraining and serves
	// again after Resume.
	connA, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	thA := connA.RegisterThread()
	if err := callDrop(thA, echoID, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if err := tc.clients[0].Drain(nil); err != nil {
		t.Fatalf("idle client Drain: %v", err)
	}
	if err := callDrop(thA, echoID, []byte("x")); err != ErrDraining {
		t.Fatalf("call on draining node: %v, want ErrDraining", err)
	}
	tc.clients[0].Resume()
	if err := callDrop(thA, echoID, []byte("y")); err != nil {
		t.Fatalf("call after Resume: %v", err)
	}

	// A closed connection surfaces the recorded teardown cause.
	connB, err := tc.clients[1].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	thB := connB.RegisterThread()
	if err := callDrop(thB, echoID, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	connB.Close()
	err = callDrop(thB, echoID, []byte("z"))
	if err != ErrConnClosed {
		t.Fatalf("call on closed conn: %v, want ErrConnClosed", err)
	}
	if !errors.Is(err, ErrClosed) || errors.Is(err, ErrDraining) {
		t.Fatalf("closed-conn error taxonomy wrong: %v", err)
	}
}

// TestOverloadChaos is the seeded end-to-end overload run: offered load
// well past the admission limit from two client nodes, RC loss injected
// underneath, clients on a six-attempt plan retrying with jittered backoff. Every
// call must eventually land with its own echo, shedding and retries must
// both actually happen (vacuity gates), and afterwards both roles must
// drain to quiescence.
func TestOverloadChaos(t *testing.T) {
	const slowID = 14
	sOpts := Options{AdmissionLimit: 2, Workers: 2}
	cOpts := Options{RPCTimeout: 250 * time.Millisecond}
	tc := newTestCluster(t, 2, sOpts, cOpts)
	registerEcho(tc.server)
	tc.server.RegisterHandler(slowID, func(req []byte) []byte {
		time.Sleep(500 * time.Microsecond)
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{Seed: 6, RCLossProb: 0.01})

	const nThreads, perThread = 4, 25
	var wg sync.WaitGroup
	conns := make([]*Conn, len(tc.clients))
	for ci, cl := range tc.clients {
		conn, err := cl.Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		conns[ci] = conn
		for g := 0; g < nThreads; g++ {
			wg.Add(1)
			go func(ci, g int, conn *Conn) {
				defer wg.Done()
				th := conn.RegisterThread()
				for i := 0; i < perThread; i++ {
					payload := []byte(fmt.Sprintf("c%d-t%d-%d", ci, g, i))
					deadline := time.Now().Add(chaosDeadline)
					for {
						r, err := th.CallOpts(slowID, payload, CallOptions{MaxAttempts: 6})
						if err == nil {
							if !bytes.Equal(r.Data, payload) {
								t.Errorf("echo mismatch under chaos: %q != %q", r.Data, payload)
							}
							r.Release()
							break
						}
						if err != ErrOverloaded && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
							t.Errorf("fatal error under overload chaos: %v", err)
							return
						}
						if time.Now().After(deadline) {
							t.Errorf("call never completed: last error %v", err)
							return
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
			}(ci, g, conn)
		}
	}
	wg.Wait()
	tc.net.Fabric().SetFaultPlan(nil)
	if t.Failed() {
		return
	}

	if fs := tc.net.Fabric().FaultCounters(); fs.RCDropped == 0 {
		t.Fatal("fault plan injected nothing — the chaos run was vacuous")
	}
	if m := tc.server.Metrics(); m.RPCRejected == 0 {
		t.Fatalf("admission control rejected nothing under 2x overload (metrics %+v)", m)
	}
	var retries uint64
	for _, cl := range tc.clients {
		retries += cl.Metrics().Retries
	}
	if retries == 0 {
		t.Fatal("no client retry recorded — resilience path never engaged")
	}

	// Both roles must drain to quiescence: zero admitted server work, zero
	// outstanding client RPCs (the leak gate separately proves zero leases).
	ctx, cancel := context.WithTimeout(context.Background(), chaosDeadline)
	defer cancel()
	if err := tc.server.Drain(ctx); err != nil {
		t.Fatalf("server Drain: %v", err)
	}
	for i, cl := range tc.clients {
		if err := cl.Drain(ctx); err != nil {
			t.Fatalf("client %d Drain: %v", i, err)
		}
	}
	tc.server.Resume()
	for _, cl := range tc.clients {
		cl.Resume()
	}
	th := conns[0].RegisterThread()
	callUntilOK(t, th, []byte("post-chaos"))
}
