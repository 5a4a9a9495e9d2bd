package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/check"
	"flock/internal/fabric"
)

// Tests for the unified completion path (ISSUE 7): the per-thread
// pending-call table, asynchronous calls (CallAsync/SendBatch) with full
// resilience parity, deep pipelining, and the regressions the refactor
// fixes by construction — RecvRes after close and the lost inflight
// decrement when recovery races an abandoned attempt. The
// package leak gate (TestMain) asserts zero outstanding leases after
// every test here.

// TestRecvResReturnsCompletedAfterClose pins the close contract of the
// SendRPC/RecvRes adapter: a response that completed before the handle
// closed is still returned (with its pooled lease) by a RecvRes issued
// after the close, and closure is reported only once nothing completed is
// left.
func TestRecvResReturnsCompletedAfterClose(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	if _, err := th.SendRPC(echoID, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "echo completion", func() bool { return th.Outstanding() == 0 })
	conn.Close()

	r, err := th.RecvRes()
	if err != nil {
		t.Fatalf("close surfaced %v before the completed response", err)
	}
	if !bytes.Equal(r.Data, []byte("survivor")) {
		t.Fatalf("RecvRes after close returned %q, want the real echo", r.Data)
	}
	r.Release()
	if _, err := th.RecvRes(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained-empty close path: %v, want ErrClosed", err)
	}
}

// TestSendRecvAdapter pins the SendRPC/RecvRes contract over the Pending
// engine, one case per clause of the two methods' godoc.
func TestSendRecvAdapter(t *testing.T) {
	const gateID = 24
	send := func(t *testing.T, th *Thread, rpcID uint32, msg string) uint64 {
		t.Helper()
		seq, err := th.SendRPC(rpcID, []byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	// recv expects the next response to answer seq with msg.
	recv := func(t *testing.T, th *Thread, seq uint64, msg string) {
		t.Helper()
		r, err := th.RecvRes()
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != seq || string(r.Data) != msg {
			t.Fatalf("RecvRes returned seq %d %q, want seq %d %q", r.Seq, r.Data, seq, msg)
		}
		r.Release()
	}
	cases := []struct {
		name string
		opts Options
		// run drives the case; opening gate lets the gateID handler return.
		run func(t *testing.T, tc *testCluster, th *Thread, gate chan struct{})
	}{
		{
			name: "submission-order",
			run: func(t *testing.T, tc *testCluster, th *Thread, gate chan struct{}) {
				a := send(t, th, gateID, "a")
				b := send(t, th, echoID, "b")
				c := send(t, th, echoID, "c")
				waitFor(t, "b and c to complete ahead of a", func() bool { return th.Outstanding() == 1 })
				close(gate)
				recv(t, th, a, "a")
				recv(t, th, b, "b")
				recv(t, th, c, "c")
			},
		},
		{
			name: "overflow-cancels-oldest",
			opts: Options{test: testKnobs{pipelineDepth: 2}},
			run: func(t *testing.T, tc *testCluster, th *Thread, gate chan struct{}) {
				send(t, th, echoID, "evicted")
				waitFor(t, "the first response (and its lease) to arrive", func() bool { return th.Outstanding() == 0 })
				b := send(t, th, echoID, "b")
				c := send(t, th, echoID, "c") // third unreceived call at depth 2
				recv(t, th, b, "b")
				recv(t, th, c, "c")
				if n := awaitLeaseDrain(5 * time.Second); n != 0 {
					t.Fatalf("%d leases outstanding: the evicted response was not released", n)
				}
			},
		},
		{
			name: "qp-poison-attributed",
			run: func(t *testing.T, tc *testCluster, th *Thread, gate chan struct{}) {
				send(t, th, gateID, "lost")
				th.conn.failInflight(th.conn.qps[0], ErrQPBroken)
				b := send(t, th, echoID, "b")
				if _, err := th.RecvRes(); err != ErrQPBroken {
					t.Fatalf("poisoned request: %v, want ErrQPBroken", err)
				}
				recv(t, th, b, "b")
				close(gate)
				waitFor(t, "the poisoned request's late response to be dropped", func() bool {
					return tc.clients[0].metrics.staleDrops.Load() == 1
				})
			},
		},
		{
			name: "empty-recv-unblocks-on-close",
			run: func(t *testing.T, tc *testCluster, th *Thread, gate chan struct{}) {
				got := make(chan error, 1)
				go func() { got <- recvDrop(th) }()
				time.Sleep(2 * time.Millisecond)
				th.conn.Close()
				if err := <-got; !errors.Is(err, ErrConnClosed) {
					t.Fatalf("RecvRes after Close: %v, want ErrConnClosed", err)
				}
			},
		},
	}
	for _, tcase := range cases {
		tcase := tcase
		t.Run(tcase.name, func(t *testing.T) {
			opts := tcase.opts
			opts.QPsPerConn = 1
			tc := newTestCluster(t, 1, Options{QPsPerConn: 1, Workers: 2}, opts)
			registerEcho(tc.server)
			gate := make(chan struct{})
			tc.server.RegisterHandler(gateID, func(req []byte) []byte {
				<-gate
				return append([]byte(nil), req...)
			})
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			tcase.run(t, tc, conn.RegisterThread(), gate)
		})
	}
}

// TestCallAsyncUnboundedWaitsOut pins wait parity with plain Call: a
// default-options async call (no RPCTimeout, no MaxAttempts) has a
// single-attempt plan with nothing to resubmit, so its Wait must ride out
// a slow handler rather than expire on the bounded per-attempt wait of a
// plan that may retry. The original regression surfaced as spurious
// ErrTimeout from FlockTransport.CallMulti under CPU contention.
func TestCallAsyncUnboundedWaitsOut(t *testing.T) {
	const slowID = 23
	tc := newTestCluster(t, 1, Options{}, Options{})
	tc.server.RegisterHandler(slowID, func(req []byte) []byte {
		time.Sleep(5 * DefaultStallTimeout) // past the 4x bounded attempt wait
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	p, err := th.CallAsync(slowID, []byte("patience"), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Wait()
	if err != nil {
		t.Fatalf("unbounded async call expired: %v", err)
	}
	if !bytes.Equal(r.Data, []byte("patience")) {
		t.Fatalf("got %q", r.Data)
	}
	r.Release()
}

// TestOverloadAbandonAccountingRace is the lost-decrement regression: QP
// poisoning (failInflight) racing deadline-abandoned attempts must leave
// the pending-call table at exactly zero. Under the old per-thread
// counter, a poison burst sized from a stale counter read could eat the
// decrement of an attempt that was concurrently abandoned, wedging
// Outstanding above zero forever.
func TestOverloadAbandonAccountingRace(t *testing.T) {
	const slowID = 21
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{QPsPerConn: 2})
	registerEcho(tc.server)
	tc.server.RegisterHandler(slowID, func(req []byte) []byte {
		time.Sleep(500 * time.Microsecond)
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var poisoner sync.WaitGroup
	poisoner.Add(1)
	go func() {
		defer poisoner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			conn.failInflight(conn.qps[i%len(conn.qps)], ErrQPBroken)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const nThreads, perThread = 4, 30
	threads := make([]*Thread, nThreads)
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		th := conn.RegisterThread()
		threads[g] = th
		wg.Add(1)
		go func(g int, th *Thread) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				r, err := th.CallWithDeadline(slowID, []byte(fmt.Sprintf("ar-%d-%d", g, i)), 2*time.Millisecond)
				switch {
				case err == nil:
					r.Release()
				case errors.Is(err, ErrTimeout) || errors.Is(err, ErrQPBroken):
				default:
					t.Errorf("unexpected error under poison race: %v", err)
					return
				}
			}
		}(g, threads[g])
	}
	wg.Wait()
	close(stop)
	poisoner.Wait()
	if t.Failed() {
		return
	}

	// The regression gate: every thread's table must converge to exactly
	// zero — no decrement was lost to the race, none double-counted.
	for i, th := range threads {
		th := th
		waitFor(t, fmt.Sprintf("thread %d pending table to empty", i), func() bool {
			return th.Outstanding() == 0
		})
	}
	callUntilOK(t, threads[0], []byte("post-race"))
}

// interleaveAsyncAndSync drives a mixed workload on one thread — a window
// of CallAsync futures with synchronous Calls issued between them — over a
// seeded lossy fabric, and checks the recorded history against EchoModel:
// every response must route to exactly the request that owns it. A call
// that fails transiently is recorded pending and offered again, as a call
// of its own, until it lands. Every call is its own checker client, since
// the window overlaps the thread's calls. The history is checked once the
// thread's pending-call table is empty. A completion path that hands a
// response to another of the thread's outstanding calls
// (mutPipelineMisroute) answers one call with another's payload.
func interleaveAsyncAndSync(t *testing.T) checkedRun {
	sOpts := Options{Workers: 4}
	cOpts := Options{RPCTimeout: 250 * time.Millisecond}
	retry := CallOptions{MaxAttempts: 6}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{Seed: 7, RCLossProb: 0.005})
	defer tc.net.Fabric().SetFaultPlan(nil)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	rec := check.NewRecorder()
	client := 0
	settle := func(call int64, payload []byte, r Response, err error) {
		t.Helper()
		in := check.EchoIn{Payload: string(payload)}
		deadline := time.Now().Add(chaosDeadline)
		for err != nil {
			if err != ErrOverloaded && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
				t.Fatalf("fatal error for %q: %v", payload, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%q never completed: %v", payload, err)
			}
			client++
			rec.EndPending(client, call, in)
			time.Sleep(200 * time.Microsecond)
			call = rec.Begin()
			r, err = th.CallOpts(echoID, payload, retry)
		}
		client++
		rec.End(client, call, in, check.EchoOut{Payload: string(r.Data), Status: r.Status})
		r.Release()
	}

	type inflight struct {
		p       *Pending
		call    int64
		payload []byte
	}
	const total, depth = 160, 8
	var window []inflight
	for i := 0; i < total; i++ {
		payload := []byte(fmt.Sprintf("async-%03d", i))
		call := rec.Begin()
		p, err := th.CallAsync(echoID, payload, retry)
		if err != nil {
			t.Fatalf("CallAsync: %v", err)
		}
		window = append(window, inflight{p, call, payload})
		if len(window) >= depth {
			f := window[0]
			window = window[:copy(window, window[1:])]
			r, err := f.p.Wait()
			settle(f.call, f.payload, r, err)
		}
		if i%5 == 0 {
			// A synchronous call right through the middle of the async
			// window, on the same thread.
			sp := []byte(fmt.Sprintf("sync-%03d", i))
			call := rec.Begin()
			r, err := th.CallOpts(echoID, sp, retry)
			settle(call, sp, r, err)
		}
	}
	for _, f := range window {
		r, err := f.p.Wait()
		settle(f.call, f.payload, r, err)
	}
	waitFor(t, "pending table to empty", func() bool { return th.Outstanding() == 0 })
	return checkedRun{tc: tc, res: check.Check(check.EchoModel(), rec.History())}
}

// TestCallInterleavesWithAsync runs the interleaving scenario on the
// shipped completion table: the history must be linearizable.
func TestCallInterleavesWithAsync(t *testing.T) {
	if res := interleaveAsyncAndSync(t).res; !res.Ok {
		t.Fatalf("interleaved history not linearizable:\n%s", res)
	}
}

// dedupRun is what one run of the keyed-retry scenario observed.
type dedupRun struct {
	tc    *testCluster
	th    *Thread
	resp  Response // the call's answer; the caller releases it
	execs uint64   // handler executions when the call was answered
}

// retryWhileOriginalExecutes is the keyed-retry scenario: a CallAsync whose
// first attempt times out client-side while the handler is still executing
// must retry under the same idempotency key, get NACKed or served from the
// dedup window, and resolve with the first execution's bytes — the handler
// runs once. A server that skips the dedup window (mutDedupSkip) runs the
// retry as well.
func retryWhileOriginalExecutes(t *testing.T) dedupRun {
	const countID = 22
	var execs atomic.Uint64
	cOpts := Options{
		// The NACK-retry cycle is fast (round trip + small backoff), so the
		// attempt cap and the retry-token burst must cover every retry the
		// window between first-attempt expiry and first-execution completion
		// can fit.
		test: testKnobs{retryBudgetBurst: 64},
	}
	tc := newTestCluster(t, 1, Options{Workers: 2}, cOpts)
	tc.server.RegisterHandler(countID, func(req []byte) []byte {
		if execs.Add(1) == 1 {
			// Outlive the 250ms per-attempt window (budget/4) but not the
			// 1s budget: the client retries while this copy executes.
			time.Sleep(300 * time.Millisecond)
		}
		return []byte{byte(execs.Load())}
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	p, err := th.CallAsync(countID, []byte("dup"), CallOptions{Budget: time.Second, MaxAttempts: 64})
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return dedupRun{tc: tc, th: th, resp: r, execs: execs.Load()}
}

// TestDedupAsyncRetrySingleExecution is the async parity check for
// idempotent dedup, on the keyed-retry scenario: the call resolves with the
// first execution's bytes and the handler executed exactly once.
func TestDedupAsyncRetrySingleExecution(t *testing.T) {
	run := retryWhileOriginalExecutes(t)
	r := run.resp
	defer r.Release()
	if r.Status != StatusOK {
		t.Fatalf("status %d, want StatusOK", r.Status)
	}
	if !bytes.Equal(r.Data, []byte{1}) {
		t.Fatalf("got %v, want the first execution's bytes", r.Data)
	}
	if run.execs != 1 {
		t.Fatalf("handler executed %d times, want exactly 1 — retries must dedup", run.execs)
	}
	if m := run.tc.clients[0].Metrics(); m.Retries == 0 {
		t.Fatal("no retry recorded — the dedup run was vacuous")
	}
	if m := run.tc.server.Metrics(); m.DedupHits == 0 {
		t.Fatalf("no dedup hit recorded (metrics %+v)", m)
	}
	waitFor(t, "straggler responses to resolve", func() bool { return run.th.Outstanding() == 0 })
}

// TestAsyncRetryDrivenByDone drives a keyed CallAsync through an attempt
// expiry and its retry with Done alone — the non-blocking arm of the
// engine, which otherwise only the cluster's group-commit harvest loop
// exercises. The handler's first execution is held until the first
// attempt's wait has expired, so the retry is either turned away while the
// original executes or served from the dedup window after it finished;
// either way the call resolves with the one execution's bytes.
func TestAsyncRetryDrivenByDone(t *testing.T) {
	const countID = 25
	var execs atomic.Uint64
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{})
	t.Cleanup(unblock) // before the nodes close: a held handler would hang them
	tc.server.RegisterHandler(countID, func(req []byte) []byte {
		n := execs.Add(1)
		if n == 1 {
			<-release
		}
		return []byte{byte(n)}
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	// Budget/4 = 200 ms is the first attempt's wait.
	p, err := th.CallAsync(countID, []byte("poll"), CallOptions{Budget: 800 * time.Millisecond, MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	client := tc.clients[0]
	waitFor(t, "the first attempt to expire", func() bool {
		if p.Done() {
			t.Fatal("call resolved while its only execution was still held")
		}
		return client.Metrics().Retries >= 1
	})
	// The abandoned attempt's response arriving as a stale drop says the
	// first execution is over and its result is in the dedup window.
	unblock()
	waitFor(t, "the first execution's response", func() bool { return client.Metrics().StaleDrops >= 1 })
	waitFor(t, "Done to report completion", p.Done)

	r, err := p.Wait()
	if err != nil {
		t.Fatalf("Wait after Done: %v", err)
	}
	if !bytes.Equal(r.Data, []byte{1}) {
		t.Fatalf("got %v, want the one execution's bytes", r.Data)
	}
	r.Release()
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want exactly 1", n)
	}
	waitFor(t, "straggler responses to resolve", func() bool { return th.Outstanding() == 0 })
}

// TestSendBatchEcho submits one batch of distinct payloads and asserts
// every Pending resolves with its own echo, and that the batch actually
// coalesced: the whole chain enters the combining queue in one push, so
// the items-per-message ratio must exceed one.
func TestSendBatchEcho(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	callUntilOK(t, th, []byte("warm"))

	m0 := tc.clients[0].Metrics()
	const n = 16
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{RPCID: echoID, Payload: []byte(fmt.Sprintf("batch-%02d", i))}
	}
	pends, err := th.SendBatch(ops, CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pends) != n {
		t.Fatalf("got %d pendings, want %d", len(pends), n)
	}
	for i, p := range pends {
		r, err := p.Wait()
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(r.Data, ops[i].Payload) {
			t.Fatalf("op %d misrouted: got %q, want %q", i, r.Data, ops[i].Payload)
		}
		r.Release()
	}
	m1 := tc.clients[0].Metrics()
	items := m1.ItemsOut - m0.ItemsOut
	msgs := m1.MsgsOut - m0.MsgsOut
	if items < n {
		t.Fatalf("batch sent %d items, want >= %d", items, n)
	}
	if msgs >= items {
		t.Fatalf("batch did not coalesce: %d messages for %d items", msgs, items)
	}
}

// TestSendBatchUnderChaos rides a batch over a lossy fabric with a
// six-attempt plan: lost attempts retry at Wait time exactly like CallAsync,
// and every op must eventually land with its own echo.
func TestSendBatchUnderChaos(t *testing.T) {
	cOpts := Options{RPCTimeout: 250 * time.Millisecond}
	retry := CallOptions{MaxAttempts: 6}
	tc := newTestCluster(t, 1, Options{Workers: 4}, cOpts)
	registerEcho(tc.server)
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{Seed: 9, RCLossProb: 0.01})
	defer tc.net.Fabric().SetFaultPlan(nil)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	for round := 0; round < 8; round++ {
		const n = 12
		ops := make([]BatchOp, n)
		for i := range ops {
			ops[i] = BatchOp{RPCID: echoID, Payload: []byte(fmt.Sprintf("cb-%d-%02d", round, i))}
		}
		pends, err := th.SendBatch(ops, retry)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, p := range pends {
			r, err := p.Wait()
			if err != nil {
				if err != ErrOverloaded && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
					t.Fatalf("round %d op %d fatal: %v", round, i, err)
				}
				deadline := time.Now().Add(chaosDeadline)
				for {
					r, err = th.CallOpts(echoID, ops[i].Payload, retry)
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("round %d op %d never completed: %v", round, i, err)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			if !bytes.Equal(r.Data, ops[i].Payload) {
				t.Fatalf("round %d op %d misrouted: got %q, want %q", round, i, r.Data, ops[i].Payload)
			}
			r.Release()
		}
	}
	waitFor(t, "pending table to empty", func() bool { return th.Outstanding() == 0 })
}

// TestDrainRefusesBatch pins drain pushback on the async entry points: a
// draining client node refuses CallAsync and SendBatch with ErrDraining
// (not closure), and serves both again after Resume.
func TestDrainRefusesBatch(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	callUntilOK(t, th, []byte("warm"))

	if err := tc.clients[0].Drain(nil); err != nil {
		t.Fatalf("idle client Drain: %v", err)
	}
	if _, err := th.CallAsync(echoID, []byte("x"), CallOptions{}); err != ErrDraining {
		t.Fatalf("CallAsync on draining node: %v, want ErrDraining", err)
	}
	ops := []BatchOp{{RPCID: echoID, Payload: []byte("y")}}
	if _, err := th.SendBatch(ops, CallOptions{}); err != ErrDraining {
		t.Fatalf("SendBatch on draining node: %v, want ErrDraining", err)
	}
	tc.clients[0].Resume()
	pends, err := th.SendBatch(ops, CallOptions{})
	if err != nil {
		t.Fatalf("SendBatch after Resume: %v", err)
	}
	r, err := pends[0].Wait()
	if err != nil {
		t.Fatalf("Wait after Resume: %v", err)
	}
	r.Release()
}

// TestSendBatchLargerThanDepth: a batch with more ops than the pipeline
// depth is admitted once the table is empty — waiting for room for all of
// it would wait for something no completion can bring about.
func TestSendBatchLargerThanDepth(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{test: testKnobs{pipelineDepth: 4}})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	ops := make([]BatchOp, 5)
	for i := range ops {
		ops[i] = BatchOp{RPCID: echoID, Payload: []byte(fmt.Sprintf("big-%d", i))}
	}
	var pends []*Pending
	done := make(chan error, 1)
	go func() {
		var err error
		pends, err = th.SendBatch(ops, CallOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SendBatch of 5 ops against a pipeline depth of 4 never returned")
	}
	for i, p := range pends {
		r, err := p.Wait()
		if err != nil || !bytes.Equal(r.Data, ops[i].Payload) {
			t.Fatalf("op %d: %v %q", i, err, r.Data)
		}
		r.Release()
	}
}

// TestPipelineDepthGate pins the backpressure contract: with
// the pipeline depth set, the N+1th CallAsync blocks until an earlier
// record completes, instead of growing the table without bound.
func TestPipelineDepthGate(t *testing.T) {
	const gateID = 25
	release := make(chan struct{})
	tc := newTestCluster(t, 1, Options{Workers: 8}, Options{test: testKnobs{pipelineDepth: 4}})
	tc.server.RegisterHandler(gateID, func(req []byte) []byte {
		<-release
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	var pends []*Pending
	for i := 0; i < 4; i++ {
		p, err := th.CallAsync(gateID, []byte(fmt.Sprintf("g-%d", i)), CallOptions{Budget: chaosDeadline})
		if err != nil {
			t.Fatal(err)
		}
		pends = append(pends, p)
	}

	overflowed := make(chan *Pending)
	go func() {
		p, err := th.CallAsync(gateID, []byte("g-4"), CallOptions{Budget: chaosDeadline})
		if err != nil {
			t.Errorf("overflow CallAsync: %v", err)
		}
		overflowed <- p
	}()
	select {
	case <-overflowed:
		t.Fatal("5th CallAsync returned with the table at the depth limit")
	case <-time.After(30 * time.Millisecond):
	}

	close(release)
	p := <-overflowed
	if p != nil {
		pends = append(pends, p)
	}
	for i, p := range pends {
		r, err := p.Wait()
		if err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		r.Release()
	}
}
