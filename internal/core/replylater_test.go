package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeadlineExpiresBySweep: no call arms a timer for its deadline — the
// scheduler tick's sweep completes an overdue record with an expiry poison.
// A 5 ms one-attempt deadline against a handler that answers after 50 ms
// must therefore expire — ErrTimeout, not the answer — no earlier than 5 ms
// and (scheduling hiccups aside, so: in the best of a few tries) no later
// than two sweeps after that,
// return ErrTimeout, strike the QP exactly once, and leave the late response
// to be counted as one stale drop. Driven by Wait and by Done alone.
func TestDeadlineExpiresBySweep(t *testing.T) {
	const slowID = 31
	const budget = 5 * time.Millisecond
	const late = 50 * time.Millisecond
	for _, how := range []string{"Wait", "Done"} {
		t.Run(how, func(t *testing.T) {
			tc := newTestCluster(t, 1, Options{Workers: 2}, Options{QPsPerConn: 1})
			tc.server.RegisterHandler(slowID, func(req []byte) []byte {
				time.Sleep(late)
				return nil
			})
			client := tc.clients[0]
			conn, err := client.Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			th := conn.RegisterThread()
			best := time.Hour
			const tries = 5
			for i := 1; i <= tries; i++ {
				start := time.Now()
				p, err := th.CallAsync(slowID, []byte("x"), CallOptions{Budget: budget, MaxAttempts: 1})
				if err != nil {
					t.Fatal(err)
				}
				if how == "Done" {
					for !p.Done() {
						time.Sleep(50 * time.Microsecond)
					}
				}
				_, err = p.Wait()
				took := time.Since(start)
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("try %d: err = %v after %v, want ErrTimeout", i, err, took)
				}
				if took < budget {
					t.Fatalf("try %d: expired after %v, before its %v deadline", i, took, budget)
				}
				best = min(best, took)
				// The QP was silent through the wait, so the expiry struck it —
				// once: the previous try's late response moved its stamp, so
				// this strike starts a new run.
				if got := conn.qps[0].strikes; got != 1 {
					t.Fatalf("try %d: QP holds %d silent strikes, want 1", i, got)
				}
				if got := client.Metrics().RPCTimeouts; got != uint64(i) {
					t.Fatalf("try %d: rpc_timeouts = %d, want %d", i, got, i)
				}
				waitFor(t, "the late response to be dropped as stale", func() bool {
					return client.Metrics().StaleDrops == uint64(i)
				})
			}
			if limit := budget + 2*DefaultSchedInterval; best > limit {
				t.Fatalf("best of %d expiries took %v, want within two sweeps of the deadline (%v)", tries, best, limit)
			}
			if th.Outstanding() != 0 {
				t.Fatalf("%d records left in the table", th.Outstanding())
			}
		})
	}
}

// laterHandler registers on n a handler that keeps its reply handle and
// answers from another goroutine once release is closed — or, with a nil
// release, a millisecond after returning.
func laterHandler(n *Node, rpcID uint32, execs *atomic.Uint64, release <-chan struct{}, sent chan<- *Reply) {
	n.RegisterReplyHandler(rpcID, false, func(req []byte, r *Reply) {
		execs.Add(1)
		out := append([]byte("later:"), req...) // req itself must not outlive the handler
		go func() {
			if release != nil {
				<-release
			} else {
				time.Sleep(time.Millisecond)
			}
			r.Send(out, StatusOK)
			if sent != nil {
				sent <- r
			}
		}()
	})
}

// TestReplyLaterDelivered: a handler that returns first and replies from
// another goroutine a millisecond later — the caller gets that reply, once;
// a second Send inside a handler is a no-op. Worker pool and inline mode.
func TestReplyLaterDelivered(t *testing.T) {
	const laterID, twiceID = 32, 37
	for _, workers := range []int{0, 2} {
		tc := newTestCluster(t, 1, Options{Workers: workers}, Options{})
		var execs atomic.Uint64
		sent := make(chan *Reply, 1)
		laterHandler(tc.server, laterID, &execs, nil, sent)
		tc.server.RegisterReplyHandler(twiceID, false, func(req []byte, r *Reply) {
			r.Send([]byte("first"), StatusOK)
			r.Send([]byte("again"), StatusOK) // no-op
		})
		registerEcho(tc.server)
		conn, err := tc.clients[0].Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		th := conn.RegisterThread()
		for i := 0; i < 20; i++ {
			r, err := th.Call(laterID, []byte("ping"))
			if err != nil {
				t.Fatalf("workers=%d call %d: %v", workers, i, err)
			}
			if r.Status != StatusOK || !bytes.Equal(r.Data, []byte("later:ping")) {
				t.Fatalf("workers=%d call %d: status %d data %q", workers, i, r.Status, r.Data)
			}
			r.Release()
			<-sent // the late Send has returned: its handle is the server's again
			if r, err := th.Call(twiceID, nil); err != nil || string(r.Data) != "first" {
				t.Fatalf("workers=%d call %d: a handler sending twice answered (%q, %v)", workers, i, r.Data, err)
			} else {
				r.Release()
			}
			if err := callDrop(th, echoID, []byte("between")); err != nil {
				t.Fatal(err)
			}
		}
		if got := execs.Load(); got != 20 {
			t.Fatalf("workers=%d: %d executions for 20 calls", workers, got)
		}
		if got := tc.clients[0].Metrics().StaleDrops; got != 0 {
			t.Fatalf("workers=%d: %d stale drops — some request was answered twice", workers, got)
		}
		if got := tc.server.inflight.Load(); got != 0 {
			t.Fatalf("workers=%d: server still counts %d requests admitted", workers, got)
		}
	}
}

// TestReplyLaterDedupCommitsAtReply: the idempotency window commits when
// the reply is sent, not when the handler returns. A keyed retry arriving
// while the reply is still owed gets the DedupInflight pushback; one
// arriving after it gets the cached answer; the handler ran once.
func TestReplyLaterDedupCommitsAtReply(t *testing.T) {
	const laterID = 33
	// The pushback-retry cycle is fast, so the attempt cap and the retry-token
	// burst must cover every retry that fits between the first attempt's
	// expiry and the reply.
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{test: testKnobs{retryBudgetBurst: 64}})
	var execs atomic.Uint64
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	laterHandler(tc.server, laterID, &execs, release, nil)
	client := tc.clients[0]
	conn, err := client.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	// The first attempt waits budget/4 = 100 ms: the handler has long
	// returned when the retries arrive, and only the reply is outstanding.
	p, err := th.CallAsync(laterID, []byte("k"), CallOptions{Budget: 400 * time.Millisecond, MaxAttempts: 64})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a retry to be pushed back while the reply is owed", func() bool {
		if p.Done() {
			t.Fatal("call resolved while its reply was still held")
		}
		return client.Metrics().Retries >= 2
	})
	if got := tc.server.Metrics().DedupHits; got != 0 {
		t.Fatalf("%d dedup hits before the reply was sent: the window committed at the handler's return", got)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times while its reply was owed", got)
	}
	unblock()
	r, err := p.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if !bytes.Equal(r.Data, []byte("later:k")) {
		t.Fatalf("got %q", r.Data)
	}
	r.Release()
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
	if got := tc.server.Metrics().DedupHits; got != 1 {
		t.Fatalf("%d dedup hits, want 1: the retry after the reply is answered from the window", got)
	}
	waitFor(t, "straggler responses to resolve", func() bool { return th.Outstanding() == 0 })
}

// TestDrainWaitsForLateReply: an unanswered deferred request counts as in
// flight — Drain returns only after its reply is sent.
func TestDrainWaitsForLateReply(t *testing.T) {
	const laterID = 34
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{})
	var execs atomic.Uint64
	release := make(chan struct{})
	laterHandler(tc.server, laterID, &execs, release, nil)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	p, err := th.CallAsync(laterID, []byte("d"), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the handler to return", func() bool { return execs.Load() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- tc.server.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a deferred request unanswered", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r, err := p.Wait()
	if err != nil || !bytes.Equal(r.Data, []byte("later:d")) {
		t.Fatalf("late reply = (%q, %v)", r.Data, err)
	}
	r.Release()
}

// TestLateReplyAfterCloseOrRecycleDropped: a reply sent after the node
// closed, or after the QP its request arrived on was recycled, is dropped
// without a panic and without a lease left behind (the package leak gate
// checks the latter at exit).
func TestLateReplyAfterCloseOrRecycleDropped(t *testing.T) {
	const laterID = 35
	t.Run("recycled", func(t *testing.T) {
		tc := newTestCluster(t, 1, Options{Workers: 2}, Options{QPsPerConn: 1})
		var execs atomic.Uint64
		release := make(chan struct{})
		sent := make(chan *Reply, 1)
		laterHandler(tc.server, laterID, &execs, release, sent)
		registerEcho(tc.server)
		client := tc.clients[0]
		conn, err := client.Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		th := conn.RegisterThread()
		p, err := th.CallAsync(laterID, []byte("r"), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the handler to return", func() bool { return execs.Load() == 1 })
		conn.markBroken(conn.qps[0])
		if _, err := p.Wait(); !errors.Is(err, ErrQPBroken) {
			t.Fatalf("call on the broken QP: %v, want ErrQPBroken", err)
		}
		waitFor(t, "the QP to be recycled", func() bool { return client.Metrics().QPRecycles >= 1 && conn.qps[0].active() })
		callUntilOK(t, th, []byte("healed"))
		_, peerQPN := conn.qps[0].qp.Peer()
		sqp := tc.server.byQPN.Load().(map[int]*serverQP)[peerQPN]
		respTail := func() uint64 {
			sqp.respMu.Lock()
			defer sqp.respMu.Unlock()
			return sqp.respProd.tail
		}
		before := respTail()
		close(release)
		<-sent
		if after := respTail(); after != before {
			t.Fatalf("the previous life's reply moved the rebuilt response ring's tail %d -> %d", before, after)
		}
		if got := tc.server.inflight.Load(); got != 0 {
			t.Fatalf("server still counts %d requests admitted after the dropped reply", got)
		}
		callUntilOK(t, th, []byte("after"))
		if got := client.Metrics().StaleDrops; got != 0 {
			t.Fatalf("%d stale drops: the previous life's reply reached the client", got)
		}
	})
	t.Run("closed", func(t *testing.T) {
		tc := newTestCluster(t, 1, Options{Workers: 2}, Options{})
		var execs atomic.Uint64
		release := make(chan struct{})
		sent := make(chan *Reply, 1)
		laterHandler(tc.server, laterID, &execs, release, sent)
		conn, err := tc.clients[0].Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		th := conn.RegisterThread()
		p, err := th.CallAsync(laterID, []byte("c"), CallOptions{Budget: 50 * time.Millisecond, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the handler to return", func() bool { return execs.Load() == 1 })
		tc.server.Close()
		close(release)
		<-sent
		if _, err := p.Wait(); err == nil {
			t.Fatal("call answered by a closed node")
		}
	})
}

// TestLateReplyRecyclesHandlesOnce: a message's reply handles share one
// block, held by the goroutine executing the message and by every reply
// still owed when its handler returned; the last to let go recycles it. Here
// every handler answers from a goroutine of its own, racing its own return,
// into the handle's own buffer, from two threads two calls deep — few enough
// blocks in circulation that a freed one is taken again at once, and enough
// that a message sometimes carries two requests. A block recycled while a
// holder still used it — the executor's hold dropped by a racing Send, a
// late reply's before its flush, or a block freed twice — would hand one
// handle to two requests, and a response would carry another request's
// bytes. Each response must equal its request, and nothing may be left
// admitted or leased at the end.
func TestLateReplyRecyclesHandlesOnce(t *testing.T) {
	const raceID = 36
	const threads, perThread, window = 2, 5000, 2
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{})
	tc.server.RegisterReplyHandler(raceID, false, func(req []byte, r *Reply) {
		out := append(r.Buf(), req...)
		go r.Send(out, StatusOK)
		if req[len(req)-1]&1 == 0 {
			runtime.Gosched() // let the Send win the race about half the time
		}
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for i := 0; i < threads; i++ {
		th := conn.RegisterThread()
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			type call struct {
				p   *Pending
				req [16]byte
			}
			var fly []call
			wait := func(c call) error {
				r, err := c.p.Wait()
				if err != nil {
					return err
				}
				defer r.Release()
				if r.Status != StatusOK || !bytes.Equal(r.Data, c.req[:]) {
					return fmt.Errorf("request %x answered (%d, %x)", c.req, r.Status, r.Data)
				}
				return nil
			}
			for seq := uint64(0); seq < perThread; seq++ {
				var c call
				binary.LittleEndian.PutUint64(c.req[:8], id)
				binary.LittleEndian.PutUint64(c.req[8:], seq)
				// A budget turns a lost reply into a failure, not a hang.
				p, err := th.CallAsync(raceID, c.req[:], CallOptions{Budget: 5 * time.Second})
				if err != nil {
					errs <- err
					return
				}
				c.p = p
				if fly = append(fly, c); len(fly) == window {
					if err := wait(fly[0]); err != nil {
						errs <- err
						return
					}
					fly = fly[1:]
				}
			}
			for _, c := range fly {
				if err := wait(c); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, "every late reply to be accounted", func() bool { return tc.server.inflight.Load() == 0 })
	tc.net.Close()
	if n := awaitLeaseDrain(3 * time.Second); n != 0 {
		t.Fatalf("%d pooled leases outstanding after the run", n)
	}
}
