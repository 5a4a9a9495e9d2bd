package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
)

// TestConnectRacingServe dials a node while it starts serving: a Connect
// that sees serving flip may run accept at once, so nothing accept reads
// may be written by Serve after the flip.
func TestConnectRacingServe(t *testing.T) {
	nw := NewNetwork(fabric.Config{})
	t.Cleanup(nw.Close)
	srv, err := nw.NewNode(0, Options{QPsPerConn: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := nw.NewNode(1, Options{QPsPerConn: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	registerEcho(srv)
	dialed := make(chan error, 1)
	go func() {
		for {
			conn, err := cl.Connect(0)
			if errors.Is(err, ErrNotServing) {
				runtime.Gosched()
				continue
			}
			if err == nil {
				err = callDrop(conn.RegisterThread(), echoID, []byte("racing"))
			}
			dialed <- err
			return
		}
	}()
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatalf("Connect racing Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Connect never succeeded after Serve")
	}
}

// TestCreditStarvedLeaderIsRenewed keeps a leader out of credits (C = 2)
// with windows of 8 calls from one thread. A window of CallAsync calls asks
// for a renewal on every other message; a window sent as one SendBatch is
// one batch of 8, whose leader asks C at a time with no message to carry the
// ask: it posts each renewal alone, onto a ring the server has drained. The
// renewal's write-imm changes nothing on the ring, so a pump that skipped a
// QP whose ring is idle would strand that leader until StallTimeout broke
// the QP.
func TestCreditStarvedLeaderIsRenewed(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tc := newTestCluster(t, 1,
				Options{Credits: 2, QPsPerConn: 1, Workers: workers},
				Options{Credits: 2, QPsPerConn: 1, StallTimeout: 2 * time.Second})
			registerEcho(tc.server)
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			th := conn.RegisterThread()
			const windows, window = 200, 8
			finished := make(chan error, 1)
			go func() {
				ops := make([]BatchOp, window)
				for w := 0; w < windows; w++ {
					for i := range ops {
						ops[i] = BatchOp{RPCID: echoID, Payload: []byte(fmt.Sprintf("starved-%03d-%d", w, i))}
					}
					var ps []*Pending
					if w%2 == 0 {
						for _, op := range ops {
							p, err := th.CallAsync(op.RPCID, op.Payload, CallOptions{})
							if err != nil {
								finished <- fmt.Errorf("window %d: %w", w, err)
								return
							}
							ps = append(ps, p)
						}
					} else if ps, err = th.SendBatch(ops, CallOptions{}); err != nil {
						finished <- fmt.Errorf("window %d: %w", w, err)
						return
					}
					for i, p := range ps {
						r, err := p.Wait()
						if err != nil {
							finished <- fmt.Errorf("window %d call %d: %w", w, i, err)
							return
						}
						same := bytes.Equal(r.Data, ops[i].Payload)
						r.Release()
						if !same {
							finished <- fmt.Errorf("echo mismatch for %q", ops[i].Payload)
							return
						}
					}
				}
				finished <- nil
			}()
			select {
			case err := <-finished:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("calls stalled: a credit renewal was never granted")
			}
			if tc.server.Telemetry().Snapshot().Counters["core.credit_renewals"] == 0 {
				t.Fatal("no credit renewals were granted")
			}
			if st := tc.clients[0].Metrics().LeaderStalls; st != 0 {
				t.Fatalf("%d leaders stalled waiting for credits", st)
			}
			if o := tc.server.snapshotSconns()[0].qps[0].recvCQ.Overflows(); o != 0 {
				t.Fatalf("receive CQ overflowed %d times", o)
			}
		})
	}
}

// TestCreditWatermark pins the watermark: past half of AdmissionLimit
// admitted, a renewal grants ⌈C/2⌉ and counts ⌊C/2⌋ as withheld; once the
// admitted requests are answered, a renewal grants C again.
func TestCreditWatermark(t *testing.T) {
	const heldID, credits = 7, 9
	tc := newTestCluster(t, 1,
		Options{AdmissionLimit: 4, Credits: credits, QPsPerConn: 1},
		Options{Credits: credits, QPsPerConn: 1})
	held := make(chan *Reply, 3)
	// A reply-later handler: its request stays admitted until Send.
	tc.server.RegisterReplyHandler(heldID, false, func(_ []byte, r *Reply) { held <- r })
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	q := conn.qps[0]
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	withheld := func() uint64 { return tc.server.Telemetry().Snapshot().Counters["core.credit_withheld"] }
	// renew posts one renewal, as a starved leader does, and returns what it
	// granted and what it withheld. The thread has nothing in its TCQ, so no
	// leader touches q's renewal state meanwhile.
	granted := func() uint64 { return q.ctrl.Load64(ctrlGrantedOff) }
	renew := func() (got, kept uint64) {
		t.Helper()
		g0, w0 := granted(), withheld()
		if err := q.qp.PostSend(q.renewalWR(g0)); err != nil {
			t.Fatal(err)
		}
		waitFor("a grant", func() bool { return granted() != g0 })
		return granted() - g0, withheld() - w0
	}

	// Three admitted requests against a limit of 4: past the watermark. With
	// C = 9 three calls stay under the C/2 a leader consumes before it asks,
	// so no renewal of theirs is in flight.
	var ps []*Pending
	for i := 0; i < 3; i++ {
		p, err := th.CallAsync(heldID, []byte("held"), CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	waitFor("three admitted requests", func() bool { return tc.server.inflight.Load() == 3 })
	if g, w := renew(); g != (credits+1)/2 || w != credits/2 {
		t.Fatalf("past the watermark a renewal granted %d and withheld %d; want %d and %d", g, w, (credits+1)/2, credits/2)
	}

	for i := 0; i < 3; i++ {
		(<-held).Send(nil, StatusOK)
	}
	for _, p := range ps {
		r, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	waitFor("the admitted requests to drain", func() bool { return tc.server.inflight.Load() == 0 })
	if g, w := renew(); g != credits || w != 0 {
		t.Fatalf("under the watermark a renewal granted %d and withheld %d; want %d and 0", g, w, credits)
	}
}

// coreGoroutines counts the live goroutines whose entry function is in this
// package, by that function's name.
func coreGoroutines() map[string]int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	const pkg = "flock/internal/core."
	counts := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		entry := ""
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "created by ") {
				break
			}
			if line != "" && !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "goroutine ") {
				entry = line
			}
		}
		if name, ok := strings.CutPrefix(entry, pkg); ok {
			// "(*Node).run(0xc000123400)": drop the arguments.
			counts[name[:strings.LastIndexByte(name, '(')]]++
		}
	}
	return counts
}

// goroutinesSince is coreGoroutines less base.
func goroutinesSince(base map[string]int) map[string]int {
	d := map[string]int{}
	for name, k := range coreGoroutines() {
		if k -= base[name]; k != 0 {
			d[name] = k
		}
	}
	return d
}

// awaitGoroutines polls goroutinesSince(base) for up to a second until it
// reads want, and returns the last reading. A goroutine that has signalled
// a WaitGroup is still on its way out for a moment after Close, and one
// running on another thread may be missing from a reading.
func awaitGoroutines(base, want map[string]int) map[string]int {
	deadline := time.Now().Add(time.Second)
	for {
		d := goroutinesSince(base)
		if fmt.Sprint(d) == fmt.Sprint(want) || time.Now().After(deadline) {
			return d
		}
		time.Sleep(time.Millisecond)
	}
}

// settledGoroutines is awaitGoroutines waiting for none.
func settledGoroutines(base map[string]int) map[string]int {
	return awaitGoroutines(base, map[string]int{})
}

// TestNodeBackgroundGoroutines pins the goroutines a node runs in the
// background: each node one loop, which relieves both roles and runs the
// schedule, and a server with a pool of two its two pool goroutines. None
// survives Network.Close.
func TestNodeBackgroundGoroutines(t *testing.T) {
	before := settledGoroutines(nil) // what earlier tests left, if anything
	nw := NewNetwork(fabric.Config{})
	defer nw.Close()
	srv, err := nw.NewNode(0, Options{Workers: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	registerEcho(srv)
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	cl, err := nw.NewNode(1, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := callDrop(conn.RegisterThread(), echoID, []byte("bg")); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"(*Node).run":    2,
		"(*Node).worker": 2,
	}
	if got := awaitGoroutines(before, want); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("background goroutines %v, want %v", got, want)
	}
	nw.Close()
	if got := settledGoroutines(before); len(got) != 0 {
		t.Fatalf("after Network.Close: %v still running", got)
	}
}

// TestCloseRacingServeAndConnect races a pooled node's Serve, its Connect to
// a server and its Close, many times over. Every goroutine Serve and Connect
// start must be one Close waits for, and nothing Close's lease drain reads
// may be written by Serve; both are the race detector's to say, and no
// closed node's goroutine may outlive it. Serve and Connect after Close fail
// with ErrClosed.
func TestCloseRacingServeAndConnect(t *testing.T) {
	small := Options{MaxBatch: 4, QPsPerConn: 1, test: testKnobs{ringBytes: 8192, maxPayload: 512}}
	before := settledGoroutines(nil) // what earlier tests left, if anything
	nw := NewNetwork(fabric.Config{})
	t.Cleanup(nw.Close)
	srv, err := nw.NewNode(0, small, 0)
	if err != nil {
		t.Fatal(err)
	}
	registerEcho(srv)
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	pooled := small
	pooled.Workers = 2
	for i := 1; i <= 300; i++ {
		n, err := nw.NewNode(fabric.NodeID(i), pooled, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			if err := n.Serve(); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Serve racing Close: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			// Losing to Close, Connect meets the closed node or its closed
			// device; winning, it starts the loop Close must wait for.
			n.Connect(0) //nolint:errcheck
		}()
		go func() {
			defer wg.Done()
			n.Close()
		}()
		wg.Wait()
		if _, err := n.Connect(0); !errors.Is(err, ErrClosed) {
			t.Fatalf("Connect after Close: %v, want ErrClosed", err)
		}
		if err := n.Serve(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Serve after Close: %v, want ErrClosed", err)
		}
		if t.Failed() {
			return
		}
	}
	// The server's own loop is all that may be left.
	want := map[string]int{"(*Node).run": 1}
	if got := awaitGoroutines(before, want); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("background goroutines %v after the closes, want %v", got, want)
	}
}

// TestOneLoopServesBothRoles runs a node, A, that serves a flood of calls
// from C while it calls B: C sends without waiting for answers, so A's ring
// never runs dry and its loop's server half pulls messages on every pass.
// Its client half must still relieve what no waiter drains — an unwaited
// window, a parked waiter — and its schedule must still sweep: a call B never
// answers times out within two sweeps of its budget.
func TestOneLoopServesBothRoles(t *testing.T) {
	const laterID, silentID, floodID = 44, 45, 46
	const budget = 5 * time.Millisecond
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nw := NewNetwork(fabric.Config{})
			t.Cleanup(nw.Close)
			node := func(id fabric.NodeID, opts Options) *Node {
				t.Helper()
				n, err := nw.NewNode(id, opts, 0)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			a := node(0, Options{Workers: workers, QPsPerConn: 1, Credits: 256})
			a.RegisterHandler(floodID, func([]byte) []byte {
				// Slower than C sends, so A's ring stays full.
				for t0 := time.Now(); time.Since(t0) < 10*time.Microsecond; {
				}
				return nil
			})
			if err := a.Serve(); err != nil {
				t.Fatal(err)
			}
			b := node(1, Options{Workers: 2, QPsPerConn: 1})
			registerEcho(b)
			b.RegisterReplyHandler(laterID, false, func(_ []byte, r *Reply) {
				go func() {
					time.Sleep(20 * time.Millisecond)
					r.Send(nil, StatusOK)
				}()
			})
			b.RegisterReplyHandler(silentID, false, func([]byte, *Reply) {}) // never answers
			if err := b.Serve(); err != nil {
				t.Fatal(err)
			}

			// C's flood: one request a message, and SendRPC never waits for
			// an answer (past DefaultPipelineDepth it cancels the oldest
			// call), so C sends as fast as A grants it credits — 256 at a
			// time, enough to ride out a pause of C's — and a leader waiting
			// for a grant while A's ring is full is not stalled.
			copts := Options{QPsPerConn: 1, MaxBatch: 1, Credits: 256, StallTimeout: time.Second}
			cconn, err := node(2, copts).Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			flooding := make(chan error, 1)
			go func() {
				th := cconn.RegisterThread()
				for {
					select {
					case <-stop:
						flooding <- nil
						return
					default:
					}
					if _, err := th.SendRPC(floodID, nil); err != nil {
						flooding <- err
						return
					}
				}
			}()
			defer func() {
				close(stop)
				if err := <-flooding; err != nil {
					t.Errorf("C's flood: %v", err)
				}
			}()
			waitFor(t, "C's flood into A", func() bool { return a.metrics.itemsIn.Load() > 1000 })

			conn, err := a.Connect(1)
			if err != nil {
				t.Fatal(err)
			}
			th := conn.RegisterThread()
			relief0 := a.metrics.reliefCompletions.Load()

			// An unwaited window: nobody waits on it, so A's loop delivers it.
			ps := make([]*Pending, 8)
			for i := range ps {
				if ps[i], err = th.CallAsync(echoID, []byte("unwaited"), CallOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range ps {
				// delivered = the record's token is in its channel
				waitFor(t, "the unwaited window", func() bool { return p.rec.resolved() })
			}
			for _, p := range ps {
				r, err := p.Wait()
				if err != nil {
					t.Fatal(err)
				}
				r.Release()
			}
			// A parked waiter: B answers 20 ms after its handler returned.
			if err := callDrop(th, laterID, nil); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "A's relief to count what it drained", func() bool {
				return a.metrics.reliefCompletions.Load()-relief0 >= uint64(len(ps))
			})

			// A bounded call B never answers: its waiter parks, so only the
			// sweep resolves it, and a loop that never swept would leave it
			// waiting for good.
			best := time.Hour
			for try := 0; try < 5; try++ {
				start := time.Now()
				expired := make(chan error, 1)
				go func() {
					_, err := th.CallWithDeadline(silentID, nil, budget)
					expired <- err
				}()
				select {
				case err := <-expired:
					took := time.Since(start)
					if !errors.Is(err, ErrTimeout) {
						t.Fatalf("silent call: err = %v after %v, want ErrTimeout", err, took)
					}
					best = min(best, took)
				case <-time.After(5 * time.Second):
					t.Fatal("a silent call outlived its budget by 5s: A's loop never swept")
				}
			}
			if limit := budget + 2*DefaultSchedInterval; best > limit {
				t.Fatalf("best of 5 expiries took %v, want within two sweeps of the deadline (%v)", best, limit)
			}
		})
	}
}
