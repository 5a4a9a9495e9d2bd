package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
	renew := func() (granted, kept uint64) {
		t.Helper()
		g0, w0 := q.granted(), withheld()
		if err := q.qp.PostSend(q.renewalWR(g0)); err != nil {
			t.Fatal(err)
		}
		waitFor("a grant", func() bool { return q.granted() != g0 })
		return q.granted() - g0, withheld() - w0
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
			// "(*Node).tick(0xc000123400)": drop the arguments.
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

// settledGoroutines polls goroutinesSince(base) for up to a second until it
// reads empty, and returns the last reading. A goroutine that has signalled
// a WaitGroup is still on its way out for a moment after Close.
func settledGoroutines(base map[string]int) map[string]int {
	deadline := time.Now().Add(time.Second)
	for {
		d := goroutinesSince(base)
		if len(d) == 0 || time.Now().After(deadline) {
			return d
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNodeBackgroundGoroutines pins the goroutines a node runs in the
// background: a server with a pool of two runs its request dispatcher and
// two pool goroutines, a client its relief dispatcher, and each node one
// tick. None survives Network.Close.
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
		"(*Node).serveDispatch":  1,
		"(*Node).worker":         2,
		"(*Node).clientDispatch": 1,
		"(*Node).tick":           2,
	}
	if got := goroutinesSince(before); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("background goroutines %v, want %v", got, want)
	}
	nw.Close()
	if got := settledGoroutines(before); len(got) != 0 {
		t.Fatalf("after Network.Close: %v still running", got)
	}
}
