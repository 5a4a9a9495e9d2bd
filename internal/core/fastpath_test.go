package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/mem"
)

// goid returns the calling goroutine's ID, read off its stack header.
func goid() uint64 {
	var buf [32]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// tokenSends reads how many completion tokens th's table has sent.
func tokenSends(th *Thread) uint64 {
	return th.pend.signals.Load()
}

// TestCallFastPathInventory pins what a call costs its caller besides the
// NIC's work, on a quiet client/server pair: a memory op reads no clock,
// sends no token (its waiter never parks: the completion is on the CQ by the
// first poll) and makes no locked read of the control region, which nobody
// writes while it runs; an RPC, plain or with a deadline, reads the clock
// twice — the latency probe's pair, which the deadline's arming shares — and
// makes at most one locked control read per message: its response's
// consumed head, published into the region, moves the region's Version once,
// and the QP pick and the leader share the one refill that follows. The
// server's credit grants are the other writes to the region: one that lands
// between a call's QP pick and its leader's view costs one read more, so
// each grant made during the count allows one. Leader tenure is sampled, one
// leadership in tenureEvery, and its pair of reads is the only other clock
// read allowed. Only the calling goroutine's reads count: the node's loop
// reads the clock and the control region on its own schedule.
func TestCallFastPathInventory(t *testing.T) {
	var me atomic.Uint64
	var clocks, ctrlReads atomic.Int64
	ctrlReadHook = func() {
		if goid() == me.Load() {
			ctrlReads.Add(1)
		}
	}
	t.Cleanup(func() { ctrlReadHook = nil }) // after the network's Close below
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	srv, cl := tc.server, tc.clients[0]
	cl.clock = func() time.Time { // before Connect starts the node's loop
		if goid() == me.Load() {
			clocks.Add(1)
		}
		return time.Now()
	}
	conn, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := conn.AttachMemRegion(4096)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	me.Store(goid())

	buf := make([]byte, 64)
	read := func() error { return th.Read(region, 0, buf) }
	write := func() error { return th.Write(region, 64, buf) }
	fetchAdd := func() error { _, err := th.FetchAdd(region, 128, 1); return err }
	call := func() error { return callDrop(th, echoID, buf) }
	callDeadline := func() error {
		r, err := th.CallWithDeadline(echoID, buf, time.Second)
		r.Release()
		return err
	}

	const n = 8 * tenureEvery
	tenureReads := int64(2 * (n/tenureEvery + 1))
	for _, tc := range []struct {
		name            string
		op              func() error
		clocks, ctrl    int64 // per op, besides the tenure sample
		tokenSendsAllow bool
	}{
		{"Read", read, 0, 0, false},
		{"Write", write, 0, 0, false},
		{"FetchAdd", fetchAdd, 0, 0, false},
		{"Call", call, 2, 1, true},
		{"CallWithDeadline", callDeadline, 2, 1, true},
	} {
		for i := 0; i < n; i++ { // warm: the control cache, the stint, the pools
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		c0, r0, s0, g0 := clocks.Load(), ctrlReads.Load(), tokenSends(th), srv.Metrics().CreditRenewals
		for i := 0; i < n; i++ {
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		c, r, s := clocks.Load()-c0, ctrlReads.Load()-r0, tokenSends(th)-s0
		g := int64(srv.Metrics().CreditRenewals - g0)
		t.Logf("%s: %d ops, %d clock reads, %d locked control reads, %d token sends, %d credit grants",
			tc.name, n, c, r, s, g)
		if c > tc.clocks*n+tenureReads {
			t.Errorf("%s: %d clock reads in %d ops, want at most %d per op and the tenure sample's %d",
				tc.name, c, n, tc.clocks, tenureReads)
		}
		if r > tc.ctrl*n+g {
			t.Errorf("%s: %d locked control-region reads in %d ops, want at most %d per op and one per credit grant (%d)",
				tc.name, r, n, tc.ctrl, g)
		}
		if s != 0 && !tc.tokenSendsAllow {
			t.Errorf("%s: %d token sends in %d ops whose waiters never park, want 0", tc.name, s, n)
		}
	}

	// The token itself: a record completed while its waiter polls costs no
	// send; one completed while its waiter is parked costs exactly one.
	p := &th.pend
	rec, _ := p.register(0)
	s0 := tokenSends(th)
	if !p.complete(rec.seq, wholeSeq, &Response{}) || !rec.resolved() || len(rec.ch) != 0 {
		t.Fatal("a record completed while its waiter polled was not resolved without a token")
	}
	if _, ok := p.takeDone(rec); !ok {
		t.Fatal("takeDone lost a completed record")
	}
	rec, _ = p.register(0)
	if !rec.park() {
		t.Fatal("a fresh record could not park")
	}
	p.complete(rec.seq, wholeSeq, &Response{})
	<-rec.ch
	if got := tokenSends(th) - s0; got != 1 {
		t.Fatalf("one parked completion sent %d tokens, want 1", got)
	}
	p.takeDone(rec)
}

// TestTokenStress races waiters that spin (Done), park (Wait on a slow
// handler), Cancel, give up on a deadline or never wait at all against every
// completer: the waiter's own poll, the node's loop, the deadline sweep,
// failMatching on a QP recycle, Conn.fail and the close-time drain. Every
// call resolves exactly once, with its own echo when it succeeds; a recycled
// record never carries a stale token (register panics); in the rounds that
// let the unwaited calls finish, every table's in-flight count returns to
// zero; and every pooled lease comes back.
func TestTokenStress(t *testing.T) {
	const (
		slowID  = 61
		rounds  = 6
		threads = 4
		ops     = 150
	)
	base := mem.Default.Outstanding()
	var sends, expiries, recycles uint64 // did the races named above happen
	for round := 0; round < rounds; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			nw, conn, region, srv := tokenStressPair(t, slowID)
			ths := make([]*Thread, threads)
			for i := range ths {
				ths[i] = conn.RegisterThread()
			}
			// failMatching on recycle: break a QP now and then under the load.
			stop := make(chan struct{})
			var chaos sync.WaitGroup
			chaos.Add(1)
			go func() {
				defer chaos.Done()
				rng := rand.New(rand.NewSource(int64(round)))
				for {
					select {
					case <-stop:
						return
					case <-time.After(time.Duration(500+rng.Intn(1500)) * time.Microsecond):
					}
					conn.markBroken(conn.qps[rng.Intn(len(conn.qps))])
				}
			}()
			var resolved atomic.Int64
			var unwaited sync.Mutex
			var leftOver []*Pending
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for i, th := range ths {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(round*threads + i)))
					for k := 0; k < ops; k++ {
						p, err := tokenStressOp(th, rng, slowID, region)
						if err != nil {
							errs <- err
							return
						}
						if p == nil {
							resolved.Add(1)
							continue
						}
						unwaited.Lock()
						leftOver = append(leftOver, p)
						unwaited.Unlock()
					}
				}()
			}
			wg.Wait()
			close(stop)
			chaos.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got := resolved.Load() + int64(len(leftOver)); got != threads*ops {
				t.Fatalf("%d calls resolved or left unwaited, %d issued", got, threads*ops)
			}
			for _, th := range ths {
				sends += tokenSends(th)
			}
			m := conn.node.Metrics()
			expiries += m.RPCTimeouts
			recycles += m.QPRecycles
			switch round % 3 {
			case 0:
				// Let the unwaited calls complete and check the tables
				// balance before the drain releases their leases.
				deadline := time.Now().Add(5 * time.Second)
				for _, th := range ths {
					for th.Outstanding() != 0 && time.Now().Before(deadline) {
						time.Sleep(100 * time.Microsecond)
					}
					if d := th.Outstanding(); d != 0 {
						t.Fatalf("thread %d: %d records still in flight", th.ID(), d)
					}
				}
			case 1:
				conn.Close() // Conn.fail races whatever is still in flight
			}
			// The close-time drain, racing the unwaited calls' completions
			// and a last waiter of some of them (one goroutine: a Thread is
			// used by one at a time).
			last := make(chan error)
			go func() {
				for _, p := range leftOver[:len(leftOver)/2] {
					r, err := p.Wait()
					if err := tokenStressCheck(r, err, p.payload); err != nil {
						last <- err
						return
					}
				}
				last <- nil
			}()
			srv.Close()
			nw.Close()
			if err := <-last; err != nil {
				t.Fatalf("an unwaited call: %v", err)
			}
		})
	}
	t.Logf("%d tokens sent to parked waiters, %d sweep expiries, %d QP recycles", sends, expiries, recycles)
	if sends == 0 || expiries == 0 || recycles == 0 {
		t.Errorf("the stress raced too little: %d token sends, %d expiries, %d recycles; want each above 0", sends, expiries, recycles)
	}
	if n := awaitLeaseDrain(3 * time.Second); n > base {
		t.Fatalf("%d pooled leases outstanding after the stress, %d before", n, base)
	}
}

// tokenStressPair builds one round's network: a pooled server whose slowID
// handler answers after up to 1 ms, and a two-QP client connection with a
// region for memory ops.
func tokenStressPair(t *testing.T, slowID uint32) (*Network, *Conn, *RemoteRegion, *Node) {
	t.Helper()
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{QPsPerConn: 2})
	registerEcho(tc.server)
	tc.server.RegisterHandler(slowID, func(req []byte) []byte {
		if len(req) > 0 {
			time.Sleep(time.Duration(req[0]) * time.Millisecond / 255)
		}
		return req
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := conn.AttachMemRegion(4096)
	if err != nil {
		t.Fatal(err)
	}
	return tc.net, conn, region, tc.server
}

// tokenStressOp runs one call in a mode drawn from rng. It returns the
// call's Pending when the mode leaves it unwaited, and an error when the
// call resolved with one no completer delivers.
func tokenStressOp(th *Thread, rng *rand.Rand, slowID uint32, region *RemoteRegion) (*Pending, error) {
	payload := []byte{byte(rng.Intn(256)), 1, 2, 3}
	check := func(r Response, err error) error {
		return tokenStressCheck(r, err, payload)
	}
	switch rng.Intn(6) {
	case 0: // park on a slow reply
		return nil, check(th.Call(slowID, payload))
	case 1: // spin on Done
		p, err := th.CallAsync(echoID, payload, CallOptions{})
		if err != nil {
			return nil, check(Response{}, err)
		}
		for i := 0; !p.Done(); i++ {
			pause(i)
		}
		return nil, check(p.Wait())
	case 2: // cancel, before or after the reply
		p, err := th.CallAsync(slowID, payload, CallOptions{})
		if err != nil {
			return nil, check(Response{}, err)
		}
		if rng.Intn(2) == 0 {
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
		p.Cancel()
		return nil, check(p.Wait())
	case 3: // a deadline the sweep expires
		return nil, check(th.CallWithDeadline(slowID, payload, time.Duration(1+rng.Intn(300))*time.Microsecond))
	case 4: // a memory op
		return nil, check(Response{Data: payload}, th.Write(region, 8*rng.Intn(64), payload))
	default: // never waited: the close-time drain's
		p, err := th.CallAsync(echoID, payload, CallOptions{})
		if err != nil {
			return nil, check(Response{}, err)
		}
		return p, nil
	}
}

// tokenStressCheck releases r and reports an outcome no completer delivers:
// an error other than closure, a broken QP, expiry or cancellation, or a
// success that is not the echo of payload.
func tokenStressCheck(r Response, err error, payload []byte) error {
	defer r.Release()
	switch {
	case err == nil:
		if !bytes.Equal(r.Data, payload) {
			return fmt.Errorf("a call of %v resolved with %v", payload, r.Data)
		}
	case !errors.Is(err, ErrClosed) && !errors.Is(err, ErrQPBroken) &&
		!errors.Is(err, ErrTimeout) && !errors.Is(err, ErrCanceled):
		return fmt.Errorf("unexpected call error: %w", err)
	}
	return nil
}
