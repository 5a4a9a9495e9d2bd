package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
)

// testCluster spins up a server node and n client nodes on one network.
type testCluster struct {
	net     *Network
	server  *Node
	clients []*Node
}

func newTestCluster(t *testing.T, nClients int, serverOpts, clientOpts Options) *testCluster {
	t.Helper()
	nw := NewNetwork(fabric.Config{})
	t.Cleanup(nw.Close)
	srv, err := nw.NewNode(0, serverOpts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{net: nw, server: srv}
	for i := 0; i < nClients; i++ {
		cl, err := nw.NewNode(fabric.NodeID(i+1), clientOpts, 0)
		if err != nil {
			t.Fatal(err)
		}
		tc.clients = append(tc.clients, cl)
	}
	return tc
}

// echoID is the RPC used by most tests: echoes the request back.
const echoID = 1

// callDrop is Call for tests that don't inspect the response: the pooled
// lease is released immediately so the package leak gate stays clean.
func callDrop(th *Thread, rpcID uint32, payload []byte) error {
	r, err := th.Call(rpcID, payload)
	if err == nil {
		r.Release()
	}
	return err
}

// recvDrop is RecvRes with the response lease released.
func recvDrop(th *Thread) error {
	r, err := th.RecvRes()
	if err == nil {
		r.Release()
	}
	return err
}

func registerEcho(n *Node) {
	n.RegisterHandler(echoID, func(req []byte) []byte {
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
}

func TestRPCEcho(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	for i := 0; i < 100; i++ {
		msg := []byte(fmt.Sprintf("request-%d", i))
		resp, err := th.Call(echoID, msg)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusOK {
			t.Fatalf("status = %d", resp.Status)
		}
		if !bytes.Equal(resp.Data, msg) {
			t.Fatalf("echo mismatch: %q != %q", resp.Data, msg)
		}
		resp.Release()
	}
}

func TestRPCEmptyAndLargePayload(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()

	resp, err := th.Call(echoID, nil)
	if err != nil || len(resp.Data) != 0 {
		t.Fatalf("empty echo: %v %v", err, resp.Data)
	}
	resp.Release()

	big := make([]byte, tc.clients[0].Options().test.maxPayload)
	for i := range big {
		big[i] = byte(i * 31)
	}
	resp, err = th.Call(echoID, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, big) {
		t.Fatal("max payload echo corrupted")
	}
	resp.Release()

	if _, err := th.SendRPC(echoID, make([]byte, tc.clients[0].Options().test.maxPayload+1)); err != ErrPayloadTooLarge {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestRPCNoHandler(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	resp, err := th.Call(999, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusNoHandler {
		t.Fatalf("status = %d, want StatusNoHandler", resp.Status)
	}
	resp.Release()
}

func TestRPCHandlerPanic(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	tc.server.RegisterHandler(2, func(req []byte) []byte { panic("boom") })
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	resp, err := th.Call(2, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusHandlerPanic {
		t.Fatalf("status = %d, want StatusHandlerPanic", resp.Status)
	}
	resp.Release()
	// The server survives and keeps serving.
	if resp, err = th.Call(echoID, []byte("alive")); err != nil || string(resp.Data) != "alive" {
		t.Fatalf("server dead after panic: %v %q", err, resp.Data)
	}
	resp.Release()
}

func TestRPCConcurrentThreadsShareQPs(t *testing.T) {
	// More threads than QPs forces sharing; all requests must complete
	// correctly and coalescing must actually occur.
	tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, Options{QPsPerConn: 2})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)

	const nThreads = 16
	const perThread = 200
	var wg sync.WaitGroup
	errs := make(chan error, nThreads)
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for j := 0; j < perThread; j++ {
				msg := []byte(fmt.Sprintf("t%d-req%d", id, j))
				resp, err := th.Call(echoID, msg)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp.Data, msg) {
					errs <- fmt.Errorf("mismatch %q != %q", resp.Data, msg)
					return
				}
				resp.Release()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := tc.server.Metrics()
	if m.ItemsIn != nThreads*perThread {
		t.Fatalf("served %d items, want %d", m.ItemsIn, nThreads*perThread)
	}
}

// TestCoalescingUnderBurst asserts the paper's headline mechanism (§4.2)
// deterministically: eight threads submit on one QP while the first leader
// is held at the door, so all eight are linked in the combining queue when it
// claims its batch, and the eight requests must leave as one message — the
// server sees a coalescing degree of 8, where a burst left to the scheduler
// read anything from 1.03 up.
func TestCoalescingUnderBurst(t *testing.T) {
	const nThreads = 8
	// Followers wait for their leader through the whole hold: the stall guard
	// must not send them off to re-elect.
	cOpts := Options{QPsPerConn: 1, StallTimeout: chaosDeadline}
	tc := newTestCluster(t, 1, Options{QPsPerConn: 1}, cOpts)
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)

	leading := make(chan struct{})
	var once sync.Once
	leaderStallHook = func(c *Conn, q *connQP) {
		once.Do(func() {
			own := q.tcq.tail.Load() // nobody else has submitted yet
			close(leading)
			for 1+len(queuedBehind(own)) < nThreads {
				time.Sleep(10 * time.Microsecond)
			}
		})
	}
	defer func() { leaderStallHook = nil }()

	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		if i == 1 {
			<-leading
		}
		th := conn.RegisterThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := callDrop(th, echoID, []byte("burst-x")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := tc.server.Metrics()
	if m.ItemsIn != nThreads {
		t.Fatalf("served %d items, want %d", m.ItemsIn, nThreads)
	}
	if degree := float64(m.ItemsIn) / float64(m.MsgsIn); degree < 4 {
		t.Fatalf("no meaningful coalescing under burst: degree %.2f (%d items / %d msgs)",
			degree, m.ItemsIn, m.MsgsIn)
	}
}

func TestRPCOutstandingWindow(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()

	const window = 8
	const rounds = 50
	seqs := make(map[uint64][]byte)
	for r := 0; r < rounds; r++ {
		for k := 0; k < window; k++ {
			msg := []byte(fmt.Sprintf("r%d-k%d", r, k))
			seq, err := th.SendRPC(echoID, msg)
			if err != nil {
				t.Fatal(err)
			}
			seqs[seq] = msg
		}
		for k := 0; k < window; k++ {
			resp, err := th.RecvRes()
			if err != nil {
				t.Fatal(err)
			}
			want, ok := seqs[resp.Seq]
			if !ok {
				t.Fatalf("unknown seq %d", resp.Seq)
			}
			if !bytes.Equal(resp.Data, want) {
				t.Fatalf("seq %d: %q != %q", resp.Seq, resp.Data, want)
			}
			delete(seqs, resp.Seq)
			resp.Release()
		}
	}
	if th.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", th.Outstanding())
	}
}

func TestCreditRenewalFlows(t *testing.T) {
	// Run well past the initial credit budget; traffic only continues if
	// renewals are granted.
	tc := newTestCluster(t, 1, Options{Credits: 8, QPsPerConn: 1}, Options{Credits: 8, QPsPerConn: 1})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	for i := 0; i < 500; i++ {
		if err := callDrop(th, echoID, []byte("credit")); err != nil {
			t.Fatal(err)
		}
	}
	if got := tc.server.Metrics().CreditRenewals; got == 0 {
		t.Fatal("no credit renewals were granted")
	}
}

func TestRingWrapUnderLoad(t *testing.T) {
	// A tiny ring forces constant wrapping and head-refresh traffic.
	opts := Options{MaxBatch: 4, QPsPerConn: 1, test: testKnobs{ringBytes: 8192, maxPayload: 512}}
	tc := newTestCluster(t, 1, opts, opts)
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	payload := make([]byte, 400)
	for i := 0; i < 300; i++ {
		payload[0] = byte(i)
		resp, err := th.Call(echoID, payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Data[0] != byte(i) {
			t.Fatalf("round %d corrupted", i)
		}
		resp.Release()
	}
}

func TestQPSchedulerDeactivatesUnderBudget(t *testing.T) {
	// 4 clients × 4 QPs = 16 QPs against MaxActiveQPs = 8: after traffic
	// flows, the scheduler must keep at most 8 active.
	sOpts := Options{MaxActiveQPs: 8, QPsPerConn: 4, Credits: 8}
	cOpts := Options{QPsPerConn: 4, Credits: 8}
	tc := newTestCluster(t, 4, sOpts, cOpts)
	registerEcho(tc.server)

	var conns []*Conn
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, cl := range tc.clients {
		conn, err := cl.Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(c *Conn) {
				defer wg.Done()
				th := c.RegisterThread()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := callDrop(th, echoID, []byte("load")); err != nil {
						return
					}
				}
			}(conn)
		}
	}
	// Let several scheduling intervals elapse under load.
	time.Sleep(100 * time.Millisecond)
	active := 0
	for _, c := range conns {
		active += len(c.ActiveQPs())
	}
	close(stop)
	wg.Wait()
	if active > 8 {
		t.Fatalf("%d QPs active, budget 8", active)
	}
	if tc.server.Metrics().QPDeactivations == 0 {
		t.Fatal("scheduler never deactivated a QP")
	}
	// Every sender keeps at least one.
	for i, c := range conns {
		if len(c.ActiveQPs()) == 0 {
			t.Fatalf("client %d starved of QPs", i)
		}
	}
}

func TestAllQPsStayActiveUnderThreshold(t *testing.T) {
	sOpts := Options{MaxActiveQPs: 64, QPsPerConn: 4}
	tc := newTestCluster(t, 2, sOpts, Options{QPsPerConn: 4})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	for i := 0; i < 200; i++ {
		if err := callDrop(th, echoID, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := len(conn.ActiveQPs()); got != 4 {
		t.Fatalf("%d QPs active, want all 4 (under MAX_AQP)", got)
	}
}

func TestMemoryOps(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	conn, _ := tc.clients[0].Connect(0)
	region, err := conn.AttachMemRegion(4096)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()

	// Write then read back.
	src := []byte("one-sided payload")
	if err := th.Write(region, 100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := th.Read(region, 100, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("read back %q", dst)
	}

	// Atomics.
	var zero [8]byte
	binary.LittleEndian.PutUint64(zero[:], 40)
	if err := th.Write(region, 0, zero[:]); err != nil {
		t.Fatal(err)
	}
	old, err := th.FetchAdd(region, 0, 2)
	if err != nil || old != 40 {
		t.Fatalf("faa: %v old=%d", err, old)
	}
	old, err = th.CompareSwap(region, 0, 42, 99)
	if err != nil || old != 42 {
		t.Fatalf("cas: %v old=%d", err, old)
	}
	old, err = th.CompareSwap(region, 0, 42, 7)
	if err != nil || old != 99 {
		t.Fatalf("failed cas: %v old=%d", err, old)
	}
}

func TestMemoryOpsConcurrentFetchAdd(t *testing.T) {
	// N threads × K increments via shared QPs must total exactly N*K —
	// the wr_id demultiplexing of §6 in action.
	tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, Options{QPsPerConn: 2})
	conn, _ := tc.clients[0].Connect(0)
	region, _ := conn.AttachMemRegion(64)
	const nThreads, perThread = 8, 100
	var wg sync.WaitGroup
	for i := 0; i < nThreads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := conn.RegisterThread()
			for j := 0; j < perThread; j++ {
				if _, err := th.FetchAdd(region, 0, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	th := conn.RegisterThread()
	var buf [8]byte
	if err := th.Read(region, 0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf[:]); got != nThreads*perThread {
		t.Fatalf("counter = %d, want %d", got, nThreads*perThread)
	}
}

func TestMixedRPCAndMemoryOps(t *testing.T) {
	tc := newTestCluster(t, 1, Options{QPsPerConn: 1}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	region, _ := conn.AttachMemRegion(1024)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for j := 0; j < 100; j++ {
				if id%2 == 0 {
					if err := callDrop(th, echoID, []byte("rpc")); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := th.FetchAdd(region, 8, 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestWorkerPoolMode(t *testing.T) {
	tc := newTestCluster(t, 1, Options{Workers: 4}, Options{})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for j := 0; j < 100; j++ {
				msg := []byte(fmt.Sprintf("w%d-%d", id, j))
				resp, err := th.Call(echoID, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp.Data, msg) {
					t.Errorf("mismatch: %q", resp.Data)
					return
				}
				resp.Release()
			}
		}(i)
	}
	wg.Wait()
}

func TestConnectErrors(t *testing.T) {
	nw := NewNetwork(fabric.Config{})
	defer nw.Close()
	srv, _ := nw.NewNode(0, Options{}, 0)
	cl, _ := nw.NewNode(1, Options{}, 0)

	// Not serving yet.
	if _, err := cl.Connect(0); err != ErrNotServing {
		t.Fatalf("connect to non-serving: %v", err)
	}
	// Unknown node.
	if _, err := cl.Connect(42); err != ErrNoSuchNode {
		t.Fatalf("connect to unknown: %v", err)
	}
	srv.Serve()
	if _, err := cl.Connect(0); err != nil {
		t.Fatalf("connect: %v", err)
	}
}

func TestCloseUnblocksCallers(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	done := make(chan error, 1)
	go func() {
		err := recvDrop(th) // nothing outstanding: blocks until close
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tc.clients[0].Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("RecvRes after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvRes did not unblock on close")
	}
	if _, err := th.SendRPC(echoID, []byte("x")); err != ErrClosed {
		t.Fatalf("SendRPC after close: %v", err)
	}
}

func TestSelectiveSignalingReducesCompletions(t *testing.T) {
	opts := Options{SignalEvery: 16, QPsPerConn: 1}
	tc := newTestCluster(t, 1, opts, opts)
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	for i := 0; i < 400; i++ {
		if err := callDrop(th, echoID, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	st := tc.clients[0].Device().Stats()
	if st.CompletionsSuppressed == 0 {
		t.Fatal("selective signaling suppressed nothing")
	}
	if st.CompletionsSuppressed < st.CompletionsDelivered {
		t.Logf("suppressed=%d delivered=%d", st.CompletionsSuppressed, st.CompletionsDelivered)
	}
}

func TestSingleThreadNoCoalescing(t *testing.T) {
	// One thread with one outstanding request: every message carries
	// exactly one item (the Figure 12 "1 thrd/1 QP" worst case).
	tc := newTestCluster(t, 1, Options{QPsPerConn: 1}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	for i := 0; i < 100; i++ {
		if err := callDrop(th, echoID, []byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	m := tc.server.Metrics()
	if m.MsgsIn != m.ItemsIn {
		t.Fatalf("single thread coalesced: %d msgs, %d items", m.MsgsIn, m.ItemsIn)
	}
}

func TestBidirectionalNodes(t *testing.T) {
	// Two nodes that both serve and both connect — the FLockTX topology.
	nw := NewNetwork(fabric.Config{})
	defer nw.Close()
	a, _ := nw.NewNode(1, Options{}, 0)
	b, _ := nw.NewNode(2, Options{}, 0)
	a.RegisterHandler(1, func(req []byte) []byte { return []byte("from-a") })
	b.RegisterHandler(1, func(req []byte) []byte { return []byte("from-b") })
	a.Serve()
	b.Serve()

	ab, err := a.Connect(2)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := b.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	tha := ab.RegisterThread()
	thb := ba.RegisterThread()
	ra, err := tha.Call(1, nil)
	if err != nil || string(ra.Data) != "from-b" {
		t.Fatalf("a→b: %v %q", err, ra.Data)
	}
	ra.Release()
	rb, err := thb.Call(1, nil)
	if err != nil || string(rb.Data) != "from-a" {
		t.Fatalf("b→a: %v %q", err, rb.Data)
	}
	rb.Release()
}
