package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

// These tests inject faults and drive the scheduler edge paths that the
// happy-path suite doesn't reach: ring corruption, credit decline and
// migration, QP reactivation, and option validation.

func TestOptionsValidation(t *testing.T) {
	nw := NewNetwork(fabric.Config{})
	defer nw.Close()
	// A ring too small for two maximum messages must be rejected.
	_, err := nw.NewNode(1, Options{
		MaxBatch: 16,
		test:     testKnobs{ringBytes: 4096, maxPayload: 64 << 10},
	}, 0)
	if err == nil {
		t.Fatal("undersized ring accepted")
	}
	// The same geometry works once MaxBatch/MaxPayload shrink.
	if _, err := nw.NewNode(2, Options{
		MaxBatch: 2,
		test:     testKnobs{ringBytes: 4096, maxPayload: 256},
	}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRingGarbageIsNotConsumed(t *testing.T) {
	// Write garbage into a response ring directly: a length field without
	// matching canaries must never be decoded into a response; the
	// connection keeps working for real traffic afterwards.
	const blockID = 2
	release := make(chan struct{})
	tc := newTestCluster(t, 1, Options{QPsPerConn: 1}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	tc.server.RegisterHandler(blockID, func(req []byte) []byte {
		<-release
		return req
	})
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()

	// Park a real call, so the garbage has a live completion record to hit.
	p, err := th.CallAsync(blockID, []byte("parked"), CallOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the ring head with a bogus "message" that answers the parked
	// call but whose canaries mismatch.
	q := conn.qps[0]
	garbage := make([]byte, msgSpace([]int{0}))
	putHeader(garbage, header{totalLen: uint32(len(garbage)), count: 1, canary: 0xABCD, flags: flagItemMetaV2})
	putItemMeta(garbage[headerBytes:], itemMeta{threadID: th.ID(), seqID: p.rec.seq, rpcID: blockID})
	binary.LittleEndian.PutUint64(garbage[len(garbage)-trailerBytes:], 0x9999) // trailing canary differs
	if err := q.respCons.mr.WriteAt(garbage, 0); err != nil {
		t.Fatal(err)
	}
	// The dispatcher polls this position first; with mismatched canaries
	// it must treat the message as incomplete forever: the record stays
	// unresolved and nothing is even dropped as stale.
	time.Sleep(5 * time.Millisecond)
	if p.Done() {
		t.Fatalf("garbage decoded into a response: %+v %v", p.resp, p.err)
	}
	if n := tc.clients[0].metrics.staleDrops.Load(); n != 0 {
		t.Fatalf("garbage decoded into %d stale responses", n)
	}
	// Clean the injected bytes (as if the write never happened); real
	// traffic then flows, the parked call's own response first.
	if err := q.respCons.mr.WriteAt(make([]byte, len(garbage)), 0); err != nil {
		t.Fatal(err)
	}
	close(release)
	if r, err := p.Wait(); err != nil || !bytes.Equal(r.Data, []byte("parked")) {
		t.Fatalf("parked call after corruption: %v %q", err, r.Data)
	} else {
		r.Release()
	}
	resp, err := th.Call(echoID, []byte("after-corruption"))
	if err != nil || !bytes.Equal(resp.Data, []byte("after-corruption")) {
		t.Fatalf("traffic after corruption: %v %q", err, resp.Data)
	}
	resp.Release()
}

func TestDeactivatedQPDeclinesAndMigrates(t *testing.T) {
	// Force-deactivate one of two QPs the way the scheduler does (control
	// write) and verify threads migrate and traffic continues.
	tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, Options{QPsPerConn: 2})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	if err := callDrop(th, echoID, []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Deactivate QP 0 client-side exactly as a scheduler control write
	// would land.
	conn.qps[0].ctrl.Store64(ctrlActiveOff, 0)
	for i := 0; i < 200; i++ {
		if err := callDrop(th, echoID, []byte("migrated")); err != nil {
			t.Fatal(err)
		}
	}
	if got := th.curQP.Load(); got != 1 {
		t.Fatalf("thread still on deactivated QP (cur=%d)", got)
	}
	// Reactivate; the thread scheduler may move threads back eventually,
	// but traffic must flow either way.
	conn.qps[0].ctrl.Store64(ctrlActiveOff, 1)
	if err := callDrop(th, echoID, []byte("back")); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerReactivatesWhenLoadShifts(t *testing.T) {
	// Two clients over-budget: run heavy traffic from client A only, let
	// the scheduler skew QPs toward it, then shift all load to client B
	// and verify B's active share recovers.
	sOpts := Options{MaxActiveQPs: 4, QPsPerConn: 3, Credits: 8}
	cOpts := Options{QPsPerConn: 3, Credits: 8}
	tc := newTestCluster(t, 2, sOpts, cOpts)
	registerEcho(tc.server)
	connA, _ := tc.clients[0].Connect(0)
	connB, _ := tc.clients[1].Connect(0)

	drive := func(conn *Conn, rounds int) {
		var wg sync.WaitGroup
		for k := 0; k < 6; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				th := conn.RegisterThread()
				for i := 0; i < rounds; i++ {
					if err := callDrop(th, echoID, []byte("skew")); err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	drive(connA, 400)
	time.Sleep(10 * time.Millisecond)
	aActive := len(connA.ActiveQPs())

	drive(connB, 800)
	time.Sleep(10 * time.Millisecond)
	bActive := len(connB.ActiveQPs())
	if bActive < 1 {
		t.Fatalf("client B starved after load shift (active=%d)", bActive)
	}
	// A must never have been starved below the 1-QP floor either.
	if len(connA.ActiveQPs()) < 1 {
		t.Fatal("client A starved below the one-QP floor")
	}
	t.Logf("active QPs: A=%d (after A-heavy), B=%d (after B-heavy)", aActive, bActive)
}

func TestManyConnsFromOneClientNode(t *testing.T) {
	// Regression for the multi-connection accept bug: several connection
	// handles from the same client node to the same server must all stay
	// live (the paper's multi-process clients, §8.4).
	tc := newTestCluster(t, 1, Options{QPsPerConn: 1}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	var conns []*Conn
	for i := 0; i < 4; i++ {
		conn, err := tc.clients[0].Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
	}
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn *Conn) {
			defer wg.Done()
			th := conn.RegisterThread()
			msg := []byte(fmt.Sprintf("conn-%d", i))
			for j := 0; j < 100; j++ {
				resp, err := th.Call(echoID, msg)
				if err != nil || !bytes.Equal(resp.Data, msg) {
					t.Errorf("conn %d: %v %q", i, err, resp.Data)
					return
				}
				resp.Release()
			}
		}(i, conn)
	}
	wg.Wait()
}

func TestExportAttachNamed(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	mr, err := tc.server.ExportMR("state", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.server.ExportMR("state", 512); err == nil {
		t.Fatal("duplicate export accepted")
	}
	conn, _ := tc.clients[0].Connect(0)
	region, err := conn.AttachNamed("state")
	if err != nil {
		t.Fatal(err)
	}
	if region.Size() != 1024 {
		t.Fatalf("size = %d", region.Size())
	}
	if _, err := conn.AttachNamed("nope"); err == nil {
		t.Fatal("attach of unknown name succeeded")
	}
	// One-sided write through the named region is visible to the server.
	th := conn.RegisterThread()
	if err := th.Write(region, 10, []byte("named")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	mr.ReadAt(got, 10) //nolint:errcheck
	if !bytes.Equal(got, []byte("named")) {
		t.Fatalf("server memory: %q", got)
	}
}

func TestMemoryOpErrorSurfaces(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	region, _ := conn.AttachMemRegion(64)
	// Out-of-bounds one-sided write: the remote NIC rejects it and the
	// error surfaces as an OpError rather than hanging the thread.
	err := th.Write(region, 60, []byte("too-far!"))
	if err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if _, ok := err.(*OpError); !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
}

// TestStaleMemCompletionDropped pins the wr_id demultiplexing of memory
// operations (§6): a send completion names its operation by sequence ID,
// so the late completion of an earlier operation — one whose waiter gave
// up on it — is dropped as stale instead of resolving whatever the thread
// has in flight now.
func TestStaleMemCompletionDropped(t *testing.T) {
	tc := newTestCluster(t, 1, Options{QPsPerConn: 1}, Options{QPsPerConn: 1})
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	region, _ := conn.AttachMemRegion(64)
	src := []byte("its own data")
	if err := th.Write(region, 0, src); err != nil { // slot 0, generation 1
		t.Fatal(err)
	}
	writeID := uint64(1) << slotBits

	// As the Read below takes leadership — registered in the Write's slot,
	// not yet posted — a failed completion arrives under the Write's ID.
	var once sync.Once
	leaderStallHook = func(c *Conn, q *connQP) {
		once.Do(func() {
			c.routeSendCompletion(q, rnic.Completion{WRID: memWRID(th.ID(), writeID), Status: rnic.StatusRemoteAccess})
		})
	}
	defer func() { leaderStallHook = nil }()
	dst := make([]byte, len(src))
	if err := th.Read(region, 0, dst); err != nil {
		t.Fatalf("Read resolved by another operation's completion: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("Read returned %q, want %q", dst, src)
	}
	if n := tc.clients[0].metrics.staleDrops.Load(); n != 1 {
		t.Fatalf("stale_drops = %d, want exactly the injected completion", n)
	}
}

func TestReadLargerThanScratch(t *testing.T) {
	tc := newTestCluster(t, 1, Options{test: testKnobs{maxPayload: 128}}, Options{test: testKnobs{maxPayload: 128}})
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	region, _ := conn.AttachMemRegion(4096)
	if err := th.Read(region, 0, make([]byte, 4096)); err != ErrReadTooLarge {
		t.Fatalf("oversized read: %v", err)
	}
}

func TestConnCloseRacesInflightRPCs(t *testing.T) {
	// Close the connection while calls are mid-flight AND the link is
	// flapping, so some threads are inside the recovery path when the
	// poison lands. Every call must return promptly with either a real
	// response or a typed error — never hang, never surface an untyped
	// failure — and the node must accept a fresh connection afterwards.
	sOpts := Options{QPsPerConn: 2}
	cOpts := Options{
		QPsPerConn:   2,
		RPCTimeout:   50 * time.Millisecond,
		StallTimeout: 5 * time.Millisecond,
		test:         testKnobs{rcRetries: 2},
	}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{
		Seed: 4,
		Links: []fabric.LinkFault{{
			Src: tc.clients[0].ID(), Dst: tc.server.ID(),
			DownAfter: 60, DownFor: 60, Repeat: true,
		}},
	})

	const nThreads = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := callDrop(th, echoID, []byte("racing"))
				if err == nil || errors.Is(err, ErrTimeout) || errors.Is(err, ErrQPBroken) {
					continue
				}
				if errors.Is(err, ErrClosed) {
					return // the expected terminal error after Close
				}
				t.Errorf("untyped error racing Close: %v", err)
				return
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let calls overlap fault windows
	conn.Close()
	closedAt := time.Now()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(chaosDeadline):
		t.Fatal("caller hung across Conn.Close during faults")
	}
	close(stop)
	// Callers must observe the close within roughly one retry cycle, not
	// only after draining long backoffs.
	if waited := time.Since(closedAt); waited > 10*time.Second {
		t.Fatalf("callers took %v to observe Close", waited)
	}

	// The node itself is healthy: a new connection works once the fault
	// plan is cleared.
	tc.net.Fabric().SetFaultPlan(nil)
	conn2, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th2 := conn2.RegisterThread()
	callUntilOK(t, th2, []byte("post-close"))
}

func TestCreditRenewalSurvivesLoss(t *testing.T) {
	// Credit renewal under lossy RC: with a tiny credit budget the leader
	// renews constantly, so seeded loss keeps hitting renewal write-imms
	// (retransmitted by the NIC) and outage windows break QPs with
	// renewals in flight (recovered by recycling, which resets the credit
	// state on both ends). Traffic must never deadlock waiting on credits
	// that were lost with the old QP.
	sOpts := Options{QPsPerConn: 2, Credits: 4}
	cOpts := Options{
		QPsPerConn:   2,
		Credits:      4,
		RPCTimeout:   100 * time.Millisecond,
		StallTimeout: 10 * time.Millisecond,
		test:         testKnobs{rcRetries: 3},
	}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{
		Seed:       5,
		RCLossProb: 0.05,
		Links: []fabric.LinkFault{{
			Src: tc.clients[0].ID(), Dst: tc.server.ID(),
			DownAfter: 300, DownFor: 150, Repeat: true,
		}},
	})

	const nThreads, perThread = 3, 40
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; i < perThread; i++ {
				callUntilOK(t, th, []byte(fmt.Sprintf("c%02d-%04d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if fs := tc.net.Fabric().FaultCounters(); fs.RCDropped == 0 {
		t.Fatal("no RC loss injected — the renewal-loss run was vacuous")
	}
	// Clear faults; a full credit budget's worth of back-to-back calls
	// proves renewal still circulates after the lossy phase.
	tc.net.Fabric().SetFaultPlan(nil)
	th := conn.RegisterThread()
	for i := 0; i < 32; i++ {
		callUntilOK(t, th, []byte(fmt.Sprintf("renew-%04d", i)))
	}
}

func TestConnCloseReleasesAndRejects(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, _ := tc.clients[0].Connect(0)
	th := conn.RegisterThread()
	if err := callDrop(th, echoID, []byte("pre-close")); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 2)
	for _, rt := range []*Thread{th, conn.RegisterThread()} { // the second never sent
		go func() { blocked <- recvDrop(rt) }()
	}
	time.Sleep(2 * time.Millisecond)
	conn.Close()
	// Close poisons in-flight waiters with the typed ErrConnClosed, which
	// wraps ErrClosed for legacy callers, and releases a RecvRes with nothing
	// outstanding on its own: the node stays up.
	for range 2 {
		select {
		case err := <-blocked:
			if !errors.Is(err, ErrConnClosed) {
				t.Fatalf("blocked RecvRes after Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a RecvRes with nothing outstanding outlived Conn.Close")
		}
	}
	if _, err := th.SendRPC(echoID, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendRPC after Close: %v", err)
	}
	conn.Close() // idempotent

	// A fresh connection on the same node still works.
	conn2, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th2 := conn2.RegisterThread()
	resp, err := th2.Call(echoID, []byte("new-conn"))
	if err != nil || string(resp.Data) != "new-conn" {
		t.Fatalf("fresh conn: %v %q", err, resp.Data)
	}
	resp.Release()
}
