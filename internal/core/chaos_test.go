package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/kvstore"
)

// Chaos suite: drive real RPC traffic while seeded fault plans break QPs
// underneath it, and assert the recovery invariants end to end — no
// deadlock (every call returns within the harness deadline), no lost or
// duplicated responses (every call eventually returns exactly its own
// echo), and eventual recovery (traffic is healthy again once the fault
// clears, with the expected recovery actions visible in the metrics).

// chaosDeadline bounds every wait in the suite; generous because CI may
// pin the whole test to one CPU.
const chaosDeadline = 30 * time.Second

// waitFor polls cond until it holds or the chaos deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(chaosDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// callUntilOK retries one echo exchange until it succeeds, failing the
// test if the chaos deadline expires — the "no deadlock, no lost
// response" assertion. Each Call returns at most once per invocation and
// matches its response by sequence ID, so a successful return with the
// right payload is also the no-duplication check: stale or repeated
// responses are dropped inside the client, never surfaced.
func callUntilOK(t *testing.T, th *Thread, payload []byte) {
	t.Helper()
	deadline := time.Now().Add(chaosDeadline)
	for {
		resp, err := th.Call(echoID, payload)
		if err == nil {
			if !bytes.Equal(resp.Data, payload) {
				t.Errorf("response/request mismatch: %q != %q", resp.Data, payload)
			}
			resp.Release()
			return
		}
		if !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
			t.Errorf("fatal error under faults: %v", err)
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("call never completed: last error %v", err)
			return
		}
	}
}

// KV RPCs layered over internal/kvstore for the chaos suite: puts carry a
// per-key monotonic counter and the handler applies only newer values, so
// a stale retry of an abandoned (deadline-expired) attempt can never roll
// a key backwards — the client-visible contract is monotonic per key.
const (
	kvPutID = 2
	kvGetID = 3
)

// registerKV exports a kvstore arena on the server and registers put/get
// handlers over it. Handlers run inline on the server dispatcher (the
// cluster uses Workers=0), so they need no extra synchronization.
func registerKV(t *testing.T, n *Node) {
	t.Helper()
	const capacity, valSize = 64, 8
	arena, err := n.ExportMR("chaos-kv", kvstore.ArenaSize(capacity, valSize))
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.New(arena, capacity, valSize)
	if err != nil {
		t.Fatal(err)
	}
	n.RegisterHandler(kvPutID, func(req []byte) []byte {
		key := binary.LittleEndian.Uint64(req[:8])
		cur := make([]byte, valSize)
		if _, err := store.Get(key, cur); err == nil &&
			binary.LittleEndian.Uint64(cur) >= binary.LittleEndian.Uint64(req[8:16]) {
			return []byte{0} // stale retry; already applied a newer value
		}
		if err := store.Apply(key, req[8:16]); err != nil {
			return []byte{1}
		}
		return []byte{0}
	})
	n.RegisterHandler(kvGetID, func(req []byte) []byte {
		key := binary.LittleEndian.Uint64(req[:8])
		out := make([]byte, valSize)
		if _, err := store.Get(key, out); err != nil {
			return nil // key never written
		}
		return out
	})
}

// kvDrive runs one thread's put/get mix under faults: every put carries
// the next counter for this thread's key, every get must observe a
// counter no older than the last acknowledged put and no newer than the
// last attempted one. Returns the final acknowledged counter.
func kvDrive(t *testing.T, th *Thread, key, rounds uint64) uint64 {
	t.Helper()
	req := make([]byte, 16)
	binary.LittleEndian.PutUint64(req[:8], key)
	acked := uint64(0)
	for i := uint64(1); i <= rounds; i++ {
		binary.LittleEndian.PutUint64(req[8:16], i)
		deadline := time.Now().Add(chaosDeadline)
		for {
			resp, err := th.Call(kvPutID, req)
			applied := err == nil && resp.Status == StatusOK && len(resp.Data) == 1 && resp.Data[0] == 0
			resp.Release() // nil-safe on the error path
			if applied {
				acked = i
				break
			}
			if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
				t.Errorf("kv put: fatal error under faults: %v", err)
				return acked
			}
			if time.Now().After(deadline) {
				t.Errorf("kv put %d never acknowledged", i)
				return acked
			}
		}
		if i%8 != 0 {
			continue
		}
		resp, err := th.Call(kvGetID, req[:8])
		if err != nil || resp.Status != StatusOK || len(resp.Data) < 8 {
			resp.Release()
			continue // transient; monotonicity is checked on the next get
		}
		got := binary.LittleEndian.Uint64(resp.Data[:8])
		resp.Release()
		if got < acked || got > i {
			t.Errorf("kv get: counter %d outside [%d,%d] — lost or replayed put", got, acked, i)
			return acked
		}
	}
	return acked
}

// TestChaosRetryExhaustionRecycles is fault plan 1: a scheduled outage
// window on the client→server link exhausts the RC retry budget, breaking
// QPs mid-traffic. The connection must recycle them — every QP breaks
// together, so the fault is the link's and nothing is quarantined — and
// every in-flight and subsequent call must still complete with its own echo.
func TestChaosRetryExhaustionRecycles(t *testing.T) {
	sOpts := Options{QPsPerConn: 2}
	cOpts := Options{
		QPsPerConn:   2,
		RPCTimeout:   100 * time.Millisecond,
		StallTimeout: 10 * time.Millisecond,
		test:         testKnobs{rcRetries: 3},
	}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	registerKV(t, tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th0 := conn.RegisterThread()
	callUntilOK(t, th0, []byte("warm"))

	// Plan 1: after 40 more transmission attempts the link goes down for
	// 400 attempts — long enough that retransmissions burn the retry
	// budget many times over — then recovers for good.
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{
		Seed: 1,
		Links: []fabric.LinkFault{
			{Src: tc.clients[0].ID(), Dst: tc.server.ID(), DownAfter: 40, DownFor: 400},
		},
	})

	// Mixed traffic: echo threads assert exactly-once delivery of their
	// own payloads; kvstore threads assert per-key monotonicity (no lost
	// or replayed put) through the same fault window.
	const nThreads, perThread = 4, 25
	const nKVThreads, kvRounds = 2, 40
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := th0
			if g > 0 {
				th = conn.RegisterThread()
			}
			for i := 0; i < perThread; i++ {
				callUntilOK(t, th, []byte(fmt.Sprintf("t%02d-%04d", g, i)))
			}
		}(g)
	}
	kvFinal := make([]uint64, nKVThreads)
	for g := 0; g < nKVThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kvFinal[g] = kvDrive(t, conn.RegisterThread(), uint64(100+g), kvRounds)
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// After the fault window every key must hold exactly its final
	// acknowledged counter — nothing lost, nothing replayed.
	for g := 0; g < nKVThreads; g++ {
		if kvFinal[g] != kvRounds {
			t.Fatalf("kv thread %d finished at %d/%d puts", g, kvFinal[g], kvRounds)
		}
		req := make([]byte, 8)
		binary.LittleEndian.PutUint64(req, uint64(100+g))
		var resp Response
		var err error
		deadline := time.Now().Add(chaosDeadline)
		for {
			resp, err = th0.Call(kvGetID, req)
			if err == nil && len(resp.Data) >= 8 {
				break
			}
			resp.Release()
			if time.Now().After(deadline) {
				t.Fatalf("final kv get: %v (%d bytes)", err, len(resp.Data))
			}
		}
		got := binary.LittleEndian.Uint64(resp.Data[:8])
		resp.Release()
		if got != kvRounds {
			t.Fatalf("final kv counter %d != %d", got, kvRounds)
		}
	}

	if fs := tc.net.Fabric().FaultCounters(); fs.RCDropped == 0 {
		t.Fatal("fault plan injected nothing — the chaos run was vacuous")
	}
	m := tc.clients[0].Metrics()
	if m.QPRecycles == 0 {
		t.Fatalf("no QP recycle despite retry exhaustion (metrics %+v)", m)
	}
	if m.QPQuarantines != 0 {
		t.Fatalf("a finite outage window quarantined QPs (metrics %+v)", m)
	}
	// Recovered: the fault window is exhausted, so a fresh exchange works.
	callUntilOK(t, th0, []byte("post-fault"))
}

// TestChaosLeaderStallReelection is fault plan 2: a combining leader
// wedges (via the test hook) while holding the TCQ on one QP; its
// followers must time out, re-elect on the other QP, and complete —
// with light seeded RC loss running underneath as background noise.
func TestChaosLeaderStallReelection(t *testing.T) {
	var wedged atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderStallHook = func(c *Conn, q *connQP) {
		if q.idx == 0 && wedged.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	}
	defer func() { leaderStallHook = nil }()

	sOpts := Options{QPsPerConn: 2}
	cOpts := Options{
		QPsPerConn:   2,
		RPCTimeout:   300 * time.Millisecond,
		StallTimeout: 3 * time.Millisecond,
	}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	// Plan 2: background retransmit noise under the stall scenario.
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{Seed: 2, RCLossProb: 0.02})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}

	const nThreads, perThread = 4, 8
	var done atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; i < perThread; i++ {
				callUntilOK(t, th, []byte(fmt.Sprintf("t%02d-%04d", g, i)))
			}
			done.Add(1)
		}(g)
	}

	// One goroutine leads QP 0 and wedges; every other goroutine must
	// finish all its calls while it is still stuck — that is the
	// follower-timeout / re-election path working.
	select {
	case <-entered:
	case <-time.After(chaosDeadline):
		t.Fatal("no leader ever wedged on QP 0")
	}
	waitFor(t, "other goroutines to finish around the wedged leader", func() bool {
		return done.Load() >= nThreads-1 || t.Failed()
	})
	if done.Load() == nThreads {
		t.Fatal("all goroutines finished while one should be wedged in lead()")
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	if m := tc.clients[0].Metrics(); m.ThreadMigrations == 0 {
		t.Fatalf("no thread migration despite forced re-election (metrics %+v)", m)
	}
}

// abandonRun is what one run of the abandoned-node scenario observed.
type abandonRun struct {
	acked, execs int64  // calls answered OK; handler executions
	migrations   uint64 // re-elections onto the other QP
}

// abandonBehindWedgedLeader is the directed stall-guard scenario. Four
// threads make eight calls each to a counting handler over two QPs, and every
// leader of QP 0 is wedged for 10 ms before it claims its batch — five times
// the followers' 2 ms StallTimeout. The followers queued behind it abandon
// their nodes and re-submit on QP 1; when the leader wakes, its
// waiting→claimed CAS fails on each abandoned node and it stages none of
// them, so every call executes exactly once. A leader that stages an
// abandoned node (mutClaimTimedOut) executes its call a second time. The
// executions are counted once the server has received every item the
// client posted.
func abandonBehindWedgedLeader(t *testing.T) abandonRun {
	leaderStallHook = func(c *Conn, q *connQP) {
		if q.idx == 0 {
			time.Sleep(10 * time.Millisecond)
		}
	}
	defer func() { leaderStallHook = nil }()

	const countID = 13
	var execs, acked atomic.Int64
	tc := newTestCluster(t, 1, Options{QPsPerConn: 2},
		Options{QPsPerConn: 2, StallTimeout: 2 * time.Millisecond})
	tc.server.RegisterHandler(countID, func(req []byte) []byte {
		execs.Add(1)
		return nil
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	const nThreads, perThread = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; i < perThread; i++ {
				r, err := th.Call(countID, []byte(fmt.Sprintf("t%d-%d", g, i)))
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if r.Status == StatusOK {
					acked.Add(1)
				}
				r.Release()
			}
		}(g)
	}
	wg.Wait()
	client, server := tc.clients[0], tc.server
	waitFor(t, "the server to receive every posted item", func() bool {
		return server.Metrics().ItemsIn >= client.Metrics().ItemsOut
	})
	return abandonRun{acked: acked.Load(), execs: execs.Load(), migrations: client.Metrics().ThreadMigrations}
}

// TestAbandonedNodeNeverExecutes is the stall guard's claim rule on the
// shipped code: around wedged leaders, every acknowledged call executed
// once and no abandoned node executed at all. The flockmut build runs the
// same scenario with mutClaimTimedOut switched on and requires more
// executions than acknowledged calls.
func TestAbandonedNodeNeverExecutes(t *testing.T) {
	run := abandonBehindWedgedLeader(t)
	if t.Failed() {
		return
	}
	if run.acked != 32 {
		t.Fatalf("%d of 32 calls acknowledged", run.acked)
	}
	if run.execs != run.acked {
		t.Fatalf("%d handler executions for %d acknowledged calls", run.execs, run.acked)
	}
	if run.migrations == 0 {
		t.Fatal("no thread re-elected around a wedged leader — the run was vacuous")
	}
}

// qpnOfQP reads a connQP's current queue pair number using the pollers'
// exclusion protocol, so it cannot race the recycler's swap of q.qp:
// holding the poll role with broken unset pins the QP.
func qpnOfQP(q *connQP) (int, bool) {
	for !q.polling.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	defer q.polling.Store(false)
	if q.broken.Load() {
		return 0, false
	}
	return q.qp.QPN(), true
}

// flapIntoQuarantine cuts q's queue pair off the link for good, and the
// replacement after every recycle, until the connection quarantines q: the
// QP breaks again and again with none of its own sends landing while its
// siblings' do, which is the evidence the quarantine rule asks for. The
// retarget spins rather than sleeps, so the traffic seldom gets a send of
// q's own through between a recycle and the next cut; when it does, the QP
// just starts a new streak. The cut is lifted before it returns.
func flapIntoQuarantine(t *testing.T, tc *testCluster, q *connQP) {
	t.Helper()
	fab := tc.net.Fabric()
	cutQPN := -1
	deadline := time.Now().Add(chaosDeadline)
	for !q.disabled.Load() && !t.Failed() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the flapping QP to be quarantined")
		}
		if qpn, ok := qpnOfQP(q); ok && qpn != cutQPN {
			cutQPN = qpn
			fab.ClearLinkFaults()
			fab.AddLinkFault(fabric.LinkFault{
				Src: tc.clients[0].ID(), Dst: tc.server.ID(), QPN: qpn, DownFor: 0, // down forever
			})
		}
		runtime.Gosched()
	}
	fab.ClearLinkFaults()
}

// TestChaosLinkFlapQuarantine is fault plan 3: one QP's link keeps going
// down (the fault is retargeted to the replacement QP after every
// recycle), so the QP flaps past DefaultFlapThreshold while its sibling's
// sends land. It must be quarantined — permanently retired — while traffic
// keeps flowing on the surviving QP.
func TestChaosLinkFlapQuarantine(t *testing.T) {
	sOpts := Options{QPsPerConn: 2}
	cOpts := Options{
		QPsPerConn:   2,
		RPCTimeout:   100 * time.Millisecond,
		StallTimeout: 10 * time.Millisecond,
		test:         testKnobs{rcRetries: 2},
	}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	client := tc.clients[0]
	q0 := conn.qps[0]

	// Traffic from two threads; thread 0 is assigned QP 0 and keeps
	// re-breaking it after each recycle, thread 1 rides QP 1 throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
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
				resp, err := th.Call(echoID, []byte(fmt.Sprintf("t%02d-%04d", g, i)))
				if err == nil && resp.Status != StatusOK {
					t.Errorf("bad status %d", resp.Status)
					return
				}
				resp.Release()
				if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken) {
					t.Errorf("fatal error under flaps: %v", err)
					return
				}
			}
		}(g)
	}

	// Plan 3: take QP 0's link down for good; after each recycle retarget
	// the fault at the replacement queue pair number so the QP flaps.
	flapIntoQuarantine(t, tc, q0)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quarantine must stick: QP 0 is retired on both ends, the active set
	// excludes it, and traffic continues on the survivor.
	if !q0.disabled.Load() {
		t.Fatal("flapping QP not disabled after quarantine")
	}
	for _, idx := range conn.ActiveQPs() {
		if idx == 0 {
			t.Fatal("quarantined QP still in the active set")
		}
	}
	waitFor(t, "server-side quarantine", func() bool {
		return tc.server.Metrics().QPQuarantines >= 1
	})
	th := conn.RegisterThread()
	for i := 0; i < 20; i++ {
		callUntilOK(t, th, []byte(fmt.Sprintf("degraded-%04d", i)))
	}
	m := client.Metrics()
	if m.QPRecycles < DefaultFlapThreshold {
		t.Fatalf("expected %d recycles before quarantine, got %d", DefaultFlapThreshold, m.QPRecycles)
	}
}
