package flock_test

// Allocation-regression gate for the pooled hot path. The zero-copy
// refactor took the synchronous echo exchange from 17 allocs/op down to 2
// (1 since PR 25: the leader's claimed batch is its queue's scratch);
// this test pins a ceiling so a change that quietly reintroduces
// per-message allocation fails CI rather than showing up later as GC
// pressure under load.

import (
	"runtime"
	"testing"
	"time"

	"flock"
	"flock/internal/core"
	"flock/internal/loadgen"
	"flock/internal/mem"
)

// allocCeiling is the allowed allocations per echo Call+Release.
// Measured steady state is 1 alloc/op, the call's queue node; the ceiling
// leaves headroom for mallocs by the dispatcher/server goroutines that
// AllocsPerRun's process-wide counting attributes to the loop, while
// staying far below the pre-pool 17.
const allocCeiling = 8

func TestEchoAllocRegressionGate(t *testing.T) {
	star, err := loadgen.NewStar(flock.Options{}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	th := star.Conns[0].RegisterThread()
	payload := make([]byte, 64)

	// Warm the pool free lists and the connection's scratch buffers so the
	// measured window is steady state, not first-touch growth.
	for i := 0; i < 200; i++ {
		r, err := th.Call(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}

	avg := testing.AllocsPerRun(500, func() {
		r, err := th.Call(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	})
	t.Logf("echo allocs/op: %.2f (ceiling %d)", avg, allocCeiling)
	if avg > allocCeiling {
		t.Fatalf("allocation regression: %.2f allocs per echo exchange, ceiling %d — the pooled hot path is leaking allocations",
			avg, allocCeiling)
	}
}

// TestDeadlineCallAllocGate: a deadline is a field on the call's completion
// record that a periodic sweep reads, not a timer, so bounding a call costs
// no allocation — a CallWithDeadline echo allocates no more than the plain
// Call echo measured beside it.
func TestDeadlineCallAllocGate(t *testing.T) {
	star, err := loadgen.NewStar(flock.Options{}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	th := star.Conns[0].RegisterThread()
	payload := make([]byte, 64)
	plain := func() {
		r, err := th.Call(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	bounded := func() {
		r, err := th.CallWithDeadline(1, payload, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	for i := 0; i < 200; i++ {
		plain()
		bounded()
	}
	base := testing.AllocsPerRun(500, plain)
	got := testing.AllocsPerRun(500, bounded)
	t.Logf("echo allocs/op: Call %.2f, CallWithDeadline %.2f", base, got)
	if got > base+0.5 {
		t.Fatalf("CallWithDeadline allocates %.2f per echo against Call's %.2f: a deadline must not cost an allocation", got, base)
	}
}

// TestWorkerEchoAllocGate: a worker-lane request is pulled off the ring by the
// pool goroutine that then executes it, into reply handles that goroutine
// reuses (and relief's hand-offs recycle theirs through a freelist), so an
// echo behind a worker pool allocates no more than the inline echo measured
// beside it — not one reply slice per message more.
func TestWorkerEchoAllocGate(t *testing.T) {
	measure := func(workers int) float64 {
		star, err := loadgen.NewStar(flock.Options{Workers: workers}, flock.Options{}, 1, 0, loadgen.Echo)
		if err != nil {
			t.Fatal(err)
		}
		defer star.Close()
		th := star.Conns[0].RegisterThread()
		payload := make([]byte, 64)
		call := func() {
			r, err := th.Call(1, payload)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		for i := 0; i < 200; i++ {
			call()
		}
		return testing.AllocsPerRun(500, call)
	}
	inline := measure(0)
	pool := measure(4)
	t.Logf("echo allocs/op: inline %.2f, Workers 4 %.2f", inline, pool)
	if pool > inline+0.5 {
		t.Fatalf("a worker-lane echo allocates %.2f against the inline echo's %.2f: the pool path allocates per message", pool, inline)
	}
}

// TestKeyedCallAllocGate: a call with retries carries an idempotency key, so
// the server's dedup window reserves and commits it, and that costs nothing —
// entries live by value in the window, the commit order in a fixed ring, and
// a short result inside its entry. A keyed echo allocates no more than the
// plain Call measured beside it.
func TestKeyedCallAllocGate(t *testing.T) {
	star, err := loadgen.NewStar(flock.Options{}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	th := star.Conns[0].RegisterThread()
	payload := make([]byte, 16)
	plain := func() {
		r, err := th.Call(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	keyed := func() {
		r, err := th.CallOpts(1, payload, flock.CallOptions{MaxAttempts: 2, Budget: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	for i := 0; i < 2000; i++ { // past the window's capacity: eviction is steady state
		plain()
		keyed()
	}
	base := testing.AllocsPerRun(500, plain)
	got := testing.AllocsPerRun(500, keyed)
	t.Logf("echo allocs/op: Call %.2f, keyed CallOpts %.2f", base, got)
	if got > base+0.5 {
		t.Fatalf("a keyed echo allocates %.2f against Call's %.2f: the dedup window allocates per request", got, base)
	}
}

// TestReplyLaterAllocGate: a handler that returns first and replies from
// another goroutine holds its reply handle's storage until that Send, which
// hands it back for the next message, so a reply-later echo behind a worker
// pool allocates no more than the plain Call measured beside it.
func TestReplyLaterAllocGate(t *testing.T) {
	star, err := loadgen.NewStar(flock.Options{Workers: 2}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	const laterID = 2
	type reply struct {
		r    *core.Reply
		data []byte
	}
	owed := make(chan reply, 16) // a window's worth: the handler never waits on the replier
	replier := make(chan struct{})
	go func() {
		defer close(replier)
		for o := range owed {
			o.r.Send(o.data, flock.StatusOK)
		}
	}()
	defer func() { close(owed); <-replier }()
	star.Server.RegisterReplyHandler(laterID, false, func(req []byte, r *core.Reply) {
		// req does not outlive the handler: the echo is copied into the
		// handle's own buffer.
		owed <- reply{r, append(r.Buf(), req...)}
	})
	th := star.Conns[0].RegisterThread()
	payload := []byte("sixteen bytes ok")
	call := func(rpcID uint32) func() {
		return func() {
			r, err := th.Call(rpcID, payload)
			if err != nil {
				t.Fatal(err)
			}
			if string(r.Data) != string(payload) {
				t.Fatalf("rpc %d echoed %q", rpcID, r.Data)
			}
			r.Release()
		}
	}
	plain, later := call(1), call(laterID)
	for i := 0; i < 200; i++ {
		plain()
		later()
	}
	base := testing.AllocsPerRun(500, plain)
	got := testing.AllocsPerRun(500, later)
	t.Logf("echo allocs/op: Call %.2f, reply-later %.2f", base, got)
	if got > base+0.5 {
		t.Fatalf("a reply-later echo allocates %.2f against Call's %.2f: its reply storage is not reused", got, base)
	}
}

// replicatedPutAllocCeiling is the allowed process-wide allocations per
// acknowledged put with two backups. Measured 5: the router call's queue
// node, and a queue node and a Pending for the frame to each backup. The
// members allocate nothing — dedup entries, reply handles, log records and
// gated reads all reuse their storage.
const replicatedPutAllocCeiling = 8

func TestReplicatedPutAllocGate(t *testing.T) {
	kv, err := loadgen.NewKV(3, 2, 2, flock.Options{Workers: 4}, flock.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := kv.Router.Thread()
	val := uint64(0)
	put := func() {
		val++
		if err := rt.Put(val%8, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		put()
	}
	avg := testing.AllocsPerRun(500, put)
	t.Logf("replicated put allocs/op: %.2f (ceiling %d)", avg, replicatedPutAllocCeiling)
	if avg > replicatedPutAllocCeiling {
		t.Fatalf("allocation regression: %.2f allocs per R=2 put, ceiling %d", avg, replicatedPutAllocCeiling)
	}
}

// sendBatchAllocCeiling is the allowed allocations per SendBatch of eight
// 64-byte echoes, waited and released. Measured 17: the result slice, eight
// Pendings and eight queue nodes (the leader's batch is its queue's scratch
// since PR 25). A batch is one chain
// through the same submit path as a single call, which keeps its per-call
// state in the Pending; the second submit engine SendBatch used to be carried
// side slices of nodes, indexes, chain and verdicts (22 a batch in this rig),
// and the ceiling sits two below that so they cannot come back.
const sendBatchAllocCeiling = 20

func TestSendBatchAllocGate(t *testing.T) {
	star, err := loadgen.NewStar(flock.Options{}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	th := star.Conns[0].RegisterThread()
	ops := make([]flock.BatchOp, 8)
	for i := range ops {
		ops[i] = flock.BatchOp{RPCID: 1, Payload: make([]byte, 64)}
	}
	window := func() {
		pends, err := th.SendBatch(ops, flock.CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pends {
			r, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
	}
	for i := 0; i < 200; i++ {
		window()
	}
	avg := testing.AllocsPerRun(500, window)
	t.Logf("SendBatch(8) allocs/batch: %.2f (ceiling %d)", avg, sendBatchAllocCeiling)
	if avg > sendBatchAllocCeiling {
		t.Fatalf("allocation regression: %.2f allocs per SendBatch of 8, ceiling %d", avg, sendBatchAllocCeiling)
	}
}

// TestEchoPoolGetsGate: the server reads a request where it landed, on its
// request ring, so an echo round trip takes one pooled lease — the client's
// copy of its response out of the response ring — and no other. N echoes must
// take exactly N mem.Default Gets, on the inline lane (Workers 0) and on the
// worker lane (Workers 2); a server that copied requests out of the ring
// reads 2N.
func TestEchoPoolGetsGate(t *testing.T) {
	const n = 500
	for _, workers := range []int{0, 2} {
		star, err := loadgen.NewStar(flock.Options{Workers: workers}, flock.Options{}, 1, 0, loadgen.Echo)
		if err != nil {
			t.Fatal(err)
		}
		th := star.Conns[0].RegisterThread()
		payload := make([]byte, 4096)
		call := func() {
			r, err := th.Call(1, payload)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
		for i := 0; i < 200; i++ {
			call()
		}
		before := mem.Default.Stats().Gets
		for i := 0; i < n; i++ {
			call()
		}
		gets := mem.Default.Stats().Gets - before
		star.Close()
		t.Logf("Workers %d: %d pool gets for %d echoes", workers, gets, n)
		if gets != n {
			t.Fatalf("Workers %d: %d echoes took %d pool gets, want exactly %d (the response lease only)", workers, n, gets, n)
		}
	}
}

// TestMemOpAllocGate: a memory op's work request is written once, into its
// thread's slot, and the combining-queue node points at it, so a
// synchronous Read allocates exactly one object — the node — of at most
// memOpNodeBytes. The node carrying the request by value was a 224-byte
// object.
func TestMemOpAllocGate(t *testing.T) {
	const (
		n              = 2000
		memOpNodeBytes = 96
	)
	star, err := loadgen.NewStar(flock.Options{}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	region, err := star.Conns[0].AttachMemRegion(4096)
	if err != nil {
		t.Fatal(err)
	}
	th := star.Conns[0].RegisterThread()
	dst := make([]byte, 64)
	read := func() {
		if err := th.Read(region, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		read()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Read: %.3f allocs, %.1f B per op", allocs, bytes)
	if allocs < 0.99 || allocs > 1.01 || bytes > memOpNodeBytes+1 {
		t.Fatalf("a synchronous Read allocates %.3f objects and %.1f B per op, want its one queue node of at most %d B",
			allocs, bytes, memOpNodeBytes)
	}
}
