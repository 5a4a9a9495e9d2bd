package cluster

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
)

// shardKeys returns n distinct keys that all route to shard.
func shardKeys(m *ShardMap, shard, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if m.ShardOf(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCutBatch drives the flush policy through its batch-boundary edge
// cases: epoch bump mid-batch, the entry cap, the first-waiter
// deadline (including a single waiter), and natural batching.
func TestCutBatch(t *testing.T) {
	base := time.Unix(1000, 0)
	mk := func(epochs ...uint64) []*replOp {
		q := make([]*replOp, len(epochs))
		for i, e := range epochs {
			q[i] = &replOp{epoch: e}
		}
		return q
	}
	cases := []struct {
		name       string
		queue      []*replOp
		maxEntries int
		delay      time.Duration
		age        time.Duration // now - firstAt
		wantN      int
		wantWake   bool
	}{
		{name: "empty queue does nothing", queue: nil, maxEntries: 8, wantN: 0},
		{name: "natural batching flushes a lone op", queue: mk(5), maxEntries: 8, wantN: 1},
		{name: "natural batching flushes the whole prefix", queue: mk(5, 5, 5), maxEntries: 8, wantN: 3},
		{name: "entry cap cuts a full frame", queue: mk(5, 5, 5, 5), maxEntries: 3, delay: time.Hour, wantN: 3},
		{name: "epoch bump mid-batch cuts at the boundary", queue: mk(5, 5, 7), maxEntries: 8, delay: time.Hour, wantN: 2},
		{name: "epoch boundary overrides the deadline wait", queue: mk(5, 7), maxEntries: 8, delay: time.Hour, wantN: 1},
		{name: "young batch waits for the deadline", queue: mk(5, 5), maxEntries: 8, delay: 10 * time.Millisecond, age: time.Millisecond, wantN: 0, wantWake: true},
		{name: "aged batch flushes at the deadline", queue: mk(5, 5), maxEntries: 8, delay: 10 * time.Millisecond, age: 10 * time.Millisecond, wantN: 2},
		{name: "single waiter still waits out the delay", queue: mk(5), maxEntries: 8, delay: 10 * time.Millisecond, age: 0, wantN: 0, wantWake: true},
		{name: "single waiter flushes once aged", queue: mk(5), maxEntries: 8, delay: 10 * time.Millisecond, age: 11 * time.Millisecond, wantN: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, wake := cutBatch(tc.queue, tc.maxEntries, tc.delay, base, base.Add(tc.age))
			if n != tc.wantN {
				t.Fatalf("cutBatch n = %d, want %d", n, tc.wantN)
			}
			if gotWake := !wake.IsZero(); gotWake != tc.wantWake {
				t.Fatalf("cutBatch wake = %v, wantWake %v", wake, tc.wantWake)
			}
			if tc.wantWake {
				if want := base.Add(tc.delay); !wake.Equal(want) {
					t.Fatalf("cutBatch wake = %v, want %v", wake, want)
				}
			}
		})
	}
}

// TestReplFrameSingleEntryWireCompat: a one-entry group-commit frame is
// byte-identical to the AppendReplicaForward image — the pooled frame
// builder and the reference encoder speak one wire dialect.
func TestReplFrameSingleEntryWireCompat(t *testing.T) {
	want := AppendReplicaForward(nil, ReplicaForward{
		Epoch:   42,
		Entries: []ReplicaEntry{{Key: 0xDEAD, Val: 0xBEEF}},
	})
	f := leaseReplFrame(42, 1)
	defer f.release()
	f.add(0xDEAD, 0xBEEF)
	got := f.payload()
	if !bytes.Equal(got, want) {
		t.Fatalf("single-entry frame differs from AppendReplicaForward:\n got %x\nwant %x", got, want)
	}
	dec, err := DecodeReplicaForward(got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Epoch != 42 || len(dec.Entries) != 1 || dec.Entries[0] != (ReplicaEntry{Key: 0xDEAD, Val: 0xBEEF}) {
		t.Fatalf("decoded %+v", dec)
	}
}

// TestReplFrameMultiEntry: an N-entry frame round-trips and matches the
// reference encoder entry for entry.
func TestReplFrameMultiEntry(t *testing.T) {
	ref := ReplicaForward{Epoch: 9}
	f := leaseReplFrame(9, 5)
	defer f.release()
	for i := uint64(0); i < 5; i++ {
		f.add(i*3, i*7+1)
		ref.Entries = append(ref.Entries, ReplicaEntry{Key: i * 3, Val: i*7 + 1})
	}
	if got, want := f.payload(), AppendReplicaForward(nil, ref); !bytes.Equal(got, want) {
		t.Fatalf("multi-entry frame differs from AppendReplicaForward:\n got %x\nwant %x", got, want)
	}
}

// TestGroupCommitCoalesces: concurrent puts to one shard ride shared
// FRP2 frames — the batch-entries histogram must show multi-entry
// flushes — every acked put is on the backups (fingerprints equal), and a
// frame is built once for both of them: each backup received the same number
// of frames F, and the primary counted F × backups acked batches.
func TestGroupCommitCoalesces(t *testing.T) {
	const writers = 8
	lc := newCluster(t, 3, 4, 2, writers+2)
	// No attempt wait shorter than the flush window plus the lazy dials: a
	// re-sent put would be a ninth entry and the counts below are exact.
	lc.router.callBudget = 4 * time.Second
	for _, svc := range lc.services {
		svc.Repl = ReplTuning{flushDelay: 50 * time.Millisecond}
	}
	m := lc.coord.Map()
	shard := 0
	keys := shardKeys(m, shard, writers)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := lc.router.Thread()
			errs[w] = rt.Put(keys[w], uint64(w)+1)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", w, err)
		}
	}
	primary, backups := m.Owner(shard), m.BackupsOf(shard)
	var frames uint64
	for i, backup := range backups {
		if pf, bf := lc.services[primary].ShardFingerprint(shard), lc.services[backup].ShardFingerprint(shard); pf != bf {
			t.Fatalf("primary fingerprint %#x != backup %d fingerprint %#x after acked puts", pf, backup, bf)
		}
		// Nothing but this shard's frames is addressed to a backup here.
		got := lc.services[backup].Node().Metrics().ItemsIn
		if i > 0 && got != frames {
			t.Fatalf("backup %d received %d frames, backup %d received %d: a frame did not go to both", backup, got, backups[0], frames)
		}
		frames = got
	}
	tl := lc.services[primary].Node().Telemetry()
	snap := tl.Hist("cluster.repl_batch_entries").Snapshot()
	if snap.Count == 0 || snap.Sum != uint64(writers*len(backups)) {
		t.Fatalf("batch hist count=%d sum=%d; want all %d puts forwarded to %d backups", snap.Count, snap.Sum, writers, len(backups))
	}
	if snap.Sum <= snap.Count {
		t.Fatalf("batch hist count=%d sum=%d: no coalescing happened", snap.Count, snap.Sum)
	}
	if got, want := tl.Counter("cluster.repl_batches").Load(), frames*uint64(len(backups)); got != want || frames == 0 {
		t.Fatalf("repl_batches = %d, want %d frames x %d backups", got, frames, len(backups))
	}
	if got := tl.Counter("cluster.replica_forwards").Load(); got != uint64(writers*len(backups)) {
		t.Fatalf("replica_forwards = %d, want %d puts x %d backups", got, writers, len(backups))
	}
	if pending := tl.Gauge("cluster.repl_log_pending").Load(); pending != 0 {
		t.Fatalf("repl_log_pending = %d after quiesce, want 0", pending)
	}
}

// TestGroupCommitBackupDeathMidBatch: the backup drops off the network
// while a batch is still gathering — every put the batch carried must
// NACK (none ack), because a group commit is all-or-nothing per backup.
func TestGroupCommitBackupDeathMidBatch(t *testing.T) {
	const writers = 4
	lc := newCluster(t, 3, 4, 1, writers+2)
	m := lc.coord.Map()
	shard := 0
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]
	for _, svc := range lc.services {
		svc.Repl = ReplTuning{flushDelay: 60 * time.Millisecond}
		svc.fwdBudget = 100 * time.Millisecond
	}
	keys := shardKeys(m, shard, writers)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := lc.router.Thread()
			errs[w] = rt.Put(keys[w], uint64(w)+1)
		}(w)
	}
	// Let the puts join the pending batch, then cut the primary–backup
	// link before the flush deadline fires.
	time.Sleep(15 * time.Millisecond)
	fab := lc.nw.Fabric()
	fab.SetLinkDown(primary, backup, true)
	fab.SetLinkDown(backup, primary, true)
	wg.Wait()
	for w, err := range errs {
		if err == nil {
			t.Fatalf("put %d acked although its batch could not reach the backup", w)
		}
	}
	// Every put of a failed frame is answered exactly once — the router's
	// re-sent copies included: an answer is what releases the request's hold
	// on the shard lock and takes it out of the read gate's index, a second
	// answer would release a hold nobody has (a fatal error), and so once
	// the last straggler's frame has failed the lock is free and the index
	// empty.
	svc := lc.services[primary]
	waitUntil(t, "every put of the failed frames to be answered", func() bool {
		if !svc.shards[shard].mu.TryLock() {
			return false
		}
		svc.shards[shard].mu.Unlock()
		return true
	})
	for _, k := range keys {
		if ops := svc.pendingOps(k); len(ops) != 0 {
			t.Fatalf("key %d still has %d unresolved puts after every request was answered", k, len(ops))
		}
	}
	if pending := svc.Node().Telemetry().Gauge("cluster.repl_log_pending").Load(); pending != 0 {
		t.Fatalf("repl_log_pending = %d, want 0", pending)
	}
}

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// directKV sends one KV request straight to node to, one attempt, no router:
// the request count at the server is the call count here, so a
// client-side stale drop means some request was answered twice.
func directKV(th *core.Thread, op byte, key, val uint64) (core.Response, error) {
	return th.CallOpts(RPCKV, EncodeKVReq(op, key, val), core.CallOptions{Budget: 5 * time.Second, MaxAttempts: 1})
}

// directThread dials the member from the cluster's client node.
func directThread(t *testing.T, lc *liveCluster, to fabric.NodeID) *core.Thread {
	t.Helper()
	conn, err := lc.router.Node().Connect(to)
	if err != nil {
		t.Fatal(err)
	}
	return conn.RegisterThread()
}

// stagedAndApplied reports whether a put on key is in the read gate's index
// with its value visible in the primary's store — the window a gated get
// must be held in.
func stagedAndApplied(svc *Service, shard int, key uint64) bool {
	_, applied := svc.shards[shard].store.Value64(key)
	return applied && len(svc.pendingOps(key)) > 0
}

// TestReadGateNACKsWhenFrameFails: a get that observed a put whose frame
// then fails must be answered StatusOverloaded — never the value no backup
// holds — and so must the put; each exactly once.
func TestReadGateNACKsWhenFrameFails(t *testing.T) {
	lc := newCluster(t, 3, 4, 1, 4)
	m := lc.coord.Map()
	shard := 0
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]
	svc := lc.services[primary]
	// The flush window is wide against anything the scheduler does to this
	// goroutine: the get below must start inside it.
	svc.Repl = ReplTuning{flushDelay: 500 * time.Millisecond}
	svc.fwdBudget = 60 * time.Millisecond
	key := shardKeys(m, shard, 1)[0]
	fab := lc.nw.Fabric()
	fab.SetLinkDown(primary, backup, true)
	fab.SetLinkDown(backup, primary, true)

	putErr := make(chan error, 1)
	putTh, getTh := directThread(t, lc, primary), directThread(t, lc, primary)
	go func() {
		resp, err := directKV(putTh, OpPut, key, 7)
		resp.Release()
		putErr <- err
	}()
	waitUntil(t, "the put to be staged and applied", func() bool { return stagedAndApplied(svc, shard, key) })
	resp, err := directKV(getTh, OpGet, key, 0)
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("gated get = (status %d, %q, %v), want the retryable NACK: the value it read was never durable", resp.Status, resp.Data, err)
	}
	if err := <-putErr; !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("put = %v, want the retryable NACK", err)
	}
	if got := svc.Node().Telemetry().Counter("cluster.read_gate_waits").Load(); got != 1 {
		t.Fatalf("read_gate_waits = %d, want 1", got)
	}
	if !svc.shards[shard].mu.TryLock() {
		t.Fatal("shard lock still held after both requests were answered")
	}
	svc.shards[shard].mu.Unlock()
	if got := lc.router.Node().Metrics().StaleDrops; got != 0 {
		t.Fatalf("%d stale drops at the client: a request was answered twice", got)
	}
}

// TestServiceCloseAnswersEveryPut: Close with puts queued in a log and
// others in flight in a frame answers every one of them with the retryable
// NACK, exactly once, and leaves the log empty.
func TestServiceCloseAnswersEveryPut(t *testing.T) {
	lc := newCluster(t, 3, 4, 1, 6)
	m := lc.coord.Map()
	shard := 0
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]
	svc := lc.services[primary]
	// Two puts fill a frame, which leaves at once and cannot land (the link
	// is down); the third waits out a flush delay that never ends.
	svc.Repl = ReplTuning{FlushEntries: 2, flushDelay: time.Hour}
	svc.fwdBudget = time.Second
	fab := lc.nw.Fabric()
	fab.SetLinkDown(primary, backup, true)
	fab.SetLinkDown(backup, primary, true)
	keys := shardKeys(m, shard, 3)
	errs := make(chan error, len(keys))
	for i, k := range keys {
		th := directThread(t, lc, primary)
		go func() {
			resp, err := directKV(th, OpPut, k, 1)
			resp.Release()
			errs <- err
		}()
		// One at a time, so it is the first two that share the frame; the
		// second is seen by the frame leaving, as the frame may be gone —
		// failed — by the time anyone looks for the put itself.
		if i == 1 {
			waitUntil(t, "the full frame to leave the log", func() bool {
				return svc.Node().Telemetry().Gauge("cluster.repl_log_pending").Load() == 0
			})
		} else {
			waitUntil(t, "the put to be staged and applied", func() bool { return stagedAndApplied(svc, shard, k) })
		}
	}
	if got := svc.Node().Telemetry().Gauge("cluster.repl_log_pending").Load(); got != 1 {
		t.Fatalf("repl_log_pending = %d before Close, want the one queued put", got)
	}
	svc.Close()
	for range keys {
		if err := <-errs; !errors.Is(err, core.ErrOverloaded) {
			t.Fatalf("put answered %v across Close, want the retryable NACK", err)
		}
	}
	if got := svc.Node().Telemetry().Gauge("cluster.repl_log_pending").Load(); got != 0 {
		t.Fatalf("repl_log_pending = %d after Close, want 0", got)
	}
	if !svc.shards[shard].mu.TryLock() {
		t.Fatal("shard lock still held after Close answered every put")
	}
	svc.shards[shard].mu.Unlock()
	if got := lc.router.Node().Metrics().StaleDrops; got != 0 {
		t.Fatalf("%d stale drops at the client: a put was answered twice", got)
	}
	// A put arriving after Close is turned away at once, not parked.
	resp, err := directKV(directThread(t, lc, primary), OpPut, keys[0], 2)
	resp.Release()
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("put after Close = %v, want the retryable NACK", err)
	}
}

// TestInstallWaitsForUnansweredPut: the shard lock a put took at admission
// is held until its reply is sent, long after its handler returned — an
// install on the shard returns only once the put in the flush window has
// been answered.
func TestInstallWaitsForUnansweredPut(t *testing.T) {
	const delay = 400 * time.Millisecond
	lc := newCluster(t, 3, 4, 1, 4)
	m := lc.coord.Map()
	shard := 0
	svc := lc.services[m.Owner(shard)]
	svc.Repl = ReplTuning{flushDelay: delay}
	key := shardKeys(m, shard, 1)[0]
	th := directThread(t, lc, m.Owner(shard))
	answered := make(chan time.Time, 1)
	go func() {
		resp, err := directKV(th, OpPut, key, 1)
		resp.Release()
		if err != nil {
			t.Errorf("put: %v", err)
		}
		answered <- time.Now()
	}()
	waitUntil(t, "the put to be staged and applied", func() bool { return stagedAndApplied(svc, shard, key) })
	newer := m.Clone()
	newer.Epoch++
	svc.installUnder(shard, newer)
	installed := time.Now()
	// The reply was on the wire before the lock was released; give its
	// delivery to the caller a moment, no more.
	select {
	case at := <-answered:
		if at.After(installed.Add(50 * time.Millisecond)) {
			t.Fatalf("install returned %v before the put admitted under the previous map was answered", at.Sub(installed))
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("install returned with the put admitted under the previous map still unanswered")
	}
	if got := svc.Map().Epoch; got != newer.Epoch {
		t.Fatalf("epoch %d after install, want %d", got, newer.Epoch)
	}
}

// TestKVHandlerPanicReleasesShard: a KV handler that panics while it holds
// the shard's lock — a get before it is answered, a put after it was staged —
// still answers its request, frees the lock and leaves the read gate's index
// empty, so the next install returns and the next get on the key is not gated.
func TestKVHandlerPanicReleasesShard(t *testing.T) {
	lc := newCluster(t, 3, 4, 1, 4)
	m := lc.coord.Map()
	shard := 0
	svc := lc.services[m.Owner(shard)]
	slot := svc.shards[shard]
	key := shardKeys(m, shard, 1)[0]
	th := directThread(t, lc, m.Owner(shard))

	// A nil store makes the handler's first touch of it a nil dereference.
	slot.mu.Lock()
	store := slot.store
	slot.store = nil
	slot.mu.Unlock()
	resp, err := directKV(th, OpGet, key, 0)
	if err != nil || resp.Status != core.StatusHandlerPanic {
		t.Fatalf("get on the panicking handler = (status %d, %v), want StatusHandlerPanic", resp.Status, err)
	}
	resp.Release()
	resp, err = directKV(th, OpPut, key, 7)
	resp.Release()
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("staged put on the panicking handler = %v, want the retryable NACK", err)
	}
	if n := len(svc.pendingOps(key)); n != 0 {
		t.Fatalf("%d puts left in the read gate's index by the panic", n)
	}

	// installUnder takes the lock exclusively: it returns only if both
	// panicking requests gave their shared hold back.
	installed := make(chan struct{})
	go func() {
		slot.mu.Lock()
		slot.store = store
		slot.mu.Unlock()
		newer := m.Clone()
		newer.Epoch++
		svc.installUnder(shard, newer)
		close(installed)
	}()
	select {
	case <-installed:
	case <-time.After(5 * time.Second):
		t.Fatal("install blocked: a panicking handler leaked the shard lock")
	}
	resp, err = directKV(th, OpGet, key, 0)
	if err != nil || resp.Status != core.StatusOK {
		t.Fatalf("get after the panics = (status %d, %v), want an ungated answer", resp.Status, err)
	}
	resp.Release()
	if got := lc.router.Node().Metrics().StaleDrops; got != 0 {
		t.Fatalf("%d stale drops at the client: a request was answered twice", got)
	}
}

// TestRepliesFitReplyBuf: every reply the service builds in Reply.Buf fits its
// capacity, so none of them allocates; a wire change that outgrows it fails
// here rather than as a slow drift in the allocation gates.
func TestRepliesFitReplyBuf(t *testing.T) {
	var r core.Reply
	for name, reply := range map[string][]byte{
		"put ack":     appendEpoch(r.Buf(), 1),
		"replica ack": appendReplicaAck(r.Buf(), 1, 1),
		"get reply":   appendGetReply(r.Buf(), 1, 1, true),
	} {
		if len(reply) > cap(r.Buf()) {
			t.Errorf("%s is %d bytes, Reply.Buf holds %d", name, len(reply), cap(r.Buf()))
		}
	}
}

// TestGroupCommitFlushDeadlineSingleWaiter: with a flush delay set, a
// lone put waits out the first-waiter deadline and then commits — the
// deadline path must both fire and succeed with exactly one op aboard.
func TestGroupCommitFlushDeadlineSingleWaiter(t *testing.T) {
	const delay = 40 * time.Millisecond
	lc := newCluster(t, 3, 4, 1, 4)
	for _, svc := range lc.services {
		svc.Repl = ReplTuning{flushDelay: delay}
	}
	m := lc.coord.Map()
	shard := 0
	key := shardKeys(m, shard, 1)[0]
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]
	// Dial the primary→backup link up front. Dialed lazily inside the put
	// (sixteen 1 MiB rings) it eats the margin between the flush delay and
	// the router's first per-attempt wait on a busy box, and the retry that
	// provokes stages a second op — 2 of 80 fresh-process runs failed that
	// way before this line, at this PR's parent commit too.
	if _, err := lc.services[primary].peers.conn(backup); err != nil {
		t.Fatal(err)
	}
	rt := lc.router.Thread()
	start := time.Now()
	if err := rt.Put(key, 1); err != nil {
		t.Fatalf("put: %v", err)
	}
	if elapsed := time.Since(start); elapsed < delay/2 {
		t.Fatalf("put acked after %v; the %v flush deadline cannot have gated it", elapsed, delay)
	}
	if pf, bf := lc.services[primary].ShardFingerprint(shard), lc.services[backup].ShardFingerprint(shard); pf != bf {
		t.Fatalf("primary fingerprint %#x != backup fingerprint %#x", pf, bf)
	}
	snap := lc.services[primary].Node().Telemetry().Hist("cluster.repl_batch_entries").Snapshot()
	if snap.Count != 1 || snap.Sum != 1 {
		t.Fatalf("batch hist count=%d sum=%d, want exactly one single-entry batch", snap.Count, snap.Sum)
	}
}

// TestReplicateTypedErrors: the replication error surface is
// inspectable — a fence NACK satisfies errors.Is(ErrReplicaFenced) and
// errors.As exposes which backup refused; a transport failure carries
// no status and is not a fence.
func TestReplicateTypedErrors(t *testing.T) {
	lc := newCluster(t, 3, 8, 1, 2)
	m := lc.coord.Map()
	shard := 0
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]

	newer := m.Clone()
	newer.Epoch += 5
	lc.services[backup].InstallMap(newer)
	err := commitTo(lc.services[primary], backup, m.Epoch, shard, 1)
	if !errors.Is(err, ErrReplicaFenced) {
		t.Fatalf("stale-epoch commit error = %v, want ErrReplicaFenced", err)
	}
	var re *ReplError
	if !errors.As(err, &re) {
		t.Fatalf("fence error %v does not unwrap to *ReplError", err)
	}
	if re.Backup != backup || re.Status != core.StatusWrongShard {
		t.Fatalf("fence ReplError = %+v, want backup %d status %d", re, backup, core.StatusWrongShard)
	}

	// A snapshot frame refused by its target — here a member that holds
	// the sender's map and is not in the shard's replica set under it — is
	// a typed NACK naming that member, not a bare string.
	var bystander fabric.NodeID
	for _, id := range m.Members {
		if id != primary && id != backup {
			bystander = id
		}
	}
	lc.services[bystander].InstallMap(newer)
	if _, err := lc.services[primary].shards[shard].store.UpdateMax64(shardKeys(m, shard, 1)[0], 1); err != nil {
		t.Fatal(err)
	}
	err = lc.services[primary].CopyShardTo(shard, bystander, time.Now().Add(20*time.Millisecond))
	re = nil
	if !errors.Is(err, ErrReplicaFenced) || !errors.As(err, &re) ||
		re.Backup != bystander || re.Status != core.StatusWrongShard {
		t.Fatalf("refused snapshot frame error = %v, want ErrReplicaFenced from %d with status %d", err, bystander, core.StatusWrongShard)
	}
	if got := lc.services[bystander].Keys(shard); got != 0 {
		t.Fatalf("bystander applied %d entries of a frame it refused", got)
	}

	// Transport failure: the backup is unreachable, so the error wraps
	// the transport cause, not a fence.
	fab := lc.nw.Fabric()
	fab.SetLinkDown(primary, backup, true)
	fab.SetLinkDown(backup, primary, true)
	lc.services[primary].fwdBudget = 50 * time.Millisecond
	err = commitTo(lc.services[primary], backup, newer.Epoch, shard, 2)
	if err == nil {
		t.Fatal("commit to an unreachable backup succeeded")
	}
	if errors.Is(err, ErrReplicaFenced) || errors.Is(err, ErrReplicaNACK) {
		t.Fatalf("transport failure misclassified as a protocol NACK: %v", err)
	}
	re = nil
	if !errors.As(err, &re) {
		t.Fatalf("transport error %v does not unwrap to *ReplError", err)
	}
	if re.Backup != backup || re.Status != 0 {
		t.Fatalf("transport ReplError = %+v, want backup %d status 0", re, backup)
	}
}

// TestGroupCommitReadGate: a get that observes a put still gathering in
// a replication log must not reply until that put's batch is durable —
// otherwise the primary could die inside the flush window having shown
// a client a value no backup holds. The get here lands mid-window and
// must be held until the flush deadline resolves the put.
func TestGroupCommitReadGate(t *testing.T) {
	// The flush window is wide against anything the scheduler does to this
	// goroutine: the read below must start inside it and is required to
	// have been held for a quarter of it.
	const delay = 300 * time.Millisecond
	lc := newCluster(t, 3, 4, 1, 6)
	lc.router.callBudget = 10 * delay // a put or a gated get takes the whole window
	for _, svc := range lc.services {
		svc.Repl = ReplTuning{flushDelay: delay}
	}
	m := lc.coord.Map()
	shard := 0
	primary := lc.services[m.Owner(shard)]
	keys := shardKeys(m, shard, 2)
	key := keys[0]
	rt := lc.router.Thread()
	// A put to another key of the shard first: it pays the two lazy dials
	// (router → primary, primary → backup, sixteen 1 MiB rings each), which
	// took 3–36 ms under -race and are not what this test times.
	if err := rt.Put(keys[1], 1); err != nil {
		t.Fatalf("warm-up put: %v", err)
	}

	putDone := make(chan error, 1)
	go func() {
		rt := lc.router.Thread()
		putDone <- rt.Put(key, 7)
	}()
	// Wait until the put is in the pending index and applied locally — its
	// batch is then gathering — and read the key.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		_, applied := primary.shards[shard].store.Value64(key)
		if applied && len(primary.pendingOps(key)) > 0 {
			break
		}
		select {
		case err := <-putDone:
			t.Fatalf("put resolved (%v) before it was seen staged and applied", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("put never applied locally")
		}
	}
	readStart := time.Now()
	v, found, err := rt.Get(key)
	gated := time.Since(readStart)
	if err != nil || !found || v != 7 {
		t.Fatalf("get = (%d, %v, %v), want (7, true, nil)", v, found, err)
	}
	if gated < delay/4 {
		t.Fatalf("get replied after %v; an uncommitted put was pending, the read cannot have cleared the %v flush window that fast", gated, delay)
	}
	if err := <-putDone; err != nil {
		t.Fatalf("put: %v", err)
	}
	if got := primary.Node().Telemetry().Counter("cluster.read_gate_waits").Load(); got == 0 {
		t.Fatal("read_gate_waits counter never moved although the get was gated")
	}
}

// twoShardPrimary returns a member that is primary of at least two shards
// and two of those shards.
func twoShardPrimary(t *testing.T, m *ShardMap) (fabric.NodeID, int, int) {
	t.Helper()
	for _, id := range m.Members {
		if owned := m.ShardsOwnedBy(id); len(owned) >= 2 {
			return id, owned[0], owned[1]
		}
	}
	t.Fatal("no member is primary of two shards")
	return 0, 0, 0
}

// TestFrameCarriesEveryShardOfItsSet: with three members and R=2 every
// shard's backup set is the two members that are not its primary, so a
// primary of two shards has one backup set for both — one replication
// stream, one forwarder — and a put to each of them inside one flush window
// rides one frame to each backup: two acked batches of two entries, not four
// of one. Both shards are then equal on both backups.
func TestFrameCarriesEveryShardOfItsSet(t *testing.T) {
	lc := newCluster(t, 3, 4, 2, 4)
	lc.router.callBudget = 4 * time.Second
	m := lc.coord.Map()
	primary, shardA, shardB := twoShardPrimary(t, m)
	svc := lc.services[primary]
	svc.Repl = ReplTuning{flushDelay: 150 * time.Millisecond}
	// Dial every link the puts take up front, so neither put can miss the
	// other's flush window on a slow dial.
	if _, err := lc.router.peers.conn(primary); err != nil {
		t.Fatal(err)
	}
	for _, b := range m.BackupsOf(shardA) {
		if _, err := svc.peers.conn(b); err != nil {
			t.Fatal(err)
		}
	}
	keys := []uint64{shardKeys(m, shardA, 1)[0], shardKeys(m, shardB, 1)[0]}
	var wg sync.WaitGroup
	errs := make([]error, len(keys))
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = lc.router.Thread().Put(k, uint64(i)+1)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	tl := svc.Node().Telemetry()
	if got := tl.Counter("cluster.repl_batches").Load(); got != 2 {
		t.Fatalf("repl_batches = %d, want 2: one frame carrying both shards, acked by each of 2 backups", got)
	}
	if snap := tl.Hist("cluster.repl_batch_entries").Snapshot(); snap.Count != 2 || snap.Sum != 4 {
		t.Fatalf("batch hist count=%d sum=%d, want two acked frames of 2 entries", snap.Count, snap.Sum)
	}
	svc.streamMu.Lock()
	streams := len(svc.streams)
	svc.streamMu.Unlock()
	if streams != 1 {
		t.Fatalf("primary runs %d replication streams for one backup set, want 1", streams)
	}
	for _, shard := range []int{shardA, shardB} {
		pf := svc.ShardFingerprint(shard)
		for _, b := range m.BackupsOf(shard) {
			if bf := lc.services[b].ShardFingerprint(shard); bf != pf {
				t.Fatalf("shard %d: primary fingerprint %#x != backup %d fingerprint %#x", shard, pf, b, bf)
			}
		}
	}
}

// TestStragglerSetDoesNotStallOtherSets: a member that is primary of shards
// under two backup sets runs one stream per set, so a backup that stops
// answering stalls only the set it is in. With one backup of the first set
// holding its frame unanswered, a put on that set's shard waits its frame's
// budget out; puts on a shard whose set does not hold that backup are
// acknowledged meanwhile, one after another. The straggler is a backup whose
// apply is blocked (its shard lock is held), not a dead link: a link taken
// down breaks and quarantines the connection's queue pairs within
// milliseconds, which fails the frame long before its budget.
func TestStragglerSetDoesNotStallOtherSets(t *testing.T) {
	lc := newCluster(t, 4, 16, 2, 4)
	m := lc.coord.Map()
	primary, stalled, free, straggler := fabric.NodeID(-1), -1, -1, fabric.NodeID(-1)
search:
	for _, id := range m.Members {
		owned := m.ShardsOwnedBy(id)
		for _, a := range owned {
			for _, b := range owned {
				for _, d := range m.BackupsOf(a) {
					if !m.IsBackup(b, d) {
						primary, stalled, free, straggler = id, a, b, d
						break search
					}
				}
			}
		}
	}
	if primary < 0 {
		t.Fatal("no primary serves shards under two backup sets")
	}
	svc := lc.services[primary]
	const budget = time.Second
	svc.fwdBudget = budget
	stallTh, freeTh := directThread(t, lc, primary), directThread(t, lc, primary)
	held := lc.services[straggler].shards[stalled]
	held.mu.Lock() // the straggler's apply of the stalled set's frame blocks here
	var unlock sync.Once
	release := func() { unlock.Do(held.mu.Unlock) }
	defer release() // a failed assertion must not leave the network's drain blocked on it

	stalledKey := shardKeys(m, stalled, 1)[0]
	stallErr := make(chan error, 1)
	start := time.Now()
	go func() {
		resp, err := directKV(stallTh, OpPut, stalledKey, 1)
		resp.Release()
		stallErr <- err
	}()
	waitUntil(t, "the stalled set's put to be staged and applied", func() bool { return stagedAndApplied(svc, stalled, stalledKey) })
	for i, k := range shardKeys(m, free, 5) {
		resp, err := directKV(freeTh, OpPut, k, 1)
		resp.Release()
		if err != nil || resp.Status != core.StatusOK {
			t.Fatalf("put %d on shard %d (backups %v) = (status %d, %v) while backup %d stalls", i, free, m.BackupsOf(free), resp.Status, err, straggler)
		}
	}
	if elapsed := time.Since(start); elapsed >= budget {
		t.Fatalf("the other set's puts took %v, a straggler's whole budget (%v)", elapsed, budget)
	}
	if len(svc.pendingOps(stalledKey)) == 0 {
		t.Fatalf("the put on shard %d resolved before the straggler's budget ran out", stalled)
	}
	err := <-stallErr
	release()
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("put on shard %d with backup %d stalled = %v, want the retryable NACK", stalled, straggler, err)
	}
}

// TestReplicateMultiShardFrames drives a backup's apply with hand-built
// frames whose entries span shards: the fence is checked for every entry
// before any entry is applied, and an accepted frame files each entry under
// its own shard.
func TestReplicateMultiShardFrames(t *testing.T) {
	cases := []struct {
		name    string
		stale   bool // the backup's map is newer than the frame's epoch
		foreign bool // one entry is of a shard the backup does not replicate
		want    uint32
	}{
		{name: "stale epoch applies nothing", stale: true, want: core.StatusWrongShard},
		{name: "entry of a foreign shard applies nothing", foreign: true, want: core.StatusWrongShard},
		{name: "valid frame lands every entry in its shard", want: core.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lc := newCluster(t, 3, 8, 1, 2)
			m := lc.coord.Map()
			backup := m.Members[0]
			var backed []int
			foreign := -1
			for s := 0; s < m.Shards; s++ {
				switch {
				case m.IsBackup(s, backup):
					backed = append(backed, s)
				case !m.IsReplica(s, backup):
					foreign = s
				}
			}
			if len(backed) < 2 || foreign < 0 {
				t.Fatalf("member %d backs up shards %v and replicates no other shard %d: no multi-shard case", backup, backed, foreign)
			}
			shards := backed[:2]
			if tc.foreign {
				shards = append(shards, foreign)
			}
			fw := ReplicaForward{Epoch: m.Epoch}
			for i, s := range shards {
				fw.Entries = append(fw.Entries, ReplicaEntry{Key: shardKeys(m, s, 1)[0], Val: uint64(i) + 10})
			}
			svc := lc.services[backup]
			if tc.stale {
				newer := m.Clone()
				newer.Epoch++
				svc.InstallMap(newer)
			}
			th := directThread(t, lc, backup)
			resp, err := th.CallOpts(RPCReplicate, AppendReplicaForward(nil, fw), core.CallOptions{Budget: 5 * time.Second, MaxAttempts: 1})
			if err != nil {
				t.Fatalf("replicate: %v", err)
			}
			status := resp.Status
			var applied int
			if status == core.StatusOK {
				_, applied, err = DecodeReplicaAck(resp.Data)
				if err != nil {
					t.Fatal(err)
				}
			}
			resp.Release()
			if status != tc.want {
				t.Fatalf("status %d, want %d", status, tc.want)
			}
			for i, e := range fw.Entries {
				v, found := svc.shards[shards[i]].store.Value64(e.Key)
				if landed := found && v == e.Val; landed != (tc.want == core.StatusOK) {
					t.Fatalf("entry %d of shard %d: in its store = %v, want %v", i, shards[i], landed, !landed)
				}
			}
			if tc.want == core.StatusOK && applied != len(fw.Entries) {
				t.Fatalf("ack reports %d applied, want %d", applied, len(fw.Entries))
			}
		})
	}
}
