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

// newGroupCommitCluster is newReplicatedCluster with a configurable
// worker count: group-commit tests park many concurrent puts on one
// primary, so two workers would serialize the very coalescing under
// test.
func newGroupCommitCluster(t *testing.T, n, shards, replicas, workers int) *liveCluster {
	t.Helper()
	nw := core.NewNetwork(fabric.Config{})
	t.Cleanup(nw.Close)
	members := make([]fabric.NodeID, n)
	for i := range members {
		members[i] = fabric.NodeID(i)
	}
	m, err := NewReplicated(members, shards, 8, replicas)
	if err != nil {
		t.Fatal(err)
	}
	lc := &liveCluster{nw: nw, coord: NewCoordinator(m)}
	for _, id := range members {
		node, err := nw.NewNode(id, core.Options{Workers: workers}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Serve(); err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(node, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		lc.services = append(lc.services, svc)
		lc.coord.AddService(svc)
	}
	client, err := nw.NewNode(testClientID, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lc.router = NewRouter(client, m)
	lc.mems = NewMembership(lc.router)
	return lc
}

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
// byte-identical to the PR 9 AppendReplicaForward image — old and new
// primaries speak one wire dialect, so mixed-version batches decode on
// any backup.
func TestReplFrameSingleEntryWireCompat(t *testing.T) {
	want := AppendReplicaForward(nil, ReplicaForward{
		Epoch:   42,
		Shard:   7,
		Entries: []ReplicaEntry{{Key: 0xDEAD, Val: 0xBEEF}},
	})
	f := leaseReplFrame(42, 7, 1)
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
	if dec.Epoch != 42 || dec.Shard != 7 || len(dec.Entries) != 1 || dec.Entries[0] != (ReplicaEntry{Key: 0xDEAD, Val: 0xBEEF}) {
		t.Fatalf("decoded %+v", dec)
	}
}

// TestReplFrameMultiEntry: an N-entry frame round-trips and matches the
// reference encoder entry for entry.
func TestReplFrameMultiEntry(t *testing.T) {
	ref := ReplicaForward{Epoch: 9, Shard: 3}
	f := leaseReplFrame(9, 3, 5)
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
// FRP1 frames — the batch-entries histogram must show multi-entry
// flushes — and every acked put is on the backup (fingerprints equal).
func TestGroupCommitCoalesces(t *testing.T) {
	const writers = 8
	lc := newGroupCommitCluster(t, 3, 4, 1, writers+2)
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
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]
	if pf, bf := lc.services[primary].ShardFingerprint(shard), lc.services[backup].ShardFingerprint(shard); pf != bf {
		t.Fatalf("primary fingerprint %#x != backup fingerprint %#x after acked puts", pf, bf)
	}
	tl := lc.services[primary].Node().Telemetry()
	snap := tl.Hist("cluster.repl_batch_entries").Snapshot()
	if snap.Count == 0 || snap.Sum < writers {
		t.Fatalf("batch hist count=%d sum=%d; want all %d puts forwarded", snap.Count, snap.Sum, writers)
	}
	if snap.Sum <= snap.Count {
		t.Fatalf("batch hist count=%d sum=%d: no coalescing happened", snap.Count, snap.Sum)
	}
	if got := tl.Counter("cluster.repl_batches").Load(); got == 0 {
		t.Fatal("repl_batches counter never moved")
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
	lc := newGroupCommitCluster(t, 3, 4, 1, writers+2)
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
}

// TestGroupCommitFlushDeadlineSingleWaiter: with a flush delay set, a
// lone put waits out the first-waiter deadline and then commits — the
// deadline path must both fire and succeed with exactly one op aboard.
func TestGroupCommitFlushDeadlineSingleWaiter(t *testing.T) {
	const delay = 40 * time.Millisecond
	lc := newGroupCommitCluster(t, 3, 4, 1, 4)
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
	if _, err := lc.services[primary].link(backup); err != nil {
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
	lc := newReplicatedCluster(t, 3, 8, 1, fabric.Config{})
	m := lc.coord.Map()
	shard := 0
	primary, backup := m.Owner(shard), m.BackupsOf(shard)[0]

	newer := m.Clone()
	newer.Epoch += 5
	lc.services[backup].InstallMap(newer)
	err := commitTo(lc.services[primary], backup, m.Epoch, shard, 1, 1)
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
	if _, err := lc.services[primary].shards[shard].store.UpdateMax64(1, 1); err != nil {
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
	err = commitTo(lc.services[primary], backup, newer.Epoch, shard, 2, 2)
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
	lc := newGroupCommitCluster(t, 3, 4, 1, 6)
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
