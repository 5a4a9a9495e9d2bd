package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/check"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/resilience"
)

// newReplicatedCluster is newLiveCluster with a replica factor: every
// shard gets a primary plus R backups, and every put synchronously
// replicates before acking.
func newReplicatedCluster(t *testing.T, n, shards, replicas int, fcfg fabric.Config) *liveCluster {
	t.Helper()
	nw := core.NewNetwork(fcfg)
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
		node, err := nw.NewNode(id, core.Options{Workers: 2}, 0)
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

// TestReplicatedPutReachesBackups: the sync-forward ACK rule on the
// live path — an acked put is on every backup (fingerprints equal after
// a quiesce), and the replica_forwards counter moved.
func TestReplicatedPutReachesBackups(t *testing.T) {
	lc := newReplicatedCluster(t, 3, 8, 1, fabric.Config{})
	rt := lc.router.Thread()
	for key := uint64(0); key < 100; key++ {
		if err := rt.Put(key, key+1); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	m := lc.coord.Map()
	for s := 0; s < m.Shards; s++ {
		p := m.Owner(s)
		for _, b := range m.BackupsOf(s) {
			if pf, bf := lc.services[p].ShardFingerprint(s), lc.services[b].ShardFingerprint(s); pf != bf {
				t.Fatalf("shard %d: primary %d fingerprint %#x != backup %d fingerprint %#x", s, p, pf, b, bf)
			}
		}
	}
	fwds := uint64(0)
	for _, svc := range lc.services {
		fwds += svc.Node().Telemetry().Counter("cluster.replica_forwards").Load()
	}
	if fwds < 100 {
		t.Fatalf("replica_forwards = %d for 100 replicated puts", fwds)
	}
}

// TestFailoverPreservesAckedWrites is the tentpole's live acceptance
// run: concurrent clients write monotonic values into a replicated
// cluster, a shard primary is killed mid-traffic (links cut both
// directions to everyone), the detector walks it to dead, the
// coordinator promotes backups — and afterwards every write that was
// ever acknowledged is still readable, the whole history is
// linearizable, replicas fingerprint equal, and Repair restores the
// replica factor. The package leak gate (TestMain) asserts the pooled
// buffers all came home afterwards.
func TestFailoverPreservesAckedWrites(t *testing.T) {
	lc := newReplicatedCluster(t, 4, 16, 2, fabric.Config{})
	lc.coord.AddRouter(lc.router)
	// Budgets bound how long calls into the (soon-to-be) dead victim can
	// hang; generous enough that healthy-path RPCs never trip them, even
	// under the race detector's scheduling.
	lc.router.CallBudget = 200 * time.Millisecond
	for _, svc := range lc.services {
		svc.ForwardBudget = 200 * time.Millisecond
		svc.CopyBudget = 200 * time.Millisecond
	}
	lc.mems.ProbeTimeout = 100 * time.Millisecond

	victim := lc.coord.Map().Owner(0)
	victimShards := lc.coord.Map().ShardsOwnedBy(victim)
	if len(victimShards) == 0 {
		t.Fatal("victim owns nothing; kill would be vacuous")
	}

	// Working set: half the keys land in victim-primaried shards, so
	// acknowledged writes provably straddle the failover.
	const writers = 3
	const keysEach = 6
	keys := make([]uint64, 0, writers*keysEach)
	victimSet := map[int]bool{}
	for _, s := range victimShards {
		victimSet[s] = true
	}
	m0 := lc.coord.Map()
	for k, onVictim, offVictim := uint64(0), 0, 0; len(keys) < writers*keysEach; k++ {
		if victimSet[m0.ShardOf(k)] {
			if onVictim < writers*keysEach/2 {
				keys = append(keys, k)
				onVictim++
			}
		} else if offVictim < writers*keysEach-writers*keysEach/2 {
			keys = append(keys, k)
			offVictim++
		}
	}

	// Phase 1: one acked write per key before the kill. The prefill is
	// recorded too — the linearizability checker's model starts unset, so
	// a later read of the prefill value needs its put in the history.
	rec := check.NewRecorder()
	{
		rt := lc.router.Thread()
		for _, k := range keys {
			call := rec.Begin()
			if err := rt.Put(k, 1); err != nil {
				t.Fatalf("prefill put %d: %v", k, err)
			}
			rec.End(writers+1, call, check.KVIn{Key: k, Put: true, Val: 1}, nil)
		}
	}
	var stop atomic.Bool
	acked := make([]uint64, len(keys)) // last acked val per key index; single writer each
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := lc.router.Thread()
			for i := 1; !stop.Load(); i++ {
				ki := w*keysEach + i%keysEach
				key, val := keys[ki], uint64(i+1) // monotonic per key (prefill was 1)
				call := rec.Begin()
				if err := rt.Put(key, val); err != nil {
					rec.EndPending(w, call, check.KVIn{Key: key, Put: true, Val: val})
					continue
				}
				rec.End(w, call, check.KVIn{Key: key, Put: true, Val: val}, nil)
				if val > acked[ki] {
					acked[ki] = val // goroutine-local index range: no race
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt := lc.router.Thread()
		for i := 0; !stop.Load(); i++ {
			key := keys[i%len(keys)]
			call := rec.Begin()
			v, ok, err := rt.Get(key)
			if err != nil {
				rec.EndPending(writers, call, check.KVIn{Key: key})
				continue
			}
			rec.End(writers, call, check.KVIn{Key: key}, check.KVOut{Val: v, Found: ok})
		}
	}()

	// Mid-traffic: the victim drops off the network entirely.
	time.Sleep(50 * time.Millisecond)
	fab := lc.nw.Fabric()
	peers := append([]fabric.NodeID{testClientID}, lc.coord.Map().Members...)
	for _, id := range peers {
		if id == victim {
			continue
		}
		fab.SetLinkDown(victim, id, true)
		fab.SetLinkDown(id, victim, true)
	}
	// Probe until the victim is dead AND every survivor is live again: a
	// healthy member can transiently miss a probe under traffic, and one
	// good round revives it — without this, FailOver/Repair could run on
	// an incomplete live set.
	deadline := time.Now().Add(10 * time.Second)
	for lc.mems.State(victim) != resilience.MemberDead || len(lc.mems.Live()) != len(m0.Members)-1 {
		if time.Now().After(deadline) {
			t.Fatalf("detector never settled: victim %v, live %v", lc.mems.State(victim), lc.mems.Live())
		}
		lc.mems.ProbeOnce()
	}
	promoted, err := lc.coord.FailOver(victim, lc.mems.Live())
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if promoted < len(victimShards) {
		t.Fatalf("promoted %d shards, victim owned %d", promoted, len(victimShards))
	}

	// Traffic keeps flowing on the promoted map for a while, then stops.
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	m := lc.coord.Map()
	for s := 0; s < m.Shards; s++ {
		if m.Owner(s) == victim || m.IsBackup(s, victim) {
			t.Fatalf("shard %d still lists the dead victim %d", s, victim)
		}
	}
	promotions := uint64(0)
	for _, svc := range lc.services {
		promotions += svc.Node().Telemetry().Counter("cluster.promotions").Load()
	}
	if promotions == 0 {
		t.Fatal("cluster.promotions never bumped")
	}

	// Every acknowledged write survived: reads see at least the last
	// acked value of each key (guarded max; unacked retries only raise).
	rt := lc.router.Thread()
	for ki, k := range keys {
		v, ok, err := rt.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d after failover = (%v, %v)", k, ok, err)
		}
		if want := max64(acked[ki], 1); v < want {
			t.Fatalf("key %d reads %d after failover; %d was acknowledged", k, v, want)
		}
	}

	res := check.Check(check.MonotonicKVModel(), rec.History())
	if !res.Ok {
		t.Fatalf("history not linearizable across primary failover:\n%s", res)
	}

	// Settle every key with a fresh acked write, then replicas must be
	// content-identical shard by shard.
	for _, k := range keys {
		if err := rt.Put(k, 1<<20|k); err != nil {
			t.Fatalf("settle put %d: %v", k, err)
		}
	}
	assertReplicasConverged(t, lc, m)

	// Repair recruits replacements for the pruned backup slots and
	// copies the data in; the widened replica sets converge too.
	recruited, err := lc.coord.Repair(lc.mems.Live())
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if recruited == 0 {
		t.Fatal("repair recruited nobody after a failover")
	}
	m = lc.coord.Map()
	for s := 0; s < m.Shards; s++ {
		if got := len(m.BackupsOf(s)); got != m.Replicas {
			t.Fatalf("shard %d has %d backups after repair, want %d", s, got, m.Replicas)
		}
	}
	assertReplicasConverged(t, lc, m)
}

func assertReplicasConverged(t *testing.T, lc *liveCluster, m *ShardMap) {
	t.Helper()
	for s := 0; s < m.Shards; s++ {
		p := m.Owner(s)
		pf := lc.services[p].ShardFingerprint(s)
		for _, b := range m.BackupsOf(s) {
			if bf := lc.services[b].ShardFingerprint(s); bf != pf {
				t.Fatalf("shard %d diverged: primary %d %#x, backup %d %#x", s, p, pf, b, bf)
			}
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// commitTo drives one put through the group-commit path — the per-(shard,
// backup) log, its forwarder and a batch ack, which is what every
// replicated put ships on — to a single backup, and returns the commit's
// outcome.
func commitTo(s *Service, backup fabric.NodeID, epoch uint64, shard int, key, val uint64) error {
	op := s.stageCommit(epoch, shard, key, val, []fabric.NodeID{backup})
	return s.awaitCommit(key, op)
}

// TestReplicationEpochFence: a deposed primary's forward (stale epoch)
// is NACKed WrongShard with the newer map rather than absorbed — the
// fence that keeps a slow pre-failover primary from resurrecting
// overwritten state on a backup.
func TestReplicationEpochFence(t *testing.T) {
	lc := newReplicatedCluster(t, 3, 8, 1, fabric.Config{})
	m := lc.coord.Map()
	shard := 0
	backup := m.BackupsOf(shard)[0]
	// Bump the backup's epoch past the cluster's.
	newer := m.Clone()
	newer.Epoch += 5
	lc.services[backup].InstallMap(newer)
	// A forward stamped with the old epoch must be fenced.
	if err := commitTo(lc.services[m.Owner(shard)], backup, m.Epoch, shard, 1, 1); err == nil {
		t.Fatal("stale-epoch forward accepted by a newer backup")
	}
	// The fence taught the sender: its map is now the newer one.
	if got := lc.services[m.Owner(shard)].Map().Epoch; got != newer.Epoch {
		t.Fatalf("sender epoch after fence = %d, want %d", got, newer.Epoch)
	}
	// At the fenced sender's new epoch, the forward lands.
	if err := commitTo(lc.services[m.Owner(shard)], backup, newer.Epoch, shard, 1, 1); err != nil {
		t.Fatalf("current-epoch forward rejected: %v", err)
	}
}
