package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/check"
	"flock/internal/fabric"
	"flock/internal/resilience"
)

// TestForwardLinkRedialsAfterClose: a primary→backup connection handle
// that failed for good — what quarantine does to it under an overload storm
// or a long outage, here Conn.Close — must not take replication down with
// it while the backup is alive. Each forwarder drops its thread on the dead
// handle when it sees ErrConnClosed, and the next frame dials a new one: at
// most the frames in flight at the close NACK (at the parent commit the
// handle was cached for ever and 250 of 250 later puts NACKed).
func TestForwardLinkRedialsAfterClose(t *testing.T) {
	lc := newCluster(t, 3, 8, 1, 2)
	rt := lc.router.Thread()
	const keys = 250
	for key := uint64(0); key < keys; key++ { // dials every forward link
		if err := rt.Put(key, 1); err != nil {
			t.Fatalf("warm-up put %d: %v", key, err)
		}
	}
	closed := 0
	for _, svc := range lc.services {
		svc.peers.mu.Lock()
		for _, c := range svc.peers.conns {
			c.Close()
			closed++
		}
		svc.peers.mu.Unlock()
	}
	if closed == 0 {
		t.Fatal("no forward link was dialed — nothing to close")
	}
	ok := 0
	for key := uint64(0); key < keys; key++ {
		err := rt.Put(key, 2)
		if err == nil {
			ok++
		}
		for deadline := time.Now().Add(5 * time.Second); err != nil; err = rt.Put(key, 2) {
			if time.Now().After(deadline) {
				t.Fatalf("put %d never recovered: %v", key, err)
			}
		}
	}
	t.Logf("%d of %d puts succeeded at the first try after %d forward links closed", ok, keys, closed)
	if ok < 200 {
		t.Fatalf("%d of %d puts succeeded at the first try after %d forward links closed, want >= 200", ok, keys, closed)
	}
	assertReplicasConverged(t, lc, lc.coord.Map())
}

// TestReplicatedPutReachesBackups: the sync-forward ACK rule on the
// live path — an acked put is on every backup (fingerprints equal after
// a quiesce), and the replica_forwards counter moved.
func TestReplicatedPutReachesBackups(t *testing.T) {
	lc := newCluster(t, 3, 8, 1, 2)
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

// killPlan is one run of the kill pool, derived from its seed: which member
// dies, how long traffic flows before it does, and the fault plan the fabric
// runs under throughout — seeded RC loss, and on even seeds the client's
// link to a survivor flapping in windows the NIC's retransmissions ride out.
type killPlan struct {
	seed   uint64
	victim fabric.NodeID
	after  time.Duration
	faults fabric.FaultPlan
}

func killPlanFromSeed(seed uint64, members int) killPlan {
	p := killPlan{
		seed:   seed,
		victim: fabric.NodeID(seed % uint64(members)),
		after:  time.Duration(20+seed*37%60) * time.Millisecond,
		faults: fabric.FaultPlan{Seed: seed, RCLossProb: 0.01},
	}
	if seed%2 == 0 {
		survivor := (p.victim + 1 + fabric.NodeID(seed/2%3)) % fabric.NodeID(members)
		p.faults.Links = []fabric.LinkFault{{Src: testClientID, Dst: survivor, DownAfter: 8 + seed%8, DownFor: 2, Repeat: true}}
	}
	return p
}

func (p killPlan) String() string {
	return fmt.Sprintf("seed=%d victim=n%d kill-after=%v faults=%+v", p.seed, p.victim, p.after, p.faults)
}

// TestFailoverPreservesAckedWrites is the kill pool: for each of its seeds,
// concurrent clients write monotonic values into a replicated cluster, a
// member is killed mid-traffic (links cut both directions to everyone), the
// detector walks it to dead, the coordinator promotes backups — and
// afterwards every write that was ever acknowledged is still readable, the
// whole history is linearizable, replicas fingerprint equal, and Repair
// restores the replica factor. Each run must have promoted and, where its
// plan flaps a link, dropped on it; somewhere in the pool a frame must have
// carried more than one put. The package leak gate (TestMain) asserts the
// pooled buffers all came home afterwards.
func TestFailoverPreservesAckedWrites(t *testing.T) {
	const members = 4
	multi := false
	for seed := uint64(1); seed <= 8; seed++ {
		plan := killPlanFromSeed(seed, members)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			logPlanOnFailure(t, plan)
			if failoverPreservesAckedWrites(t, members, plan) {
				multi = true
			}
		})
	}
	if !t.Failed() && !multi {
		t.Fatal("no replication frame of the kill pool carried more than one put")
	}
}

// failoverPreservesAckedWrites runs one seed of the kill pool and reports
// whether any replication frame carried more than one put.
func failoverPreservesAckedWrites(t *testing.T, members int, plan killPlan) bool {
	lc := newCluster(t, members, 16, 2, 2)
	lc.coord.AddRouter(lc.router)
	// Budgets bound how long calls into the (soon-to-be) dead victim can
	// hang; generous enough that healthy-path RPCs never trip them, even
	// under the race detector's scheduling.
	lc.router.callBudget = 200 * time.Millisecond
	for _, svc := range lc.services {
		svc.fwdBudget = 200 * time.Millisecond
	}
	lc.mems.ProbeTimeout = 100 * time.Millisecond
	fab := lc.nw.Fabric()
	fab.SetFaultPlan(&plan.faults)

	victim := plan.victim
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

	// Mid-traffic: the victim drops off the network entirely, once a planned
	// flap has dropped something.
	time.Sleep(plan.after)
	for deadline := time.Now().Add(5 * time.Second); len(plan.faults.Links) > 0 && fab.FaultCounters().LinkDownDrops == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the planned flap never dropped anything")
		}
		time.Sleep(time.Millisecond)
	}
	killMember(lc, m0.Members, victim)
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
	multi := false
	for _, svc := range lc.services {
		promotions += svc.Node().Telemetry().Counter("cluster.promotions").Load()
		if h := svc.Node().Telemetry().Hist("cluster.repl_batch_entries").Snapshot(); h.Sum > h.Count {
			multi = true
		}
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
	return multi
}

// cutBackupsRun is what one run of the premature-ack scenario observed.
type cutBackupsRun struct {
	res   check.Result // the recorded history under MonotonicKVModel
	acked int          // puts acknowledged while their primary reached no backup
	lost  []uint64     // keys that read back below their acknowledged value
}

// cutBackupsThenFailOver is the directed premature-ack scenario. With every
// link between one primary and the other members cut, the router puts a
// newer value to two keys of each shard that primary serves. The ack rule
// says none of those puts may be acknowledged, since no backup can hold it,
// so each is NACKed and recorded pending. Then the primary dies, FailOver
// promotes its backups, and every key is read back. A put acknowledged
// early — by either premature-ack mutant — is lost with the primary, and the
// read after it makes the history non-linearizable.
func cutBackupsThenFailOver(t *testing.T) cutBackupsRun {
	lc := newCluster(t, 3, 4, 2, 2)
	lc.coord.AddRouter(lc.router)
	// The router waits out a frame's failure: the put is NACKed, not timed
	// out and re-sent.
	lc.router.callBudget = time.Second
	for _, svc := range lc.services {
		svc.fwdBudget = 50 * time.Millisecond
	}
	m := lc.coord.Map()
	primary := m.Owner(0)
	var keys []uint64
	for _, s := range m.ShardsOwnedBy(primary) {
		keys = append(keys, shardKeys(m, s, 2)...)
	}
	rec := check.NewRecorder()
	rt := lc.router.Thread()
	ackedVal := make(map[uint64]uint64, len(keys))
	put := func(key, val uint64) {
		call := rec.Begin()
		if err := rt.Put(key, val); err != nil {
			rec.EndPending(0, call, check.KVIn{Key: key, Put: true, Val: val})
			return
		}
		rec.End(0, call, check.KVIn{Key: key, Put: true, Val: val}, nil)
		ackedVal[key] = val
	}
	for _, k := range keys {
		if put(k, 1); ackedVal[k] != 1 {
			t.Fatalf("put %d before the cut was not acknowledged", k)
		}
	}
	fab := lc.nw.Fabric()
	var live []fabric.NodeID
	for _, id := range m.Members {
		if id != primary {
			fab.SetLinkDown(primary, id, true)
			fab.SetLinkDown(id, primary, true)
			live = append(live, id)
		}
	}
	var run cutBackupsRun
	for _, k := range keys {
		if put(k, 2); ackedVal[k] == 2 {
			run.acked++
		}
	}
	killMember(lc, m.Members, primary)
	if _, err := lc.coord.FailOver(primary, live); err != nil {
		t.Fatalf("failover: %v", err)
	}
	for _, k := range keys {
		call := rec.Begin()
		v, ok, err := rt.Get(k)
		if err != nil {
			t.Fatalf("get %d after failover: %v", k, err)
		}
		rec.End(0, call, check.KVIn{Key: k}, check.KVOut{Val: v, Found: ok})
		if !ok || v < ackedVal[k] {
			run.lost = append(run.lost, k)
		}
	}
	run.res = check.Check(check.MonotonicKVModel(), rec.History())
	return run
}

// TestCutBackupsAckNothing is the ack rule on the shipped code: with every
// primary→backup link cut no put is acknowledged, and after failover every
// acknowledged write reads back. The flockmut build runs the same scenario
// with each premature-ack mutant switched on, and requires the history to
// be rejected.
func TestCutBackupsAckNothing(t *testing.T) {
	run := cutBackupsThenFailOver(t)
	if run.acked != 0 {
		t.Fatalf("%d puts acknowledged while their primary could reach no backup", run.acked)
	}
	if len(run.lost) != 0 {
		t.Fatalf("keys %v read back below their acknowledged value after failover", run.lost)
	}
	if !run.res.Ok {
		t.Fatalf("history not linearizable:\n%s", run.res)
	}
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

// commitTo drives one put's frame through the forwarder's two steps —
// submit (the frame built once and issued to its stream's backup set) and
// await (every backup's answer, classified), which is what every replicated
// put ships on — to a single backup, and returns the frame's outcome. The
// put is to the first key of shard, so the backup files it under shard.
func commitTo(s *Service, backup fabric.NodeID, epoch uint64, shard int, val uint64) error {
	st := &replStream{svc: s, backups: []fabric.NodeID{backup}, threads: s.peers.newThreads()}
	key := shardKeys(s.Map(), shard, 1)[0]
	f := st.frameFor([]*replOp{{epoch: epoch, key: key, val: val}})
	st.submit(f)
	return st.await(f)
}

// pendingOps snapshots the unresolved puts for a key in its shard's read
// gate index.
func (s *Service) pendingOps(key uint64) []*replOp {
	sl := s.shards[s.Map().ShardOf(key)]
	sl.gateMu.Lock()
	defer sl.gateMu.Unlock()
	var ops []*replOp
	for op := sl.pend[key]; op != nil; op = op.nextKey {
		ops = append(ops, op)
	}
	return ops
}

// TestReplicationEpochFence: a deposed primary's forward (stale epoch)
// is NACKed WrongShard with the newer map rather than absorbed — the
// fence that keeps a slow pre-failover primary from resurrecting
// overwritten state on a backup.
func TestReplicationEpochFence(t *testing.T) {
	lc := newCluster(t, 3, 8, 1, 2)
	m := lc.coord.Map()
	shard := 0
	backup := m.BackupsOf(shard)[0]
	// Bump the backup's epoch past the cluster's.
	newer := m.Clone()
	newer.Epoch += 5
	lc.services[backup].InstallMap(newer)
	// A forward stamped with the old epoch must be fenced.
	if err := commitTo(lc.services[m.Owner(shard)], backup, m.Epoch, shard, 1); err == nil {
		t.Fatal("stale-epoch forward accepted by a newer backup")
	}
	// The fence taught the sender: its map is now the newer one.
	if got := lc.services[m.Owner(shard)].Map().Epoch; got != newer.Epoch {
		t.Fatalf("sender epoch after fence = %d, want %d", got, newer.Epoch)
	}
	// At the fenced sender's new epoch, the forward lands.
	if err := commitTo(lc.services[m.Owner(shard)], backup, newer.Epoch, shard, 1); err != nil {
		t.Fatalf("current-epoch forward rejected: %v", err)
	}
}

// shortOneBackup drops shard's first backup from the published map, as a
// failover that pruned it would have, and returns the member Repair will
// recruit in its place.
func shortOneBackup(t *testing.T, lc *liveCluster, shard int) fabric.NodeID {
	t.Helper()
	m := lc.coord.Map()
	lc.coord.publish(m.WithoutBackup(shard, m.BackupsOf(shard)[0]))
	recruit := lc.coord.Map().ReplacementBackup(shard, m.Members)
	if recruit < 0 {
		t.Fatal("nobody to recruit")
	}
	return recruit
}

// TestRecruitInstallWaitsOutInFlightRequests: the widened replica set
// reaches the primary through the shard's exclusive lock. A put that
// loaded the old map under the shard's read lock has staged to the old
// backup set; were the recruit published around it, the put could apply
// after the snapshot scan passed its key and never reach the recruit,
// which the map would nonetheless call a full backup — an acknowledged
// write a later promotion loses. The test holds the read lock as that put
// would and requires the recruit to stay unpublished until it is released.
func TestRecruitInstallWaitsOutInFlightRequests(t *testing.T) {
	lc := newCluster(t, 4, 8, 1, 2)
	shard := 0
	m := lc.coord.Map()
	primary := lc.services[m.Owner(shard)]
	recruit := shortOneBackup(t, lc, shard)
	before := primary.Map().Epoch

	slot := primary.shards[shard]
	slot.mu.RLock()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := lc.coord.Repair(m.Members)
		done <- result{n, err}
	}()
	// A Repair that does not wait finishes in a few milliseconds: a dial
	// and the copy of an empty shard.
	select {
	case r := <-done:
		slot.mu.RUnlock()
		t.Fatalf("Repair returned (%d, %v) with a request of the old view still in flight", r.n, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := primary.Map(); got.Epoch != before || got.IsBackup(shard, recruit) {
		slot.mu.RUnlock()
		t.Fatalf("primary serves epoch %d (recruit listed: %v) while a request admitted under epoch %d is in flight",
			got.Epoch, got.IsBackup(shard, recruit), before)
	}
	slot.mu.RUnlock()
	r := <-done
	if r.err != nil || r.n != 1 {
		t.Fatalf("Repair = (%d, %v), want one recruit", r.n, r.err)
	}
	if !lc.coord.Map().IsBackup(shard, recruit) || !primary.Map().IsBackup(shard, recruit) {
		t.Fatalf("recruit %d not in shard %d's backup set after Repair", recruit, shard)
	}
}

// TestRepairDropsRecruitWhenCopyFails: the recruit becomes unreachable
// from the primary part-way through its copy. Repair must fail, and must
// not leave the widened replica set published: every later put on the
// shard would owe an ack to the unreachable recruit and NACK until a
// failover pruned it.
func TestRepairDropsRecruitWhenCopyFails(t *testing.T) {
	lc := newCluster(t, 4, 8, 1, 2)
	lc.router.callBudget = 200 * time.Millisecond
	for _, svc := range lc.services {
		svc.fwdBudget = 30 * time.Millisecond
	}
	shard := 0
	m := lc.coord.Map()
	primary := m.Owner(shard)
	recruit := shortOneBackup(t, lc, shard)
	// Several frames' worth of keys, held by the primary alone.
	rt := lc.router.Thread()
	keys := shardKeys(m, shard, 700)
	for _, k := range keys {
		if err := rt.Put(k, 1); err != nil {
			t.Fatalf("prefill put %d: %v", k, err)
		}
	}
	// The primary→recruit link carries two transmissions, then stays down.
	lc.nw.Fabric().SetFaultPlan(&fabric.FaultPlan{
		Seed:  1,
		Links: []fabric.LinkFault{{Src: primary, Dst: recruit, DownAfter: 2}},
	})
	n, err := lc.coord.Repair(m.Members)
	if err == nil {
		t.Fatalf("Repair recruited %d over a dead link without an error", n)
	}
	if got := lc.services[recruit].Keys(shard); got >= len(keys) {
		t.Fatalf("recruit holds %d of %d keys: the copy was not interrupted", got, len(keys))
	}
	for _, view := range []*ShardMap{lc.coord.Map(), lc.services[primary].Map(), lc.services[recruit].Map()} {
		if view.IsBackup(shard, recruit) {
			t.Fatalf("epoch %d still lists the recruit %d whose copy failed (Repair: %v)", view.Epoch, recruit, err)
		}
	}
	for _, k := range keys[:8] {
		if err := rt.Put(k, 2); err != nil {
			t.Fatalf("put %d after the failed recruit: %v", k, err)
		}
	}
}

// killMember takes a member off the network: every link to and from it,
// the client's included, goes down for good.
func killMember(lc *liveCluster, members []fabric.NodeID, victim fabric.NodeID) {
	fab := lc.nw.Fabric()
	for _, id := range append([]fabric.NodeID{testClientID}, members...) {
		if id != victim {
			fab.SetLinkDown(victim, id, true)
			fab.SetLinkDown(id, victim, true)
		}
	}
}

// TestRebalanceFailsOverDeadPrimary: Rebalance meeting a dead source on a
// replicated map is a failover, not a second way around it. The route-around
// it used to run promoted no backup and pruned nothing: with 4 members and
// R = 2 it reassigned the dead primary's shards to ring successors that
// already backed them and left the dead member in every backup set, a map
// DecodeShardMap rejects — so no router could ever install it from a
// WrongShard NACK — and acknowledged writes were served from wherever the
// ring pointed. Every map published must decode, name no dead member, and
// keep every acknowledged write readable.
func TestRebalanceFailsOverDeadPrimary(t *testing.T) {
	lc := newCluster(t, 4, 8, 2, 2)
	lc.coord.AddRouter(lc.router)
	lc.mems.ProbeTimeout = 100 * time.Millisecond
	m0 := lc.coord.Map()
	rt := lc.router.Thread()
	const keys = 200
	for key := uint64(0); key < keys; key++ {
		if err := rt.Put(key, key+1); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	victim := m0.Owner(0)
	killMember(lc, m0.Members, victim)
	deadline := time.Now().Add(10 * time.Second)
	for lc.mems.State(victim) != resilience.MemberDead || len(lc.mems.Live()) != len(m0.Members)-1 {
		if time.Now().After(deadline) {
			t.Fatalf("detector never settled: victim %v, live %v", lc.mems.State(victim), lc.mems.Live())
		}
		lc.mems.ProbeOnce()
	}
	moves, err := lc.coord.Rebalance(lc.mems.Live())
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if moves == 0 {
		t.Fatal("rebalance moved nothing off the dead primary")
	}
	published := map[string]*ShardMap{"coordinator": lc.coord.Map(), "router": lc.router.Map()}
	for _, id := range lc.mems.Live() {
		published[fmt.Sprintf("member %d", id)] = lc.services[id].Map()
	}
	for who, m := range published {
		if m.Epoch <= m0.Epoch {
			t.Fatalf("%s still holds epoch %d", who, m.Epoch)
		}
		if _, err := DecodeShardMap(m.Encode()); err != nil {
			t.Fatalf("%s holds a map that does not decode: %v", who, err)
		}
		for s := 0; s < m.Shards; s++ {
			if m.Owner(s) == victim || m.IsBackup(s, victim) {
				t.Fatalf("%s: shard %d still lists the dead member %d (owner %d, backups %v)",
					who, s, victim, m.Owner(s), m.BackupsOf(s))
			}
		}
	}
	for key := uint64(0); key < keys; key++ {
		if v, ok, err := rt.Get(key); err != nil || !ok || v != key+1 {
			t.Fatalf("get %d after the rebalance = (%d, %v, %v), want the acknowledged %d", key, v, ok, err, key+1)
		}
	}
}

// TestMemberDiesMidMove is the double fault: a shard is being moved —
// its target recruited as a backup, the snapshot copy part-way through —
// when a second thing goes wrong. The move holds no state outside the
// map, so either way it is an ordinary abort followed, if it was the
// source that died, by an ordinary failover:
//
//   - source dies: MigrateShard fails having dropped the recruit, FailOver
//     promotes a backup that was complete before the move (never the
//     half-copied recruit), every acknowledged write is readable, the
//     history is linearizable, and after Repair the replicas converge;
//   - recruit dies: MigrateShard fails having dropped the recruit and the
//     shard keeps serving from its original replica set.
//
// It is the move pool's double-fault half: four seeds per victim, each
// picking the shard that moves and how long after the copy stalls the kill
// lands. R=2 on five members, three recorded writers and a reader
// throughout, the shard prefilled to several snapshot frames. The
// source→recruit link carries two transmissions and then goes down for
// longer than the test runs, so the copy has started and cannot finish
// before the kill lands, whenever that is. The window is finite on
// purpose: a link the fabric reports cut for good fails the copy at its
// first recycle, on its own and before any kill
// (TestRepairDropsRecruitWhenCopyFails), while a stalled one leaves the
// copy retrying until the kill cuts the link.
func TestMemberDiesMidMove(t *testing.T) {
	for _, killSource := range []bool{true, false} {
		name, first := "recruit dies", uint64(2)
		if killSource {
			name, first = "source dies", 1
		}
		t.Run(name, func(t *testing.T) {
			for seed := first; seed <= 8; seed += 2 {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { memberDiesMidMove(t, killSource, seed) })
			}
		})
	}
}

// midMovePlan is one run of the move pool's double-fault half, derived from
// its seed: the shard that moves, whether its source or its recruit dies,
// how long after the copy first meets the stalled link the kill lands, and
// the fault plan — seeded RC loss, and the link that stalls the copy.
type midMovePlan struct {
	seed       uint64
	shard      int
	killSource bool
	after      time.Duration
	faults     fabric.FaultPlan
}

func (p midMovePlan) String() string {
	return fmt.Sprintf("seed=%d shard=%d kill-source=%v kill-after=%v faults=%+v", p.seed, p.shard, p.killSource, p.after, p.faults)
}

func memberDiesMidMove(t *testing.T, killSource bool, seed uint64) {
	lc := newCluster(t, 5, 8, 2, 2)
	lc.coord.AddRouter(lc.router)
	lc.router.callBudget = 200 * time.Millisecond
	for _, svc := range lc.services {
		svc.fwdBudget = 100 * time.Millisecond
	}
	lc.mems.ProbeTimeout = 100 * time.Millisecond

	m0 := lc.coord.Map()
	plan := midMovePlan{seed: seed, shard: int(seed) % m0.Shards, killSource: killSource, after: time.Duration(seed%4) * time.Millisecond}
	shard := plan.shard
	source, standing := m0.Owner(shard), m0.BackupsOf(shard)
	recruit := m0.ReplacementBackup(shard, m0.Members)
	if len(standing) != 2 || recruit < 0 {
		t.Fatalf("shard %d: backups %v, recruit %d", shard, standing, recruit)
	}
	// The source→recruit link carries two transmissions and then goes down
	// for longer than the test runs.
	plan.faults = fabric.FaultPlan{
		Seed:       seed,
		RCLossProb: 0.01,
		Links:      []fabric.LinkFault{{Src: source, Dst: recruit, DownAfter: 2, DownFor: 1 << 40}},
	}
	logPlanOnFailure(t, plan)

	prefillShard(t, lc, m0, shard, 700)
	rt := lc.router.Thread()

	// Working set: half the keys in the moving shard. Every key gets one
	// recorded acked write before anything goes wrong.
	const writers, keysEach = 3, 4
	keys := append(shardKeys(m0, shard, writers*keysEach/2), shardKeys(m0, (shard+1)%m0.Shards, writers*keysEach/2)...)
	rec := check.NewRecorder()
	for _, k := range keys {
		call := rec.Begin()
		if err := rt.Put(k, 1); err != nil {
			t.Fatalf("first put %d: %v", k, err)
		}
		rec.End(writers+1, call, check.KVIn{Key: k, Put: true, Val: 1}, nil)
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
				ki := (w + writers*i) % len(keys) // writer w owns the indices ≡ w mod writers
				key, val := keys[ki], uint64(i+1)
				call := rec.Begin()
				if err := rt.Put(key, val); err != nil {
					rec.EndPending(w, call, check.KVIn{Key: key, Put: true, Val: val})
					continue
				}
				rec.End(w, call, check.KVIn{Key: key, Put: true, Val: val}, nil)
				acked[ki] = val
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
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	lc.nw.Fabric().SetFaultPlan(&plan.faults)
	moved := make(chan error, 1)
	go func() { moved <- lc.coord.MigrateShard(shard, recruit) }()
	// The source serving under the recruit's epoch means the copy is next.
	for deadline := time.Now().Add(5 * time.Second); !lc.services[source].Map().IsBackup(shard, recruit); {
		if time.Now().After(deadline) {
			t.Fatal("the move never recruited its target")
		}
		time.Sleep(time.Millisecond)
	}
	victim := recruit
	if killSource {
		victim = source
	}
	// The kill lands the plan's offset after the copy first meets the
	// stalled link.
	for deadline := time.Now().Add(5 * time.Second); lc.nw.Fabric().FaultCounters().LinkDownDrops == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the copy never reached the stalled link")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(plan.after)
	killMember(lc, m0.Members, victim)
	if err := <-moved; err == nil {
		t.Fatal("MigrateShard completed a move whose copy could not finish")
	}
	m := lc.coord.Map()
	if m.Owner(shard) != source || !reflect.DeepEqual(m.BackupsOf(shard), standing) {
		t.Fatalf("after the aborted move shard %d is owned by %d with backups %v; want %d with %v",
			shard, m.Owner(shard), m.BackupsOf(shard), source, standing)
	}
	if got, all := lc.services[recruit].Keys(shard), lc.services[source].Keys(shard); got >= all {
		t.Fatalf("recruit holds %d of %d keys: the copy was not interrupted", got, all)
	}

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
	m = lc.coord.Map()
	if killSource {
		if want := len(m0.ShardsOwnedBy(source)); promoted != want {
			t.Fatalf("promoted %d shards, the source owned %d", promoted, want)
		}
		if m.Owner(shard) != standing[0] {
			t.Fatalf("shard %d failed over to %d; want its first standing backup %d (recruit was %d)",
				shard, m.Owner(shard), standing[0], recruit)
		}
	} else if m.Owner(shard) != source || !reflect.DeepEqual(m.BackupsOf(shard), standing) {
		t.Fatalf("pruning the dead recruit changed shard %d's replica set: owner %d backups %v",
			shard, m.Owner(shard), m.BackupsOf(shard))
	}

	// Traffic keeps flowing on the new map for a while, then stops.
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	for ki, k := range keys {
		v, ok, err := rt.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d afterwards = (%v, %v)", k, ok, err)
		}
		if want := max64(acked[ki], 1); v < want {
			t.Fatalf("key %d reads %d; %d was acknowledged", k, v, want)
		}
	}
	if res := check.Check(check.MonotonicKVModel(), rec.History()); !res.Ok {
		t.Fatalf("history not linearizable across a member's death mid-move:\n%s", res)
	}

	// Settle every key with a fresh acked write (an unacknowledged one may
	// sit on some replicas only), restore R, and the replicas must be
	// content-identical shard by shard.
	for _, k := range keys {
		if err := rt.Put(k, 1<<20|k); err != nil {
			t.Fatalf("settle put %d: %v", k, err)
		}
	}
	if _, err := lc.coord.Repair(lc.mems.Live()); err != nil {
		t.Fatalf("repair: %v", err)
	}
	m = lc.coord.Map()
	for s := 0; s < m.Shards; s++ {
		if got := len(m.BackupsOf(s)); got != m.Replicas {
			t.Fatalf("shard %d has %d backups after repair, want %d", s, got, m.Replicas)
		}
	}
	assertReplicasConverged(t, lc, m)
}
