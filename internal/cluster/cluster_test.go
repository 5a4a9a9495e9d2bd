package cluster

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"flock/internal/check"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/resilience"
)

// TestMain is the pool leak gate, as in internal/core: after the whole
// package — including live migration under link flaps — the default
// pool must report zero outstanding leases.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(3 * time.Second)
		for mem.Default.Outstanding() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := mem.Default.Outstanding(); n != 0 {
			fmt.Fprintf(os.Stderr, "leak gate: %d pooled buffer leases still outstanding\n", n)
			code = 1
		}
	}
	os.Exit(code)
}

// liveCluster is the test harness: n member nodes running Services, a
// client node running a Router, and a Coordinator over them.
type liveCluster struct {
	nw       *core.Network
	services []*Service
	router   *Router
	coord    *Coordinator
	mems     *Membership
}

const testClientID = fabric.NodeID(100)

// newCluster stands up n members serving shards shards with replicas
// backups each (0: unreplicated) on workers pool goroutines per member, and
// a client with a router. Most tests run two workers; the group-commit tests
// park many concurrent puts on one primary and pass more, since two would
// serialize the very coalescing under test. Each member's service is closed
// before the network when the test ends, so no replication forwarder
// outlives it.
func newCluster(t *testing.T, n, shards, replicas, workers int) *liveCluster {
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
		t.Cleanup(svc.Close)
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

func TestShardedKVBasics(t *testing.T) {
	lc := newCluster(t, 3, 16, 0, 2)
	rt := lc.router.Thread()
	for key := uint64(0); key < 200; key++ {
		if err := rt.Put(key, key*10+1); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	for key := uint64(0); key < 200; key++ {
		v, ok, err := rt.Get(key)
		if err != nil || !ok || v != key*10+1 {
			t.Fatalf("get %d = (%d,%v,%v)", key, v, ok, err)
		}
	}
	if _, ok, err := rt.Get(1 << 40); err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
	// 200 uniform keys over 16 shards on 3 members: every member served.
	for i, svc := range lc.services {
		total := 0
		for s := 0; s < svc.Map().Shards; s++ {
			total += svc.Keys(s)
		}
		if total == 0 {
			t.Fatalf("member %d holds no keys", i)
		}
	}
	if lc.router.Redirects() != 0 {
		t.Fatalf("redirects on a stable map: %d", lc.router.Redirects())
	}
}

// staleMoveRun is what one run of the stale-authority scenario observed.
type staleMoveRun struct {
	lc       *liveCluster
	shard    int    // the moved shard, from member 0 to member 2
	before   int    // keys the source held in it before the move
	movedKey uint64 // the key put and read after the move
	res      check.Result
}

// moveUnderStaleRouter is the directed stale-authority scenario. It fills
// 300 keys with key+1, moves a shard that holds some of them from member 0
// to member 2 while the router is kept stale — it is not registered with
// the coordinator — and then, through that router, puts key+2 to one of the
// moved keys and reads it back; last it reads the key through a fresh
// router. The stale router's put reaches the new owner only through the
// source's WrongShard NACK. A source that serves the shard anyway
// (mutStaleShardServe) acknowledges a put the new owner never sees, and the
// reads after it make the history non-linearizable.
func moveUnderStaleRouter(t *testing.T) staleMoveRun {
	lc := newCluster(t, 3, 16, 0, 2)
	rec := check.NewRecorder()
	rt := lc.router.Thread()
	for key := uint64(0); key < 300; key++ {
		call := rec.Begin()
		if err := rt.Put(key, key+1); err != nil {
			t.Fatal(err)
		}
		rec.End(0, call, check.KVIn{Key: key, Put: true, Val: key + 1}, nil)
	}
	m := lc.coord.Map()
	run := staleMoveRun{lc: lc}
	for s := 0; s < m.Shards; s++ {
		if m.Owner(s) == 0 && lc.services[0].Keys(s) > 0 {
			run.shard = s
			break
		}
	}
	run.before = lc.services[0].Keys(run.shard)
	if run.before == 0 {
		t.Fatal("picked an empty shard")
	}
	if err := lc.coord.MigrateShard(run.shard, 2); err != nil {
		t.Fatal(err)
	}
	run.movedKey = shardKeys(m, run.shard, 1)[0]
	fresh := NewRouter(lc.router.Node(), lc.coord.Map())
	defer fresh.Close()
	call := rec.Begin()
	if err := rt.Put(run.movedKey, run.movedKey+2); err != nil {
		t.Fatalf("put %d after the move: %v", run.movedKey, err)
	}
	rec.End(0, call, check.KVIn{Key: run.movedKey, Put: true, Val: run.movedKey + 2}, nil)
	for _, th := range []*RouterThread{rt, fresh.Thread()} {
		call := rec.Begin()
		v, ok, err := th.Get(run.movedKey)
		if err != nil {
			t.Fatalf("get %d after the move: %v", run.movedKey, err)
		}
		rec.End(0, call, check.KVIn{Key: run.movedKey}, check.KVOut{Val: v, Found: ok})
	}
	run.res = check.Check(check.MonotonicKVModel(), rec.History())
	return run
}

// TestLiveMigrationMovesDataAndRedirects runs the stale-authority scenario
// on the faithful code: the history is linearizable, the WrongShard protocol
// — NACK carrying the newer map, redirect, retry — is what delivered the
// first call after the handoff, and every key reads back.
func TestLiveMigrationMovesDataAndRedirects(t *testing.T) {
	run := moveUnderStaleRouter(t)
	lc, shard := run.lc, run.shard
	if !run.res.Ok {
		t.Fatalf("history not linearizable across a move under a stale router:\n%s", run.res)
	}
	if got := lc.services[2].Keys(shard); got < run.before {
		t.Fatalf("target has %d keys, source had %d", got, run.before)
	}
	if lc.coord.Map().Owner(shard) != 2 {
		t.Fatal("handoff did not flip ownership")
	}
	// The first call after the move was to a migrated key, so the stale
	// router reached the old owner, which must NACK WrongShard (a key in an
	// unmoved shard would teach the router via the epoch piggyback instead,
	// bypassing the NACK path this test is about).
	if lc.router.Redirects() == 0 {
		t.Fatal("stale router reached the migrated shard without a WrongShard NACK")
	}
	rt := lc.router.Thread()
	for key := uint64(0); key < 300; key++ {
		want := key + 1
		if key == run.movedKey {
			want = key + 2
		}
		v, ok, err := rt.Get(key)
		if err != nil || !ok || v != want {
			t.Fatalf("post-migration get %d = (%d,%v,%v), want %d", key, v, ok, err, want)
		}
	}
	if lc.services[0].Node().Telemetry().Counter("cluster.shard_moves").Load() != 1 {
		t.Fatal("cluster.shard_moves not bumped on the source")
	}
	if lc.services[0].Node().Telemetry().Hist("cluster.migration_duration_ns").Count() != 1 {
		t.Fatal("migration duration not observed")
	}
}

// TestMembershipDetectsDeathAndRevival cuts a member's links, walks the
// detector to dead, routes around it, then restores the link and sees
// the member revive.
func TestMembershipDetectsDeathAndRevival(t *testing.T) {
	lc := newCluster(t, 3, 16, 0, 2)
	lc.coord.AddRouter(lc.router)
	lc.mems.ProbeTimeout = 20 * time.Millisecond
	if st := lc.mems.ProbeOnce(); st[0] != resilience.MemberLive {
		t.Fatalf("initial probe: %v", st)
	}
	fab := lc.nw.Fabric()
	fab.SetLinkDown(testClientID, 1, true)
	fab.SetLinkDown(1, testClientID, true)
	var st map[fabric.NodeID]resilience.MemberState
	for i := 0; i < 6; i++ {
		st = lc.mems.ProbeOnce()
	}
	if st[1] != resilience.MemberDead {
		t.Fatalf("member 1 after 6 missed probes: %v", st[1])
	}
	if lc.router.Node().Telemetry().Counter("cluster.member_suspects").Load() == 0 {
		t.Fatal("cluster.member_suspects not bumped")
	}
	live := lc.mems.Live()
	if len(live) != 2 {
		t.Fatalf("live set = %v", live)
	}
	if _, err := lc.coord.FailOver(1, live); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < lc.coord.Map().Shards; s++ {
		if lc.coord.Map().Owner(s) == 1 {
			t.Fatalf("shard %d still routed to the dead member", s)
		}
	}
	// Fresh writes land on the survivors.
	rt := lc.router.Thread()
	for key := uint64(1000); key < 1100; key++ {
		if err := rt.Put(key, key); err != nil {
			t.Fatalf("put with member down: %v", err)
		}
	}
	fab.SetLinkDown(testClientID, 1, false)
	fab.SetLinkDown(1, testClientID, false)
	// Revival takes a few rounds: the conn's QPs recover before a ping
	// gets through again.
	revived := false
	for i := 0; i < 100 && !revived; i++ {
		revived = lc.mems.ProbeOnce()[1] == resilience.MemberLive
		time.Sleep(10 * time.Millisecond)
	}
	if !revived {
		t.Fatal("member 1 never revived after link restore")
	}
}

// TestDrainResumeRejoin is the regression for the planned-maintenance
// cycle: Decommission migrates a member's shards off and drains it, the
// detector reads the drain pushback as draining (not dead), Resume
// re-marks it live, and the next Rebalance hands its shards back with a
// live copy.
func TestDrainResumeRejoin(t *testing.T) {
	lc := newCluster(t, 3, 16, 0, 2)
	lc.coord.AddRouter(lc.router)
	rt := lc.router.Thread()
	for key := uint64(0); key < 300; key++ {
		if err := rt.Put(key, key+7); err != nil {
			t.Fatal(err)
		}
	}
	victim := fabric.NodeID(2)
	owned := lc.coord.Map().ShardsOwnedBy(victim)
	if len(owned) == 0 {
		t.Fatal("victim owns nothing; test is vacuous")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := lc.coord.Decommission(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if got := lc.coord.Map().ShardsOwnedBy(victim); len(got) != 0 {
		t.Fatalf("victim still owns %v after decommission", got)
	}
	if !lc.services[2].Node().Draining() {
		t.Fatal("victim not draining")
	}
	// The detector sees the drain pushback, not a death.
	lc.mems.ProbeTimeout = 20 * time.Millisecond
	if st := lc.mems.ProbeOnce(); st[victim] != resilience.MemberDraining {
		t.Fatalf("draining member probes as %v", st[victim])
	}
	// All data still reachable on the survivors.
	for key := uint64(0); key < 300; key++ {
		v, ok, err := rt.Get(key)
		if err != nil || !ok || v != key+7 {
			t.Fatalf("get %d during drain = (%d,%v,%v)", key, v, ok, err)
		}
	}

	// Rejoin: after Resume the probe re-marks it live, and the rebalance
	// migrates shards back (the ring over the full member set is the
	// original placement).
	lc.services[2].Node().Resume()
	if st := lc.mems.ProbeOnce(); st[victim] != resilience.MemberLive {
		t.Fatalf("resumed member probes as %v", st[victim])
	}
	moves, err := lc.coord.Rebalance(lc.mems.Live())
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("rebalance moved nothing back")
	}
	back := lc.coord.Map().ShardsOwnedBy(victim)
	if len(back) == 0 {
		t.Fatal("resumed member received no shards")
	}
	// The shards came back with their data: reads served by the victim.
	total := 0
	for _, s := range back {
		total += lc.services[2].Keys(s)
	}
	if total == 0 {
		t.Fatal("shards handed back empty — copy-back did not happen")
	}
	for key := uint64(0); key < 300; key++ {
		v, ok, err := rt.Get(key)
		if err != nil || !ok || v != key+7 {
			t.Fatalf("get %d after rejoin = (%d,%v,%v)", key, v, ok, err)
		}
	}
}

// movePlan is one run of the move pool's chaos half, derived from its seed:
// which member's shard moves, to whom (and back, and again), and the fault
// plan — seeded RC loss, and both directions of the link between the two
// flapping.
type movePlan struct {
	seed           uint64
	source, target fabric.NodeID
	shard          int
	faults         fabric.FaultPlan
}

func movePlanFromSeed(seed uint64, m *ShardMap) movePlan {
	n := uint64(len(m.Members))
	p := movePlan{seed: seed, source: m.Members[seed%n]}
	p.target = m.Members[(seed+1+seed/n%(n-1))%n]
	owned := m.ShardsOwnedBy(p.source)
	p.shard = owned[seed%uint64(len(owned))]
	// A few attempts up, a window down, forever. Windows are counted in
	// matched transmission attempts, so copy-chunk retries advance them
	// deterministically.
	p.faults = fabric.FaultPlan{Seed: 0xC1A05 ^ seed, RCLossProb: 0.01, Links: []fabric.LinkFault{
		{Src: p.source, Dst: p.target, DownAfter: 2 + seed%3, DownFor: 4 + seed%4, Repeat: true},
		{Src: p.target, Dst: p.source, DownAfter: 3 + seed%2, DownFor: 3 + seed%3, Repeat: true},
	}}
	return p
}

func (p movePlan) String() string {
	return fmt.Sprintf("seed=%d shard=%d n%d->n%d->n%d->n%d faults=%+v", p.seed, p.shard, p.source, p.target, p.source, p.target, p.faults)
}

// prefillShard stores n keys of shard with value 1 on every member of its
// replica set, as n acknowledged puts would have left them, so that a copy
// of the shard spans several snapshot frames. The keys are 1<<20 and up,
// disjoint from every working set; they go straight into the stores because
// n puts through the router cost most of a run under the race detector.
func prefillShard(t *testing.T, lc *liveCluster, m *ShardMap, shard, n int) {
	t.Helper()
	for key, filled := uint64(1<<20), 0; filled < n; key++ {
		if m.ShardOf(key) != shard {
			continue
		}
		for _, id := range m.ReplicaSet(shard) {
			if _, err := lc.services[id].shards[shard].store.UpdateMax64(key, 1); err != nil {
				t.Fatalf("prefill key %d on n%d: %v", key, id, err)
			}
		}
		filled++
	}
}

// logPlanOnFailure prints the plan a failing pool run derived from its seed,
// so the failure can be replayed from the log alone.
func logPlanOnFailure(t *testing.T, plan fmt.Stringer) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay: %s", plan)
		}
	})
}

// TestMigrationChaosLinearizable is the move pool's chaos half: for each of
// its seeds, concurrent clients run guarded puts and gets against the
// sharded KV while a shard migrates back and forth and the link between its
// two owners flaps. The recorded history must be linearizable under the
// monotonic-KV model — reads at the end through a router kept stale since
// before the first move included — and every run must actually have moved
// the shard, redirected a client and dropped on the flapping link.
// TestMemberDiesMidMove is the pool's other half.
func TestMigrationChaosLinearizable(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { migrationChaos(t, seed) })
	}
}

func migrationChaos(t *testing.T, seed uint64) {
	lc := newCluster(t, 3, 8, 0, 2)
	m := lc.coord.Map()
	plan := movePlanFromSeed(seed, m)
	logPlanOnFailure(t, plan)
	lc.nw.Fabric().SetFaultPlan(&plan.faults)
	lc.services[plan.source].fwdBudget = 30 * time.Millisecond
	lc.services[plan.target].fwdBudget = 30 * time.Millisecond
	lc.router.callBudget = 100 * time.Millisecond
	shard := plan.shard

	// Every copy is several chunks: enough matched transmissions on the
	// flapping link to hit the down windows.
	prefillShard(t, lc, m, shard, 700)

	// Working set: keys of the moving shard only, so clients chase it across
	// every handoff. Clients run until the last move is over, and at least
	// opsEach operations each.
	const (
		writers  = 4
		keysEach = 6
		opsEach  = 150
		readers  = 2
	)
	keys := shardKeys(m, shard, writers*keysEach)
	rec := check.NewRecorder()
	// A router that sees none of the moves: how many redirects the chaos
	// itself causes depends on timing (a reply's epoch piggyback can teach the
	// clients' router a handoff before any of them reaches the old owner), so
	// the run ends by reading every key through this one, which must be
	// NACKed onto the final owner.
	stale := NewRouter(lc.router.Node(), m)
	defer stale.Close()
	done := make(chan struct{})
	running := func(i int) bool {
		select {
		case <-done:
			return i <= opsEach
		default:
			return true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := lc.router.Thread()
			for i := 1; running(i); i++ {
				key := keys[w+writers*(i%keysEach)] // writer w owns the indices ≡ w mod writers
				val := uint64(i)                    // monotonic per key per sole writer
				call := rec.Begin()
				if err := rt.Put(key, val); err != nil {
					rec.EndPending(w, call, check.KVIn{Key: key, Put: true, Val: val})
					continue
				}
				rec.End(w, call, check.KVIn{Key: key, Put: true, Val: val}, nil)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rt := lc.router.Thread()
			for i := 0; running(i); i++ {
				key := keys[(r*7+i)%len(keys)]
				call := rec.Begin()
				v, ok, err := rt.Get(key)
				if err != nil {
					rec.EndPending(writers+r, call, check.KVIn{Key: key})
					continue
				}
				rec.End(writers+r, call, check.KVIn{Key: key}, check.KVOut{Val: v, Found: ok})
			}
		}(r)
	}

	// Meanwhile: migrate the shard to the target, back, and again, through
	// the flapping link.
	migrations := 0
	go func() {
		defer close(done)
		for _, to := range []fabric.NodeID{plan.target, plan.source, plan.target} {
			if err := lc.coord.MigrateShard(shard, to); err != nil {
				t.Errorf("migrate shard %d -> %d: %v", shard, to, err)
				return
			}
			migrations++
		}
	}()
	wg.Wait()
	st := stale.Thread()
	for _, key := range keys {
		call := rec.Begin()
		v, ok, err := st.Get(key)
		if err != nil {
			rec.EndPending(writers+readers, call, check.KVIn{Key: key})
			continue
		}
		rec.End(writers+readers, call, check.KVIn{Key: key}, check.KVOut{Val: v, Found: ok})
	}

	if migrations == 0 {
		t.Fatal("no migration completed; chaos run is vacuous")
	}
	res := check.Check(check.MonotonicKVModel(), rec.History())
	if !res.Ok {
		t.Fatalf("history not linearizable across live migration:\n%s", res)
	}
	moves := lc.services[plan.source].Node().Telemetry().Counter("cluster.shard_moves").Load() +
		lc.services[plan.target].Node().Telemetry().Counter("cluster.shard_moves").Load()
	if moves < uint64(migrations) {
		t.Fatalf("shard_moves = %d, migrations = %d", moves, migrations)
	}
	if lc.router.Redirects()+stale.Redirects() == 0 {
		t.Fatal("no client was redirected; chaos run is vacuous")
	}
	if lc.nw.Fabric().FaultCounters().LinkDownDrops == 0 {
		t.Fatal("the flap windows never dropped anything; chaos run is vacuous")
	}
}
