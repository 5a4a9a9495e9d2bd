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

func newLiveCluster(t *testing.T, n, shards int, fcfg fabric.Config) *liveCluster {
	t.Helper()
	nw := core.NewNetwork(fcfg)
	t.Cleanup(nw.Close)
	members := make([]fabric.NodeID, n)
	for i := range members {
		members[i] = fabric.NodeID(i)
	}
	m, err := New(members, shards, 8)
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

func TestShardedKVBasics(t *testing.T) {
	lc := newLiveCluster(t, 3, 16, fabric.Config{})
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

// TestLiveMigrationMovesDataAndRedirects migrates one shard under a
// router that is deliberately kept stale, so the WrongShard protocol —
// NACK carrying the newer map, redirect, retry — is what delivers every
// post-handoff call.
func TestLiveMigrationMovesDataAndRedirects(t *testing.T) {
	lc := newLiveCluster(t, 3, 16, fabric.Config{})
	rt := lc.router.Thread()
	for key := uint64(0); key < 300; key++ {
		if err := rt.Put(key, key+1); err != nil {
			t.Fatal(err)
		}
	}
	m := lc.coord.Map()
	var shard int
	for s := 0; s < m.Shards; s++ {
		if m.Owner(s) == 0 && lc.services[0].Keys(s) > 0 {
			shard = s
			break
		}
	}
	before := lc.services[0].Keys(shard)
	if before == 0 {
		t.Fatal("picked an empty shard")
	}
	// The router is NOT registered with the coordinator: it must learn
	// the handoff from WrongShard NACKs alone.
	if err := lc.coord.MigrateShard(shard, 2); err != nil {
		t.Fatal(err)
	}
	if got := lc.services[2].Keys(shard); got < before {
		t.Fatalf("target has %d keys, source had %d", got, before)
	}
	if lc.coord.Map().Owner(shard) != 2 {
		t.Fatal("handoff did not flip ownership")
	}
	// Read a migrated key FIRST: the stale router routes it to the old
	// owner, which must NACK WrongShard (a key in an unmoved shard would
	// teach the router via the epoch piggyback instead, bypassing the
	// NACK path this test is about). Then every key still reads back.
	var migratedKey uint64
	for key := uint64(0); key < 300; key++ {
		if m.ShardOf(key) == shard {
			migratedKey = key
			break
		}
	}
	if v, ok, err := rt.Get(migratedKey); err != nil || !ok || v != migratedKey+1 {
		t.Fatalf("migrated-shard get %d = (%d,%v,%v)", migratedKey, v, ok, err)
	}
	if lc.router.Redirects() == 0 {
		t.Fatal("stale router reached the migrated shard without a WrongShard NACK")
	}
	for key := uint64(0); key < 300; key++ {
		v, ok, err := rt.Get(key)
		if err != nil || !ok || v != key+1 {
			t.Fatalf("post-migration get %d = (%d,%v,%v)", key, v, ok, err)
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
	lc := newLiveCluster(t, 3, 16, fabric.Config{})
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
	lc := newLiveCluster(t, 3, 16, fabric.Config{})
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

// TestMigrationChaosLinearizable is the headline property: concurrent
// clients run guarded puts and gets against the sharded KV while a
// shard migrates back and forth and the source→target link flaps on a
// seeded schedule. The recorded history must be linearizable under the
// monotonic-KV model, and the run must actually have exercised
// migration (moves > 0) and the redirect protocol.
func TestMigrationChaosLinearizable(t *testing.T) {
	lc := newLiveCluster(t, 3, 8, fabric.Config{})
	lc.nw.Fabric().SetFaultPlan(&fabric.FaultPlan{
		Seed: 0xC1A05,
		Links: []fabric.LinkFault{
			// Flap both directions of the migration path (0↔2): a few
			// attempts up, a window down, forever. Windows are counted in
			// matched transmission attempts, so copy-chunk retries advance
			// them deterministically.
			{Src: 0, Dst: 2, DownAfter: 2, DownFor: 6, Repeat: true},
			{Src: 2, Dst: 0, DownAfter: 3, DownFor: 5, Repeat: true},
		},
	})
	lc.services[0].fwdBudget = 30 * time.Millisecond
	lc.router.callBudget = 100 * time.Millisecond

	m := lc.coord.Map()
	var shard int
	for s := 0; s < m.Shards; s++ {
		if m.Owner(s) == 0 {
			shard = s
			break
		}
	}
	// Pre-populate the migrating shard so every copy is several chunks —
	// enough matched transmissions on the flapping link to hit the down
	// windows. These keys live above 1<<20, disjoint from the checked
	// working set.
	{
		rt := lc.router.Thread()
		filled := 0
		for key := uint64(1 << 20); filled < 700; key++ {
			if m.ShardOf(key) != shard {
				continue
			}
			if err := rt.Put(key, 1); err != nil {
				t.Fatalf("prefill put: %v", err)
			}
			filled++
		}
	}

	rec := check.NewRecorder()
	const (
		writers   = 4
		keysEach  = 6
		opsEach   = 150
		readers   = 2
		readerOps = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt := lc.router.Thread()
			for i := 1; i <= opsEach; i++ {
				key := uint64(w*keysEach + i%keysEach)
				val := uint64(i) // monotonic per key per sole writer
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
			for i := 0; i < readerOps; i++ {
				key := uint64((r*7 + i) % (writers * keysEach))
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

	// Meanwhile: migrate the shard 0→2, back 2→0, and again, through the
	// flapping link.
	migrations := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		targets := []fabric.NodeID{2, 0, 2}
		for _, to := range targets {
			if err := lc.coord.MigrateShard(shard, to); err != nil {
				t.Errorf("migrate shard %d -> %d: %v", shard, to, err)
				return
			}
			migrations++
		}
	}()
	wg.Wait()
	<-done

	if migrations == 0 {
		t.Fatal("no migration completed; chaos run is vacuous")
	}
	res := check.Check(check.MonotonicKVModel(), rec.History())
	if !res.Ok {
		t.Fatalf("history not linearizable across live migration:\n%s", res)
	}
	moves := lc.services[0].Node().Telemetry().Counter("cluster.shard_moves").Load() +
		lc.services[2].Node().Telemetry().Counter("cluster.shard_moves").Load()
	if moves < uint64(migrations) {
		t.Fatalf("shard_moves = %d, migrations = %d", moves, migrations)
	}
	if lc.nw.Fabric().FaultCounters().LinkDownDrops == 0 {
		t.Fatal("the flap windows never dropped anything; chaos run is vacuous")
	}
}
