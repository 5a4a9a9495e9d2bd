package check

import (
	"testing"
)

// The replica-suite gate: the replicated sharded KV stays an exact
// linearizable register — and the echo workload keeps its per-op
// contract — with primaries killed mid-traffic, over a sweep big enough
// to hit the interesting apply/forward/ack/kill interleavings. Vacuity
// is asserted alongside correctness: a sweep that never promoted a
// backup or never replicated a write would prove nothing about the
// sync-forward ACK rule.

const replicaGateSeeds = 250

func TestClusterReplicaLinearizable(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ReplicaSimConfig
	}{
		{"kv", ReplicaSimConfig{}},
		{"echo", ReplicaSimConfig{Echo: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := ExploreReplica(tc.cfg, MutNone, 1, replicaGateSeeds, ReplicaScheduleFromSeed)
			if res.Failures != 0 {
				t.Fatalf("faithful replica sim failed %d/%d schedules; first:\n%s", res.Failures, res.Runs, res.First)
			}
			if res.Failovers < res.Runs {
				t.Fatalf("vacuous sweep: %d failovers over %d runs (want >= 1 per run — every schedule kills a primary)",
					res.Failovers, res.Runs)
			}
			if !tc.cfg.Echo && res.Forwards == 0 {
				t.Fatal("vacuous sweep: no write was ever replicated to a backup")
			}
			if !tc.cfg.Echo && res.Batches == 0 {
				t.Fatal("vacuous sweep: no replication frame was ever flushed")
			}
			if !tc.cfg.Echo && res.MultiBatches == 0 {
				t.Fatal("vacuous sweep: every flushed frame carried a single put — group commit never coalesced, so batch-boundary failures went untested")
			}
			if res.FlapDrops == 0 {
				t.Fatal("vacuous sweep: no kill/flap ever dropped a message")
			}
			if res.Retried == 0 {
				t.Fatal("vacuous sweep: no attempt ever timed out and retried")
			}
			if !tc.cfg.Echo && res.DedupHits == 0 {
				t.Fatal("vacuous sweep: no retry was ever answered from the dedup memo")
			}
			t.Logf("replica sweep (%s): %d runs, %d failovers, %d forwards, %d batches (%d multi), %d drops, %d retries, %d dedup hits",
				tc.name, res.Runs, res.Failovers, res.Forwards, res.Batches, res.MultiBatches, res.FlapDrops, res.Retried, res.DedupHits)
		})
	}
}

// Replaying one schedule twice must produce an identical report.
func TestClusterReplicaDeterministic(t *testing.T) {
	cfg := ReplicaSimConfig{}
	for seed := uint64(1); seed <= 8; seed++ {
		s1 := ReplicaScheduleFromSeed(seed, cfg)
		s2 := ReplicaScheduleFromSeed(seed, cfg)
		if s1.Hash() != s2.Hash() {
			t.Fatalf("seed %d: schedule derivation not deterministic", seed)
		}
		r1 := RunReplicaSchedule(cfg, s1, MutNone)
		r2 := RunReplicaSchedule(cfg, s2, MutNone)
		if r1.Ops != r2.Ops || r1.Failovers != r2.Failovers ||
			r1.Forwards != r2.Forwards || r1.FlapDrops != r2.FlapDrops ||
			r1.Retried != r2.Retried || r1.DedupHits != r2.DedupHits ||
			r1.Batches != r2.Batches || r1.MultiBatches != r2.MultiBatches ||
			r1.Result.Ok != r2.Result.Ok || r1.Completed != r2.Completed {
			t.Fatalf("seed %d: replay diverged:\n  %+v\n  %+v", seed, r1, r2)
		}
	}
}

// The derivation's guarantees: the first perturbation is always a
// mid-window kill of node 0 (shard 0's initial primary, so acknowledged
// writes exist on both sides of the failover), extra kills never target
// node 0 again, and only replica perturbation kinds appear.
func TestReplicaScheduleShape(t *testing.T) {
	cfg := ReplicaSimConfig{}.withDefaults()
	horizon := replicaHorizon(cfg)
	for seed := uint64(1); seed <= 200; seed++ {
		s := ReplicaScheduleFromSeed(seed, cfg)
		if len(s.Perturbs) == 0 || s.Perturbs[0].Kind != PerturbPrimaryKill || s.Perturbs[0].QP != 0 {
			t.Fatalf("seed %d: missing guaranteed primary kill: %s", seed, s)
		}
		if at := s.Perturbs[0].At; at < horizon/4 || at > 3*horizon/4 {
			t.Fatalf("seed %d: guaranteed kill at %d outside mid-window [%d, %d]", seed, at, horizon/4, 3*horizon/4)
		}
		for i, p := range s.Perturbs {
			switch p.Kind {
			case PerturbPrimaryKill:
				if i > 0 && p.QP == 0 {
					t.Fatalf("seed %d: extra kill re-targets node 0: %s", seed, s)
				}
				if p.QP < 0 || p.QP >= cfg.Nodes {
					t.Fatalf("seed %d: kill targets nonexistent node %d", seed, p.QP)
				}
			case PerturbNodeFlap, PerturbHandoffDelay:
			default:
				t.Fatalf("seed %d: foreign perturbation kind %s in replica pool", seed, p.Kind)
			}
		}
	}
}

// A perturbation-free run never fails over, never drops, never retries,
// and completes every op; shrinking a passing schedule is the identity.
func TestReplicaQuiescentRun(t *testing.T) {
	cfg := ReplicaSimConfig{}.withDefaults()
	rep := RunReplicaSchedule(cfg, Schedule{Seed: 7}, MutNone)
	if rep.Failed() {
		t.Fatalf("quiescent run failed:\n%s", rep.Result)
	}
	if rep.Failovers != 0 || rep.FlapDrops != 0 || rep.Retried != 0 {
		t.Fatalf("quiescent run perturbed itself (%d failovers, %d drops, %d retries)",
			rep.Failovers, rep.FlapDrops, rep.Retried)
	}
	if rep.Forwards == 0 {
		t.Fatal("quiescent run never replicated a write (replication must run without faults too)")
	}
	if rep.Batches == 0 {
		t.Fatal("quiescent run never flushed a replication frame")
	}
	if rep.Forwards < rep.Batches {
		t.Fatalf("frame accounting inverted: %d forwards across %d batches", rep.Forwards, rep.Batches)
	}
	if rep.Ops != cfg.Clients*cfg.OpsPerClient {
		t.Fatalf("quiescent run recorded %d ops, want %d", rep.Ops, cfg.Clients*cfg.OpsPerClient)
	}
	s := ReplicaScheduleFromSeed(3, cfg)
	if rep := RunReplicaSchedule(cfg, s, MutNone); !rep.Failed() {
		if got := ShrinkReplica(cfg, s, MutNone); got.Hash() != s.Hash() {
			t.Fatalf("shrink modified a passing schedule: %s -> %s", s, got)
		}
	}
}

// The minimum replicated cluster: two nodes, one backup per shard.
// Every put's ack waits on exactly one forward, the guaranteed kill
// promotes that lone backup, and a second kill darkens everything —
// the edges of the replica-set math.
func TestReplicaSingleBackup(t *testing.T) {
	cfg := ReplicaSimConfig{Nodes: 2, Shards: 4, Replicas: 1}
	res := ExploreReplica(cfg, MutNone, 1, 50, ReplicaScheduleFromSeed)
	if res.Failures != 0 {
		t.Fatalf("single-backup sweep failed %d/%d; first:\n%s", res.Failures, res.Runs, res.First)
	}
	if res.Failovers == 0 || res.Forwards == 0 {
		t.Fatalf("vacuous single-backup sweep: %d failovers, %d forwards", res.Failovers, res.Forwards)
	}
}

// The move-suite gate: the sharded KV stays an exact linearizable
// register across planned shard moves — recruit, snapshot, handoff —
// under seeded node flaps and stretched handoffs, over a sweep big enough
// to hit the interesting interleavings. Vacuity is asserted alongside
// correctness — a sweep that never moved a shard, never bounced a client,
// or never dropped a message through a flap window would prove nothing.

const clusterGateSeeds = 250

// moveCfg is the move suite's world: the replica pool's, plus two planned
// moves of shard 0 inside the traffic window.
func moveCfg() ReplicaSimConfig { return ReplicaSimConfig{Migrations: 2} }

func TestClusterMigrationLinearizable(t *testing.T) {
	res := ExploreReplica(moveCfg(), MutNone, 1, clusterGateSeeds, MigrationScheduleFromSeed)
	if res.Failures != 0 {
		t.Fatalf("faithful cluster failed %d/%d schedules; first:\n%s", res.Failures, res.Runs, res.First)
	}
	if res.Migrations < res.Runs {
		t.Fatalf("vacuous sweep: %d migrations over %d runs (want >= 1 per run)", res.Migrations, res.Runs)
	}
	if res.Redirects == 0 {
		t.Fatal("vacuous sweep: no client ever took a wrong-shard redirect")
	}
	if res.FlapDrops == 0 {
		t.Fatal("vacuous sweep: no flap window ever dropped a message")
	}
	if res.Retried == 0 {
		t.Fatal("vacuous sweep: no attempt ever timed out and retried")
	}
	if res.DedupHits == 0 {
		t.Fatal("vacuous sweep: no retry was ever answered from the dedup memo")
	}
	if res.MultiBatches == 0 {
		t.Fatal("vacuous sweep: no replication frame ever carried more than one put")
	}
	if res.Failovers != 0 {
		t.Fatalf("the move pool derives no kills, yet %d shards failed over", res.Failovers)
	}
	t.Logf("move sweep: %d runs, %d migrations, %d redirects, %d flap drops, %d retries, %d dedup hits, %d batches (%d multi)",
		res.Runs, res.Migrations, res.Redirects, res.FlapDrops, res.Retried, res.DedupHits, res.Batches, res.MultiBatches)
}

// A member dying while a shard is on the move — ROADMAP 5(c)'s double
// fault — is the kill pool run over a world that also moves shard 0: the
// guaranteed kill is of node 0, the shard's first source. The move is
// dropped by the failover and nothing acknowledged is lost.
func TestClusterKillDuringMoveLinearizable(t *testing.T) {
	res := ExploreReplica(moveCfg(), MutNone, 1, clusterGateSeeds, ReplicaScheduleFromSeed)
	if res.Failures != 0 {
		t.Fatalf("faithful cluster failed %d/%d schedules; first:\n%s", res.Failures, res.Runs, res.First)
	}
	if res.Failovers < res.Runs || res.Migrations == 0 || res.MovesDropped == 0 {
		t.Fatalf("vacuous sweep: %d failovers, %d moves completed, %d cut short by a death, over %d runs",
			res.Failovers, res.Migrations, res.MovesDropped, res.Runs)
	}
	t.Logf("kill-during-move sweep: %d runs, %d failovers, %d moves completed, %d cut short, %d redirects, %d drops, %d retries",
		res.Runs, res.Failovers, res.Migrations, res.MovesDropped, res.Redirects, res.FlapDrops, res.Retried)
}

// Replaying one move schedule twice must produce an identical report —
// determinism is what makes a CI failure a one-seed repro.
func TestClusterRunDeterministic(t *testing.T) {
	cfg := moveCfg()
	for seed := uint64(1); seed <= 8; seed++ {
		s1 := MigrationScheduleFromSeed(seed, cfg)
		s2 := MigrationScheduleFromSeed(seed, cfg)
		if s1.Hash() != s2.Hash() {
			t.Fatalf("seed %d: schedule derivation not deterministic", seed)
		}
		r1 := RunReplicaSchedule(cfg, s1, MutNone)
		r2 := RunReplicaSchedule(cfg, s2, MutNone)
		if r1.Ops != r2.Ops || r1.Migrations != r2.Migrations ||
			r1.Redirects != r2.Redirects || r1.FlapDrops != r2.FlapDrops ||
			r1.Retried != r2.Retried || r1.DedupHits != r2.DedupHits ||
			r1.Result.Ok != r2.Result.Ok || r1.Completed != r2.Completed {
			t.Fatalf("seed %d: replay diverged:\n  %+v\n  %+v", seed, r1, r2)
		}
	}
}

// The derivation's guarantees: the first perturbation is always a flap
// of the moved shard's initial source (the copy path must ride through
// an outage), and only flaps and handoff delays appear.
func TestMigrationScheduleShape(t *testing.T) {
	cfg := moveCfg().withDefaults()
	for seed := uint64(1); seed <= 200; seed++ {
		s := MigrationScheduleFromSeed(seed, cfg)
		if len(s.Perturbs) == 0 || s.Perturbs[0].Kind != PerturbNodeFlap || s.Perturbs[0].QP != 0 {
			t.Fatalf("seed %d: missing guaranteed source flap: %s", seed, s)
		}
		for _, p := range s.Perturbs {
			if p.Kind != PerturbNodeFlap && p.Kind != PerturbHandoffDelay {
				t.Fatalf("seed %d: foreign perturbation kind %s in the move pool", seed, p.Kind)
			}
			if p.Kind == PerturbNodeFlap && (p.QP < 0 || p.QP >= cfg.Nodes) {
				t.Fatalf("seed %d: flap targets nonexistent node %d", seed, p.QP)
			}
		}
	}
}

// A perturbation-free run completes every planned move, stays
// linearizable, and (with nothing dropping messages) never retries.
func TestClusterQuiescentRun(t *testing.T) {
	cfg := moveCfg().withDefaults()
	rep := RunReplicaSchedule(cfg, Schedule{Seed: 7}, MutNone)
	if rep.Failed() {
		t.Fatalf("quiescent run failed:\n%s", rep.Result)
	}
	if rep.Migrations != cfg.Migrations {
		t.Fatalf("quiescent run completed %d migrations, want %d", rep.Migrations, cfg.Migrations)
	}
	if rep.FlapDrops != 0 || rep.Retried != 0 || rep.Failovers != 0 {
		t.Fatalf("quiescent run dropped/retried/failed over (%d drops, %d retries, %d failovers) with no perturbations",
			rep.FlapDrops, rep.Retried, rep.Failovers)
	}
	if rep.Ops != cfg.Clients*cfg.OpsPerClient {
		t.Fatalf("quiescent run recorded %d ops, want %d", rep.Ops, cfg.Clients*cfg.OpsPerClient)
	}
	// Shrinking a passing schedule is the identity.
	s := MigrationScheduleFromSeed(3, cfg)
	if rep := RunReplicaSchedule(cfg, s, MutNone); !rep.Failed() {
		if got := ShrinkReplica(cfg, s, MutNone); got.Hash() != s.Hash() {
			t.Fatalf("shrink modified a passing schedule: %s -> %s", s, got)
		}
	}
}
