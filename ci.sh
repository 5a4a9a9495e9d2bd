#!/bin/sh
# ci.sh — the checks every change must pass, in the order CI runs them.
# The race run is scoped to the concurrent packages (the FLock core, the
# software RNIC and the fabric under it, the buffer pool, the cluster, and the key-value store and
# dedup window that every server pump reaches); the model/simulation
# packages are single-threaded and dominate wall-clock, so racing them buys
# nothing.
set -eux

# The flockbench sweeps below write their JSON here, not into the checkout:
# a CI run leaves `git status` clean.
benchdir=$(mktemp -d)
trap 'rm -rf "$benchdir"' EXIT

# ratio_gate <label> <min> reads a flockbench report on stdin and checks its
# "<label>-goodput ratio=R ..." line: the line must be there and R must be at
# least <min>.
ratio_gate() {
	awk -v label="$1" -v min="$2" '
		index($0, label "-goodput ratio=") == 1 {
			found = 1; r = $2; sub(/ratio=/, "", r)
			if (r + 0 < min + 0) { print label " goodput ratio " r " below " min " gate"; bad = 1 }
		}
		END { exit (found && !bad) ? 0 : 1 }'
}

# gate <go test arguments>: every `go test -run <regex>` gate below goes
# through here. `go test -run` exits 0 when the regex matches nothing, so a
# renamed or moved test would drop out of its gate without a sound; the
# function fails on go test's "no tests to run" in any package it was given.
gate() {
	if ! gate_out=$(go test "$@" 2>&1); then
		echo "$gate_out"
		return 1
	fi
	echo "$gate_out"
	if echo "$gate_out" | grep -q 'no tests to run'; then
		echo "gate matched no tests: go test $*"
		return 1
	fi
}

go vet ./...
# The mutation hooks are compiled only under the flockmut tag; vetting that
# build too means a hook that no longer compiles fails here, not in the
# mutation self-test below.
go vet -tags flockmut ./...
go build ./...
go test ./...
go test -race ./internal/loadgen ./internal/core ./internal/rnic ./internal/fabric ./internal/mem ./internal/telemetry ./internal/check ./internal/kvstore ./internal/resilience
# internal/cluster races on its own: its seeded pools keep live clusters busy
# for ~18 s under the race detector, and run beside internal/core they starve
# the node loop that TestOneLoopServesBothRoles times against the wall clock
# (its sweep must land within 4 ms; it failed 2 of 3 such runs).
go test -race ./internal/cluster
# The software RNIC has no goroutine of its own: whichever goroutine rings a
# doorbell may execute anybody's work requests. The three tests that
# cross posters, pollers, stalled QPs and Close on one device are repeated,
# because one interleaving per run proves little. So are the two that check
# the one-copy DMA: RC writes and reads move the right bytes region to region
# with no pool lease, one version per chunk, and copies running both ways
# between the same two regions on two devices' units (plus a copy within one
# region) finish, because a copy takes the two region locks in one global
# order. So are the three that pin the completion channel a parked poller
# sleeps on: an armed region or CQ signals exactly once for what lands between
# the arm and the block, an unarmed one (an exported region taking one-sided
# writes and atomics) never, and a poller that arms and looks once more before
# it blocks loses no wake to a writer on another goroutine.
gate -race -count=10 -run 'TestPostSendNeverBlocks|TestDoorbellStress|TestCloseDuringDrain|TestRCVerbsLeaseNoBuffer|TestOpposedRegionCopies|TestArmedRegionSignalsOnce|TestArmedCQSignalsOnce|TestArmThenLookLosesNoWake' ./internal/rnic
# The receive paths have the same shape: on a client whoever waits on a
# completion drains its QP, and on a server the request dispatcher and any
# idle pool goroutine pump the request rings through one function, each
# under a per-QP poll role. Pollers spinning on a QP while it is broken,
# recycled and quarantined under them must never share a ring with the
# recycler, strand a record or leak a lease; every request outcome must come
# out of that one loop the same with and without a pool; and the inline lane
# must answer however many messages queue behind a blocked pool. A message's
# reply handles share one recycled block, held by every handle until its reply
# is settled: late replies racing their own handlers' return must never see
# their block handed to another message. The pump also drains the QP's
# receive CQ under the poll role and grants its credit renewals, while the
# QP scheduler redistributes the active QPs: the two share each QP's
# utilization and active flag, a renewal posted alone onto an idle ring must
# still be granted, the watermark must halve grants, and a Connect racing
# Serve must find the server built. A node runs one background goroutine and
# its pool: that loop relieves both roles — what no waiter drains and what no
# pool goroutine pumps — and its deadline sweep and both schedulers run on it,
# however busy its server half is. It is started once, under the lock Close
# takes, so Serve or Connect racing Close adds nothing Close does not wait for.
# The server reads a request where it landed, on its request ring, and gives
# the space back only when the message is finished: holders of views that
# finish out of order must see head move only over a finished prefix, the
# producer refused instead of overwriting a held view, and every view's bytes
# unchanged until its finish — a ring full of held views included, and in a
# node's echoes with and without a pool; a recycle must wait for a blocked
# worker-lane handler, which must still read its request byte for byte.
# Idle is a wait: an idle connected pair's loops park on their devices'
# completion channels and wake about once a schedule interval, and a waiter
# parked on a late reply is woken by its armed response ring, not by the
# schedule. A call pays its bookkeeping only when it waits: on a quiet pair
# a memory op reads no clock, sends no completion token and makes no locked
# control-region read, an RPC two clock reads and one control read
# (TestCallFastPathInventory); and waiters that spin, park, cancel, expire
# or never wait race every completer — poller, loop, sweep, recycle, handle
# failure, close-time drain — with each call resolved once and every lease
# back (TestTokenStress). A call record is a slot whose word carries a
# generation: a completion naming the slot's earlier call, off the wire or
# as a memory-op WRID, or a slot on a page never allocated, is dropped as
# stale and leaves the live call untouched, and a window of 200 calls grows
# the table past a page and gives every slot back (TestSlotRejectsStaleIDs).
# A server whose response flush finds the client's response ring full reads
# the client's published head itself, and every reply of the window still
# arrives, with and without a pool (TestStarvedFlushRefreshesHead).
gate -race -count=10 -run 'TestStarvedFlushRefreshesHead|TestCallFastPathInventory|TestTokenStress|TestSlotRejectsStaleIDs|TestIdlePairParksItsLoops|TestParkedWaiterWokenByItsRing|TestRingViewsFinishOutOfOrder|TestRingFullOfHeldViews|TestRingHeldViewsBackPressureProducer|TestEchoReadsRequestsInPlace|TestRecycleWaitsOutWorkerHandler|TestPollRoleVersusRecycle|TestServerPollRoleVersusRecycle|TestServeOutcomes|TestInlineLaneAnswersWhileEveryWorkerBlocks|TestLateReplyRecyclesHandlesOnce|TestConnectRacingServe|TestCreditStarvedLeaderIsRenewed|TestCreditWatermark|TestNodeBackgroundGoroutines|TestCreditRenewalFlows|TestCreditRenewalSurvivesLoss|TestQPSchedulerDeactivatesUnderBudget|TestCloseRacingServeAndConnect|TestOneLoopServesBothRoles|TestBidirectionalNodes|TestWaiterDrainsItsOwnQP|TestDeadlineExpiresBySweep' ./internal/core
# The recovery rules run as shipped in every fault test: a deadline expiry
# strikes its QP only if no response arrived on it during the wait, a QP is
# quarantined only for breaking again and again where its siblings' sends
# land, and a link cut for good fails the connection at its first recycle.
# The link-wide outages (which must recycle and quarantine nothing), the
# flapping QP (which must be quarantined), the linearizable KV under faults,
# the recovery edge cases (the cut link among them), a slow server beside
# live echoes (which must break nothing) and the calls abandoned behind a
# wedged leader (each must execute exactly once) are timing-bound, so one
# pass proves little: they are repeated twenty times.
gate -count=20 -run 'TestChaosMatrix|TestChaosRetryExhaustionRecycles|TestChaosLinkFlapQuarantine|TestLinearizableKVUnderFaults|TestRecoveryEdgeCases|TestSlowServerIsNotADeadQP|TestAbandonedNodeNeverExecutes' ./internal/core

# Mutation self-test: tests that pass known-bad protocol variants are
# themselves broken, so the flockmut build compiles eight of them into the
# shipped code and each must be caught in every one of 20 runs. Five are
# hooks in the combining path (internal/core): a leader staging a node whose
# follower timed out (claim-timed-out), a batch's last payload never staged
# (batch-drop-tail), a broken QP's calls answered with an empty OK
# (recycle-ack-inflight), a keyed retry run past the dedup window
# (dedup-skip) and a response completing the thread's newest call
# (pipeline-misroute). Their scenarios — calls abandoned behind a wedged
# leader, concurrent echoes, KV traffic over a link outage, a keyed retry
# while its original executes, async calls interleaved with sync ones —
# must count more executions than acknowledged calls or record a history
# the checker rejects. Three are hooks in the replica plane
# (internal/cluster): a member serving a shard it handed off
# (stale-shard-serve), a primary acknowledging a put right after its local
# apply (ack-before-replicate) or once its frame is posted rather than acked
# by every backup (ack-before-batch-durable). Each runs a directed
# live-cluster scenario — a move under a stale router, puts with the primary
# cut off from its backups followed by a failover — whose history the
# checker must reject. Each package asserts how many are compiled in. The
# misroute mutant must also survive the synchronous concurrent echo, or it
# is no pipelining bug.
gate -tags flockmut -race -count=20 -run 'TestMutantsAreCaught|TestMisrouteInvisibleWithoutPipelining' ./internal/core
gate -tags flockmut -race -count=20 -run TestMutantsAreCaught ./internal/cluster

# Coverage floor for the FLock core: internal/core must keep at least 70%
# statement coverage, so a loss of test reach fails loudly rather than rots
# quietly.
cov=$(go test -count=1 -cover ./internal/core | awk '{for (i=1;i<=NF;i++) if ($i=="coverage:") print $(i+1)}' | tr -d '%')
awk -v c="$cov" 'BEGIN { if (c+0 < 70.0) { print "internal/core coverage " c "% below 70% floor"; exit 1 } }'

# Knob gate: every exported field of core.Options and of the
# cluster's Service / ReplTuning / Router / Membership must be set by some
# non-test file under cmd/, bench/, examples/ or internal/loadgen, and both
# fields of core.CallOptions by one of those or by internal/cluster (whose
# replication forwarder is what sets Budget). An option only a test can set
# lets the suite pass in a configuration nothing ships.
gate -run TestEveryKnobHasACaller -count=1 .

# Allocation-regression gates: the pooled hot path must stay near its
# measured 2 allocs/op echo exchange (ceiling enforced by the test),
# with telemetry registered and publishing — observability is not
# allowed to cost the hot path allocations; bounding a call must cost none
# (a CallWithDeadline echo allocates no more than the plain Call measured
# beside it: a deadline is a field the periodic sweep reads, not a timer);
# a keyed call (one with retries) allocates no more than a plain Call (the
# dedup window owns its storage), nor does a reply sent from another goroutine
# after its handler returned (its handle's storage is recycled by the Send);
# a put acknowledged by two backups stays under its ceiling of process-wide
# allocations (the router's call, and a call to each backup: the members
# allocate nothing); a SendBatch of eight costs its
# Pendings, its queue nodes and two slices (a batch is a chain through the
# one submit path, with no side slices of its own); an echo behind a worker pool allocates no more than the inline echo (the
# pool goroutine that pulls a message serves it, in reply handles it reuses);
# N echo round trips take exactly N pool leases, on the inline lane and
# the worker lane alike — the client's copy of each response, as the server
# reads requests in place; and a synchronous Read allocates exactly its one
# queue node, of at most 96 B (the node points at the thread's work request).
gate -run 'TestEchoAllocRegressionGate|TestDeadlineCallAllocGate|TestKeyedCallAllocGate|TestReplyLaterAllocGate|TestReplicatedPutAllocGate|TestSendBatchAllocGate|TestWorkerEchoAllocGate|TestEchoPoolGetsGate|TestMemOpAllocGate' -count=1 .

# Telemetry-overhead gate: a counter increment stays in the
# tens-of-nanoseconds range (measured ~9ns, gated at 50ns for CI noise)
# and every hot-path telemetry op — counter inc, gauge set, histogram
# observe, disabled trace record — is allocation-free.
gate -run 'TestCounterOverheadGate|TestHotPathNoAlloc' -count=1 ./internal/telemetry

# Overload-chaos shard. Three gates: (1) the seeded
# overload/dedup/drain tests run under the package leak gate,
# which fails the binary if a single pooled lease is outstanding at
# exit; (2) a live flockload run under admission pressure plus a lossy
# fabric must report nonzero rejected/retries telemetry (vacuity check
# — a shard that never sheds or retries proves nothing) and drain every
# node to zero leases; (3) the flockbench goodput sweep must hold the
# overload-chaos point — the heaviest resilient load on a fabric losing
# 1% of RC transmissions — at 0.80 or more of the no-fault plateau (no
# congestion collapse), and no worker of either series may retire early:
# deadline expiries on a QP that keeps answering strike nothing, so the
# overload itself recycles or quarantines no QP of the client's handle.
gate -run 'TestOverload|TestDedup|TestDrain' -count=1 ./internal/core
out=$(go run ./cmd/flockload -overload 4 -retry 6 -workers 2 -threads 8 -dur 500ms -faults seed=6,rc-loss=0.01)
echo "$out"
echo "$out" | grep -Eq 'resilience +rejected=[1-9]'
echo "$out" | grep -Eq ' retries=[1-9]'
echo "$out" | grep -q 'leases=0'
bench=$(go run ./cmd/flockbench -run overload -json "$benchdir/overload.json")
echo "$bench"
echo "$bench" | ratio_gate chaos 0.80
if echo "$bench" | grep -q 'workers retired early'; then
	echo "overload: workers retired early"
	exit 1
fi

# Pipelining shard. Two gates on the unified completion path:
# (1) the flockbench depth sweep must show the async pipeline actually
# pipelining — depth-8 goodput at least 1.5× depth-1; (2) the echo exchange
# must still meet the allocation ceiling with the pending-call table on the
# hot path (the sync gate above already ran; re-run it here so this shard
# stands alone in a sharded CI).
pbench=$(go run ./cmd/flockbench -run pipeline -json "$benchdir/pipeline.json")
echo "$pbench"
echo "$pbench" | ratio_gate pipeline 1.50
gate -run TestEchoAllocRegressionGate -count=1 .

# Cluster shard. Three gates on the cluster layer: (1) the move pool — the
# live migration-chaos test over eight seeds (concurrent clients chasing a
# shard that moves there, back and there again while the link between its
# two owners flaps) and the double fault over eight more (a source or a
# recruit dying mid-copy) — plus the move under a stale router, five times
# over, must stay linearizable under the package leak gate, and every chaos
# run must have moved the shard, redirected a client and dropped on the
# flapping link; (2) a live flockload cluster run must complete its
# mid-window migrations and drain every node to zero leases; (3) the
# flockbench scaling sweep must show aggregate KV goodput at 4 members at
# least 2.5× 1 member. The stale-shard-serve mutant is covered by the
# flockmut run above.
gate -run 'TestMigrationChaosLinearizable|TestMemberDiesMidMove|TestLiveMigrationMovesDataAndRedirects' -count=5 ./internal/cluster
cout=$(go run ./cmd/flockload -cluster 4 -shards 16 -threads 8 -dur 1s)
echo "$cout"
echo "$cout" | grep -Eq 'membership +live=4/4 moves=2'
echo "$cout" | grep -q 'leases=0'
cbench=$(go run ./cmd/flockbench -run cluster -json "$benchdir/cluster.json")
echo "$cbench"
echo "$cbench" | ratio_gate cluster 2.50

# Replication shard. Five gates on group-commit
# primary–backup replication: (1) the live failover and group-commit
# suites — concurrent writers, a shard primary killed mid-traffic,
# backups promoted on an epoch bump, no put acknowledged while its primary
# is cut off from its backups, a source or a recruit killed in the
# middle of a move, a recruit installed only once no request of the old
# view is in flight (a put still waiting for its frame's acks included:
# its handler has returned, its hold on the shard lock has not) and dropped
# again when its copy fails, batches cut on epoch and death boundaries and
# built once for all backups and carrying every shard of their backup set, one
# backup set's straggler never stalling another set's stream, a backup's apply
# fencing a multi-shard frame whole, every put of a failed frame and every put
# caught by Service.Close answered exactly once, reads gated on uncommitted
# puts and NACKed when those fail — must keep every acknowledged write
# readable, the whole history linearizable, and replicas
# fingerprint-identical, under the package leak gate; (2) the kill pool —
# eight seeds, each choosing the victim, how long traffic runs before the
# kill and a fault plan of RC loss and, on even seeds, a flapping client
# link — and the cut-backups ack test must pass five times over, every kill
# run promoting a backup, every planned flap dropping, and some frame of
# the pool carrying more than one put; (3) a live flockload failover run
# must detect the kill, promote every victim-owned shard, show nonzero
# batched replication forwards, and drain every node to zero leases;
# (4) the flockbench replication sweep must hold R=2 put goodput above
# 0.5x unreplicated (group commit amortizes the backup fan-out over a
# frame of puts); (5)
# internal/cluster holds the same 70% coverage floor as internal/core.
# The premature-ack mutants are covered by the flockmut run above.
gate -run 'TestFailoverPreservesAckedWrites|TestCutBackupsAckNothing|TestMemberDiesMidMove|TestRecruitInstallWaitsOutInFlightRequests|TestRepairDropsRecruitWhenCopyFails|TestReplicatedPutReachesBackups|TestReplicationEpochFence|TestGroupCommit|TestReadGateNACKsWhenFrameFails|TestServiceCloseAnswersEveryPut|TestInstallWaitsForUnansweredPut|TestReplicateTypedErrors|TestCutBatch|TestReplFrame|TestFrameCarriesEveryShardOfItsSet|TestStragglerSetDoesNotStallOtherSets|TestReplicateMultiShardFrames' -count=1 ./internal/cluster
# A shard's slot recycles its put and gated-read records once they are
# answered, while the records ride a stream shared with other shards; the paths
# where a recycled record could be answered twice — a failed frame with reads
# gated on it, Close answering what is queued and in flight, reads gated on a
# group-committed frame, one frame resolving the puts of two shards — are
# repeated under the race detector.
gate -race -count=5 -run 'TestReadGateNACKsWhenFrameFails|TestServiceCloseAnswersEveryPut|TestGroupCommitReadGate|TestFrameCarriesEveryShardOfItsSet' ./internal/cluster
gate -run 'TestFailoverPreservesAckedWrites|TestCutBackupsAckNothing' -count=5 ./internal/cluster
rout=$(go run ./cmd/flockload -cluster 4 -shards 16 -replicas 2 -threads 8 -dur 1s)
echo "$rout"
echo "$rout" | grep -Eq 'failover +victim=n[0-9]+ shards=[1-9][0-9]* promoted=[1-9]'
echo "$rout" | grep -Eq 'replication replicas=2 forwards=[1-9]'
echo "$rout" | grep -Eq 'batches=[1-9]'
echo "$rout" | grep -q 'leases=0'
rbench=$(go run ./cmd/flockbench -run replication -json "$benchdir/replication.json")
echo "$rbench"
echo "$rbench" | ratio_gate replication 0.5
ccov=$(go test -count=1 -cover ./internal/cluster | awk '{for (i=1;i<=NF;i++) if ($i=="coverage:") print $(i+1)}' | tr -d '%')
awk -v c="$ccov" 'BEGIN { if (c+0 < 70.0) { print "internal/cluster coverage " c "% below 70% floor"; exit 1 } }'

# Live-experiment smoke. The four flockbench experiments on the
# live library that no gate above runs share one closed-loop driver
# (internal/loadgen) with the gated ones, but nothing else would notice if
# one of them broke. Each must exit zero (set -e covers the assignment),
# print no retired-worker warning — a worker that met an unexpected error —
# and report a nonzero rate on every data row (second column).
for exp in ablation-credits ablation-signal ablation-udcoalesce sync-micro; do
	smoke=$(go run ./cmd/flockbench -run "$exp" -quick)
	echo "$smoke"
	if echo "$smoke" | grep -q 'workers retired early'; then
		echo "$exp: workers retired early"
		exit 1
	fi
	echo "$smoke" | awk '$2 ~ /^[0-9.]+x?$/ { rows++; if ($2 + 0 == 0) { print "zero rate: " $0; bad = 1 } } END { exit (rows && !bad) ? 0 : 1 }'
done

# One-iteration benchmark smoke: every benchmark must still build and run
# (catches bit-rot in the bench harness without paying full measurement
# time).
go test -run '^$' -bench . -benchtime=1x ./...
