//go:build !flockmut

package check

// Mutation selects an intentionally-broken protocol variant for the
// mutation self-test. In normal builds only MutNone exists in spirit:
// mutantOn is a constant false, so the compiler removes every mutant code
// path from the simulator. Build with -tags flockmut to compile the eight
// known-bad variants in and run the self-test that proves the checker
// catches each one.
type Mutation int

const (
	// MutNone is the faithful protocol.
	MutNone Mutation = iota
	// MutClaimTimedOut: the leader's claim skips the waiting-state CAS
	// and stages abandoned (timed-out) nodes — the bug the CAS in
	// tcq.go's claim exists to prevent. The abandoned op executes twice:
	// once via the mutant leader, once via its thread's re-election.
	MutClaimTimedOut
	// MutBatchDropTail: the leader stages all but the last item of a
	// multi-item batch yet delivers a sent verdict for the whole batch —
	// an off-by-one in batch staging. The dropped op is acknowledged with
	// a stale slot but never applied.
	MutBatchDropTail
	// MutRecycleAckInflight: QP recycle acknowledges in-flight batches as
	// sent instead of failing them — recovery that fabricates results for
	// messages the server may never have seen.
	MutRecycleAckInflight
	// MutDedupSkip: the server forgets to consult the dedup window before
	// applying, so an idempotency-keyed retry whose original already
	// landed executes a second time — the double-apply the window exists
	// to prevent. Only visible under the overload schedules, which are
	// what manufacture retries.
	MutDedupSkip
	// MutPipelineMisroute: when a response message carries two ops of the
	// same thread, the completion path swaps their outputs — matching a
	// response to whichever outstanding call is waiting instead of to the
	// call whose sequence number it carries. This is the bug the per-call
	// completion table exists to prevent, and it is pipelining-aware by
	// construction: a synchronous thread never has two live ops in one
	// batch, so only the Pipeline > 1 schedule pool can catch it.
	MutPipelineMisroute
	// MutStaleShardServe: a cluster node keeps serving every shard it
	// ever owned, ignoring the handoff epoch that moved ownership away —
	// the migration bug the single-authority rule (serve only what your
	// own map assigns you) exists to prevent. Reads at the stale source
	// miss the target's writes, and puts that land there are
	// acknowledged but never reach the new owner. Only the replica
	// simulator's move pool can catch it: nothing else moves a shard.
	MutStaleShardServe
	// MutAckBeforeReplicate: a replicated primary acknowledges a put as
	// soon as the local apply lands, replicating to backups lazily — the
	// premature-ack bug the sync-forward ACK rule exists to prevent. The
	// ack promises durability the backups don't yet have: kill the
	// primary inside the ack-to-forward window and the promoted backup
	// serves reads that miss an acknowledged write. Only the replica
	// schedule pool can catch it: no other pool kills a primary.
	MutAckBeforeReplicate
	// MutAckBeforeBatchDurable: the group-commit variant of the same
	// lie — a primary acknowledges a put the moment it joins the
	// replication log, instead of waiting for the batch carrying it to
	// commit on every backup. The batch still flushes and transmits,
	// but the ack races the flush window: kill the primary between
	// enqueue and backup absorption and the promoted backup misses an
	// acknowledged write. This is the ack rule the batched forwarder
	// must preserve — group commit changes the granularity of
	// durability, never its timing relative to the ack.
	MutAckBeforeBatchDurable
)

// EnabledMutations lists the mutants compiled into this build: none.
func EnabledMutations() []Mutation { return nil }

// mutantOn reports whether mutant `want` is active. Without the flockmut
// build tag this is constant false and mutant branches are dead code.
func mutantOn(m, want Mutation) bool { return false }
