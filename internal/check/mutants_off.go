//go:build !flockmut

package check

// Mutation selects an intentionally-broken protocol variant for the
// mutation self-test. In normal builds only MutNone exists in spirit:
// mutantOn is a constant false, so the compiler removes every mutant code
// path from the simulator. Build with -tags flockmut to compile the five
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
)

// EnabledMutations lists the mutants compiled into this build: none.
func EnabledMutations() []Mutation { return nil }

// mutantOn reports whether mutant `want` is active. Without the flockmut
// build tag this is constant false and mutant branches are dead code.
func mutantOn(m, want Mutation) bool { return false }
