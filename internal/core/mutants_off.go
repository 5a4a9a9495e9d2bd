//go:build !flockmut

package core

// mutant names one deliberately broken variant of the combining path, for
// the mutation self-test: the tests are only trustworthy if they reject what
// these variants do. Each mutant is a hook at the site of the rule it breaks.
// In normal builds mutantOn is constant false, so every hook compiles out;
// build with -tags flockmut to compile them in and run TestMutantsAreCaught,
// which switches each one on in turn.
type mutant int32

const (
	// mutClaimTimedOut: a leader also claims a follower node that already
	// timed out (processBatch), skipping the waiting→claimed CAS that is its
	// race with the follower's stall timeout. The abandoned request executes
	// twice: once from the stale node, once from its thread's re-election.
	mutClaimTimedOut mutant = iota + 1
	// mutBatchDropTail: the leader marks the last RPC of a multi-item batch
	// copied but never stages its payload (processBatch), yet posts the batch
	// and delivers a sent verdict for all of it. The server answers that call
	// from whatever bytes the ring held.
	mutBatchDropTail
	// mutRecycleAckInflight: a broken QP's in-flight calls complete with an
	// empty OK response instead of the error (failInflight) — recovery that
	// fabricates results for requests the server may never have seen.
	mutRecycleAckInflight
	// mutDedupSkip: the server runs a keyed request without consulting its
	// dedup window (execute), so a retry whose original already executed
	// runs a second time.
	mutDedupSkip
	// mutPipelineMisroute: a response off the wire completes the thread's
	// outstanding call in its highest slot instead of the call whose ID it
	// carries (pendingTable.complete). A thread with one call in flight
	// cannot tell; only a pipelined thread can.
	mutPipelineMisroute
)

// mutantOn reports whether m is switched on: never, in this build.
func mutantOn(m mutant) bool { return false }

// lastOutstanding is the misroute hook; unreachable here, since mutantOn
// is false.
func (p *pendingTable) lastOutstanding(id uint64) uint64 { return id }
