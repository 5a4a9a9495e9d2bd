//go:build !flockmut

package cluster

import "flock/internal/core"

// mutant names one deliberately broken variant of the replica plane, for
// the mutation self-test: the checker is only trustworthy if it rejects the
// histories these produce. Each mutant is a hook at the site of the rule it
// breaks. In normal builds mutantOn is constant false, so every hook
// compiles out; build with -tags flockmut to compile them in and run
// TestMutantsAreCaught, which switches each one on in turn.
type mutant int32

const (
	// mutStaleShardServe: a member keeps serving a shard it still holds
	// data for after a handoff moved it away, ignoring the single-authority
	// rule (serve only what your own map assigns you). Puts acknowledged at
	// the stale source never reach the new owner, and reads there miss the
	// new owner's writes.
	mutStaleShardServe mutant = iota + 1
	// mutAckBeforeReplicate: a primary acknowledges a put right after its
	// local apply and replicates it afterwards. Kill the primary before the
	// frame lands and the promoted backup misses an acknowledged write.
	mutAckBeforeReplicate
	// mutAckBeforeBatchDurable: the group-commit variant of the same lie —
	// a frame's puts are acknowledged once the frame has been posted to
	// every backup, not once every backup has acked it. Durability is per
	// frame, but never earlier than the frame's commit.
	mutAckBeforeBatchDurable
)

// mutantOn reports whether m is switched on: never, in this build.
func mutantOn(m mutant) bool { return false }

// The two premature-ack hooks; unreachable here, since mutantOn is false.
func (sl *shardSlot) ackEarly(op *replOp) {}
func ackedEarly(reply *core.Reply) bool   { return false }
