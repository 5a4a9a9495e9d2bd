//go:build flockmut

package cluster

import (
	"sync/atomic"

	"flock/internal/core"
)

// The flockmut build: the three replica-plane mutants are compiled in and
// TestMutantsAreCaught switches them on one at a time. See mutants_off.go
// for what each one breaks.
type mutant int32

const (
	mutStaleShardServe mutant = iota + 1
	mutAckBeforeReplicate
	mutAckBeforeBatchDurable
)

// compiledMutants lists the mutants compiled into this build.
var compiledMutants = []mutant{mutStaleShardServe, mutAckBeforeReplicate, mutAckBeforeBatchDurable}

func (m mutant) String() string {
	switch m {
	case mutStaleShardServe:
		return "stale-shard-serve"
	case mutAckBeforeReplicate:
		return "ack-before-replicate"
	case mutAckBeforeBatchDurable:
		return "ack-before-batch-durable"
	}
	return "none"
}

// selectedMutant is the mutant the test has switched on; 0 is none.
var selectedMutant atomic.Int32

func mutantOn(m mutant) bool { return mutant(selectedMutant.Load()) == m }

// ackEarly answers op's put OK before its frame has committed — the lie
// both premature-ack mutants tell — and clears op.reply, so resolve does not
// answer it (and release the shard lock) a second time.
func (sl *shardSlot) ackEarly(op *replOp) {
	sl.gateMu.Lock()
	r := op.reply
	op.reply = nil
	sl.gateMu.Unlock()
	sl.answer(r, appendEpoch(r.Buf(), op.epoch), core.StatusOK)
}

// ackedEarly reports whether a premature-ack mutant answered the put whose
// reply resolve found.
func ackedEarly(reply *core.Reply) bool { return reply == nil }
