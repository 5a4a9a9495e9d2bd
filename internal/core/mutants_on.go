//go:build flockmut

package core

import "sync/atomic"

// The flockmut build: the five combining-path mutants are compiled in and
// TestMutantsAreCaught switches them on one at a time. See mutants_off.go
// for what each one breaks.
type mutant int32

const (
	mutClaimTimedOut mutant = iota + 1
	mutBatchDropTail
	mutRecycleAckInflight
	mutDedupSkip
	mutPipelineMisroute
)

// compiledMutants lists the mutants compiled into this build.
var compiledMutants = []mutant{mutClaimTimedOut, mutBatchDropTail, mutRecycleAckInflight, mutDedupSkip, mutPipelineMisroute}

func (m mutant) String() string {
	switch m {
	case mutClaimTimedOut:
		return "claim-timed-out"
	case mutBatchDropTail:
		return "batch-drop-tail"
	case mutRecycleAckInflight:
		return "recycle-ack-inflight"
	case mutDedupSkip:
		return "dedup-skip"
	case mutPipelineMisroute:
		return "pipeline-misroute"
	}
	return "none"
}

// selectedMutant is the mutant the test has switched on; 0 is none.
var selectedMutant atomic.Int32

func mutantOn(m mutant) bool { return mutant(selectedMutant.Load()) == m }

// lastOutstanding returns the ID of the thread's outstanding call in its
// highest slot — where the misroute mutant sends a response — or id when
// none is outstanding.
func (p *pendingTable) lastOutstanding(id uint64) uint64 {
	last := id
	slot := uint64(0)
	p.each(func(rec *callRec) {
		w := rec.word.Load()
		if st := w & stateMask; st == recPending || st == recParked {
			last = (w>>genShift)<<slotBits | slot
		}
		slot++
	})
	return last
}
