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

// newestOutstanding returns the newest sequence ID whose record is still
// waiting — where the misroute mutant sends a response — or seq when none
// is; caller holds p.mu.
func (p *pendingTable) newestOutstanding(seq uint64) uint64 {
	newest := uint64(0)
	for s, rec := range p.recs {
		if !rec.resolved() && s > newest {
			newest = s
		}
	}
	if newest == 0 {
		return seq
	}
	return newest
}
