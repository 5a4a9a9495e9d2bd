//go:build flockmut

package check

// Mutation selects an intentionally-broken protocol variant. This is the
// flockmut build: the five known-bad variants are compiled into the
// simulator and selectable at runtime, so the self-test can assert the
// checker flags every one of them. See mutants_off.go for the per-variant
// documentation.
type Mutation int

const (
	MutNone Mutation = iota
	MutClaimTimedOut
	MutBatchDropTail
	MutRecycleAckInflight
	MutDedupSkip
	MutPipelineMisroute
)

func (m Mutation) String() string {
	switch m {
	case MutNone:
		return "none"
	case MutClaimTimedOut:
		return "claim-timed-out"
	case MutBatchDropTail:
		return "batch-drop-tail"
	case MutRecycleAckInflight:
		return "recycle-ack-inflight"
	case MutDedupSkip:
		return "dedup-skip"
	case MutPipelineMisroute:
		return "pipeline-misroute"
	}
	return "unknown"
}

// EnabledMutations lists the mutants compiled into this build.
func EnabledMutations() []Mutation {
	return []Mutation{MutClaimTimedOut, MutBatchDropTail, MutRecycleAckInflight, MutDedupSkip, MutPipelineMisroute}
}

// mutantOn reports whether mutant `want` is the active one.
func mutantOn(m, want Mutation) bool { return m == want }
