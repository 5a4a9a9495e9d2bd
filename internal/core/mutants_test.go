//go:build flockmut

package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestMutantsAreCaught is the mutation self-test on the shipped combining
// path: each mutant is switched on at its real site and runs the scenario
// built to expose it, which must reject it every time — the
// linearizability checker on the recorded history where the scenario
// records one, handler executions against acknowledged calls where it
// counts them. Without the mutant the same scenarios are
// TestAbandonedNodeNeverExecutes, TestLinearizableEchoConcurrent,
// TestLinearizableKVUnderFaults, TestDedupAsyncRetrySingleExecution and
// TestCallInterleavesWithAsync, which must pass.
func TestMutantsAreCaught(t *testing.T) {
	if len(compiledMutants) != 5 {
		t.Fatalf("expected 5 compiled mutants, got %d", len(compiledMutants))
	}
	// Each scenario reports whether the run was correct, and what it saw.
	scenario := map[mutant]func(*testing.T) (bool, string){
		mutClaimTimedOut: func(t *testing.T) (bool, string) {
			run := abandonBehindWedgedLeader(t)
			return run.execs == run.acked, fmt.Sprintf("%d executions for %d acknowledged calls", run.execs, run.acked)
		},
		mutBatchDropTail: func(t *testing.T) (bool, string) {
			res := echoConcurrently(t, sharedQPs, sharedQPs).res
			return res.Ok, res.String()
		},
		mutRecycleAckInflight: func(t *testing.T) (bool, string) {
			res := kvUnderFaults(t).res
			return res.Ok, res.String()
		},
		mutDedupSkip: func(t *testing.T) (bool, string) {
			run := retryWhileOriginalExecutes(t)
			run.resp.Release()
			return run.execs == 1, fmt.Sprintf("%d executions for 1 acknowledged call", run.execs)
		},
		mutPipelineMisroute: func(t *testing.T) (bool, string) {
			res := interleaveAsyncAndSync(t).res
			return res.Ok, res.String()
		},
	}
	for _, m := range compiledMutants {
		t.Run(m.String(), func(t *testing.T) {
			selectedMutant.Store(int32(m))
			defer selectedMutant.Store(0)
			ok, saw := scenario[m](t)
			t.Logf("%s", strings.SplitN(saw, "\n", 2)[0])
			if ok {
				t.Fatalf("mutant %s survived its scenario: the tests are blind to it", m)
			}
		})
	}
}

// TestMisrouteInvisibleWithoutPipelining: the misroute mutant must survive
// the synchronous concurrent echo. A thread with one call in flight has no
// other call to swap a response with, so if this starts failing the mutant
// stopped being a pipelining bug and its catch proves nothing about the
// completion table.
func TestMisrouteInvisibleWithoutPipelining(t *testing.T) {
	selectedMutant.Store(int32(mutPipelineMisroute))
	defer selectedMutant.Store(0)
	if res := echoConcurrently(t, sharedQPs, sharedQPs).res; !res.Ok {
		t.Fatalf("misroute mutant caught by synchronous echo:\n%s", res)
	}
}
