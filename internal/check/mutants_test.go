//go:build flockmut

package check

import (
	"strings"
	"testing"
)

// The mutation self-test: the harness is only trustworthy if it catches
// known-bad protocol variants. Each mutant breaks one rule the real
// implementation enforces (tcq.go's claim CAS, batch staging, recovery's
// fail-don't-fabricate); the explorer must flag every one of them as
// non-linearizable within the seed budget, while the same sweep passes
// the faithful protocol.

const mutantSeeds = 400

// mutantWorkload picks the most sensitive model per mutant. The misroute
// mutant swaps outputs between two ops of one thread, which echo — every
// response must carry its own call's payload — sees unconditionally.
func mutantWorkload(m Mutation) Workload {
	if m == MutPipelineMisroute {
		return WorkloadEcho
	}
	return WorkloadCounter
}

func TestMutantsAreCaught(t *testing.T) {
	muts := EnabledMutations()
	if len(muts) != 5 {
		t.Fatalf("expected 5 compiled mutants, got %d", len(muts))
	}
	for _, mut := range muts {
		mut := mut
		t.Run(mut.String(), func(t *testing.T) {
			t.Parallel()
			// The dedup mutant only bites when retries happen, so it gets
			// the overload schedules; the misroute mutant only bites when a
			// thread has two ops in flight, so it gets the pipeline
			// schedules; the combining-path mutants keep the canonical
			// pool. The replica plane's mutants run on the cluster code
			// itself (internal/cluster's TestMutantsAreCaught).
			cfg := exploreCfg(mutantWorkload(mut))
			derive := ScheduleFromSeed
			switch mut {
			case MutDedupSkip:
				cfg = overloadCfg(mutantWorkload(mut))
				derive = OverloadScheduleFromSeed
			case MutPipelineMisroute:
				cfg = pipelineCfg(mutantWorkload(mut))
				derive = PipelineScheduleFromSeed
			}
			res := ExploreSchedules(cfg, mut, 1, mutantSeeds, derive)
			if res.Failures == 0 {
				t.Fatalf("mutant %s survived %d schedules: the checker is blind to it", mut, res.Runs)
			}
			t.Logf("mutant %s: caught in %d/%d schedules", mut, res.Failures, res.Runs)

			// The failure report must be replayable: re-running the shrunk
			// minimal schedule must still fail, and the report must print
			// both the seed and the failing sub-history.
			f := res.First
			if f == nil {
				t.Fatal("failures counted but no report captured")
			}
			if !RunSchedule(cfg, f.Minimal, mut).Failed() {
				t.Fatalf("minimal schedule does not reproduce: %s", f.Minimal)
			}
			if len(f.Minimal.Perturbs) > len(f.Report.Schedule.Perturbs) {
				t.Fatalf("shrink grew the schedule: %s -> %s", f.Report.Schedule, f.Minimal)
			}
			rep := f.String()
			if !strings.Contains(rep, "seed=") || !strings.Contains(rep, "minimal:") {
				t.Fatalf("failure report missing replay info:\n%s", rep)
			}
		})
	}
}

// TestMisrouteInvisibleWithoutPipelining: the misroute mutant must survive
// the canonical synchronous pool — one op in flight per thread means no
// message ever carries two live ops of one thread, so there is nothing to
// swap. If this sweep starts failing, the mutant stopped being a
// pipelining bug and the pipeline suite's catch proves nothing new.
func TestMisrouteInvisibleWithoutPipelining(t *testing.T) {
	res := Explore(exploreCfg(WorkloadEcho), MutPipelineMisroute, 1, mutantSeeds)
	if res.Failures != 0 {
		t.Fatalf("misroute mutant caught by the synchronous pool (%d/%d schedules); first:\n%s",
			res.Failures, res.Runs, res.First)
	}
}

// TestFaithfulProtocolSurvivesMutantSweep: the exact sweep that kills the
// mutants passes the unmodified protocol — the checker discriminates, it
// does not just reject everything.
func TestFaithfulProtocolSurvivesMutantSweep(t *testing.T) {
	cfg := exploreCfg(WorkloadCounter)
	res := Explore(cfg, MutNone, 1, mutantSeeds)
	if res.Failures != 0 {
		t.Fatalf("faithful protocol failed %d/%d schedules; first:\n%s", res.Failures, res.Runs, res.First)
	}
}
