package check

import (
	"fmt"
	"strings"

	"flock/internal/sim"
)

// The schedule explorer. A Schedule is derived deterministically from a
// seed: the seed drives both the base interleaving (thread start jitter,
// QP choice on migration) and a small set of adversarial perturbations
// aimed at the combining path's race windows. Running the same schedule
// twice yields bit-identical histories, so a CI failure is reproduced by a
// single seed, and a failing schedule shrinks to a minimal perturbation
// set.

// PerturbKind names one adversarial scheduling decision.
type PerturbKind int

const (
	// PerturbLeaderStall deschedules a QP's combining leader for Dur,
	// opening the follower-timeout / re-election race.
	PerturbLeaderStall PerturbKind = iota
	// PerturbQPBreak breaks a QP with batches in flight; Dur is the
	// recycle delay.
	PerturbQPBreak
	// PerturbDeliveryDelay stretches the QP's wire latency by Dur for a
	// window, reordering deliveries against handoffs.
	PerturbDeliveryDelay
	// PerturbCreditStarve defers credit renewal grants until now+Dur,
	// stalling leaders mid-claim.
	PerturbCreditStarve
	// PerturbRedistribute rotates every thread's QP assignment, as the
	// receiver-side scheduler reshuffling the active set would.
	PerturbRedistribute
	// PerturbServiceInflate is the overload perturbation: server service
	// time inflates by Dur for a 4×Dur window, pushing responses past
	// attempt deadlines so clients retry under their idempotency keys.
	// Only OverloadScheduleFromSeed and PipelineScheduleFromSeed derive
	// it — the canonical ScheduleFromSeed pool is frozen so existing
	// seeds stay replayable.
	PerturbServiceInflate
)

func (k PerturbKind) String() string {
	switch k {
	case PerturbLeaderStall:
		return "stall"
	case PerturbQPBreak:
		return "break"
	case PerturbDeliveryDelay:
		return "delay"
	case PerturbCreditStarve:
		return "starve"
	case PerturbRedistribute:
		return "redist"
	case PerturbServiceInflate:
		return "inflate"
	}
	return fmt.Sprintf("perturb(%d)", int(k))
}

// Perturbation is one scheduled adversarial event.
type Perturbation struct {
	Kind PerturbKind
	At   sim.Time // virtual time the event fires
	QP   int
	Dur  sim.Time
}

func (p Perturbation) String() string {
	if p.Kind == PerturbRedistribute {
		return fmt.Sprintf("redist@%dus", p.At/sim.Microsecond)
	}
	return fmt.Sprintf("%s(qp%d,%dus)@%dus", p.Kind, p.QP, p.Dur/sim.Microsecond, p.At/sim.Microsecond)
}

// Schedule is a fully deterministic run description: the seed (base
// interleaving) plus the perturbation list. ScheduleFromSeed derives the
// canonical schedule; a shrunk schedule keeps the seed but drops
// perturbations.
type Schedule struct {
	Seed     uint64
	Perturbs []Perturbation
}

// String renders the schedule in the replayable form printed on failure.
func (s Schedule) String() string {
	parts := make([]string, len(s.Perturbs))
	for i, p := range s.Perturbs {
		parts[i] = p.String()
	}
	return fmt.Sprintf("seed=%d perturbs=[%s]", s.Seed, strings.Join(parts, " "))
}

// Hash is a stable fingerprint of the schedule, for log correlation.
func (s Schedule) Hash() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(s.Seed)
	for _, p := range s.Perturbs {
		mix(uint64(p.Kind))
		mix(uint64(p.At))
		mix(uint64(p.QP))
		mix(uint64(p.Dur))
	}
	return h
}

// ScheduleFromSeed derives the canonical schedule for a seed: 0–5
// perturbations placed inside the window where the workload is active,
// with durations sized to straddle the follower stall timeout (so leader
// stalls really do race re-election).
func ScheduleFromSeed(seed uint64, cfg SimConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := newScheduleRNG(seed)
	// Rough active window: ops flow for about opsPerThread round trips.
	horizon := sim.Time(cfg.OpsPerThread) * (4 * simWireLatency)
	n := rng.Intn(6)
	s := Schedule{Seed: seed}
	for i := 0; i < n; i++ {
		p := Perturbation{
			Kind: PerturbKind(rng.Intn(5)),
			At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
			QP:   rng.Intn(cfg.QPs),
		}
		switch p.Kind {
		case PerturbLeaderStall:
			// Half a stall timeout up to 3×: some stalls the followers
			// ride out, some force abandonment.
			p.Dur = cfg.StallTimeout/2 + sim.Time(rng.Uint64n(uint64(cfg.StallTimeout)*3))
		case PerturbQPBreak:
			p.Dur = simRecycleDelay + sim.Time(rng.Uint64n(uint64(10*sim.Microsecond)))
		case PerturbDeliveryDelay, PerturbCreditStarve:
			p.Dur = sim.Time(rng.Uint64n(uint64(cfg.StallTimeout)*2) + 1)
		}
		s.Perturbs = append(s.Perturbs, p)
	}
	return s
}

// OverloadScheduleFromSeed derives the overload-suite schedule for a
// seed: one guaranteed service-inflation window plus 0–4 perturbations
// drawn from the full kind set (inflation included). It is a separate
// derivation — with its own RNG salt — so the canonical ScheduleFromSeed
// pool is untouched and historical seeds keep replaying bit-identically.
// Inflation windows are sized around the attempt timeout: some the
// attempts ride out, some force abandonment and an idempotent retry.
func OverloadScheduleFromSeed(seed uint64, cfg SimConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := newScheduleRNG(seed ^ 0x0F10CC0AD5EED5A1)
	at := cfg.AttemptTimeout
	if at <= 0 {
		at = 4 * cfg.StallTimeout
	}
	horizon := sim.Time(cfg.OpsPerThread) * (4 * simWireLatency)
	inflate := func() Perturbation {
		return Perturbation{
			Kind: PerturbServiceInflate,
			At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
			QP:   rng.Intn(cfg.QPs),
			Dur:  at/2 + sim.Time(rng.Uint64n(uint64(at)*2)),
		}
	}
	s := Schedule{Seed: seed, Perturbs: []Perturbation{inflate()}}
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		p := Perturbation{
			Kind: PerturbKind(rng.Intn(6)),
			At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
			QP:   rng.Intn(cfg.QPs),
		}
		switch p.Kind {
		case PerturbLeaderStall:
			p.Dur = cfg.StallTimeout/2 + sim.Time(rng.Uint64n(uint64(cfg.StallTimeout)*3))
		case PerturbQPBreak:
			p.Dur = simRecycleDelay + sim.Time(rng.Uint64n(uint64(10*sim.Microsecond)))
		case PerturbDeliveryDelay, PerturbCreditStarve:
			p.Dur = sim.Time(rng.Uint64n(uint64(cfg.StallTimeout)*2) + 1)
		case PerturbServiceInflate:
			p = inflate()
		}
		s.Perturbs = append(s.Perturbs, p)
	}
	return s
}

// PipelineScheduleFromSeed derives the pipelining-suite schedule for a
// seed — the pool that drives SimConfig.Pipeline windows. Like the
// overload pool it is its own derivation with its own RNG salt, so the
// canonical and overload pools keep replaying bit-identically. Every
// schedule carries one guaranteed service-inflation window (inflation
// pushes attempts past their deadline, so retries of one op interleave
// with its window-mates — the completion-matching races the suite exists
// to explore) plus 0–4 perturbations from the full kind set.
func PipelineScheduleFromSeed(seed uint64, cfg SimConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := newScheduleRNG(seed ^ 0x0F10CCB1BE5EED07)
	at := cfg.AttemptTimeout
	if at <= 0 {
		at = 4 * cfg.StallTimeout
	}
	horizon := sim.Time(cfg.OpsPerThread) * (4 * simWireLatency)
	inflate := func() Perturbation {
		return Perturbation{
			Kind: PerturbServiceInflate,
			At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
			QP:   rng.Intn(cfg.QPs),
			Dur:  at/2 + sim.Time(rng.Uint64n(uint64(at)*2)),
		}
	}
	s := Schedule{Seed: seed, Perturbs: []Perturbation{inflate()}}
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		p := Perturbation{
			Kind: PerturbKind(rng.Intn(6)),
			At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
			QP:   rng.Intn(cfg.QPs),
		}
		switch p.Kind {
		case PerturbLeaderStall:
			p.Dur = cfg.StallTimeout/2 + sim.Time(rng.Uint64n(uint64(cfg.StallTimeout)*3))
		case PerturbQPBreak:
			p.Dur = simRecycleDelay + sim.Time(rng.Uint64n(uint64(10*sim.Microsecond)))
		case PerturbDeliveryDelay, PerturbCreditStarve:
			p.Dur = sim.Time(rng.Uint64n(uint64(cfg.StallTimeout)*2) + 1)
		case PerturbServiceInflate:
			p = inflate()
		}
		s.Perturbs = append(s.Perturbs, p)
	}
	return s
}

// RunReport is the outcome of one simulated schedule.
type RunReport struct {
	Schedule  Schedule
	Result    Result
	Ops       int
	Completed bool // false: a thread never finished — the protocol wedged
	// Retried counts attempt abandonments (deadline expiry or ambiguous
	// retry); DedupHits counts applies answered from the dedup memo. Both
	// are vacuity signals for the overload suite: a sweep that never
	// retries or never dedups proved nothing.
	Retried   int
	DedupHits int
	// Pipelined counts ops issued while their thread already had one in
	// flight — the vacuity signal for the pipelining suite: a sweep that
	// never overlapped two ops of one thread proved nothing about the
	// completion-matching path.
	Pipelined int
}

// Failed reports whether the run violated the model or wedged.
func (r RunReport) Failed() bool { return !r.Result.Ok || !r.Completed }

// RunSchedule executes one deterministic simulation of the combining path
// under the given schedule and mutation, and checks the recorded history
// against the workload's model.
func RunSchedule(cfg SimConfig, sched Schedule, mut Mutation) RunReport {
	w := newSimWorld(cfg, sched.Seed, mut)
	history, completed := w.run(sched)
	res := Check(cfg.Workload.Model(), history)
	return RunReport{
		Schedule:  sched,
		Result:    res,
		Ops:       len(history),
		Completed: completed,
		Retried:   w.retried,
		DedupHits: w.dedupHits,
		Pipelined: w.pipelined,
	}
}

// FailureReport describes the first failing schedule of an exploration,
// with its shrunk minimal form.
type FailureReport struct {
	Report  RunReport
	Minimal Schedule
}

func (f FailureReport) String() string {
	verdict := f.Report.Result.String()
	if !f.Report.Completed {
		verdict = "protocol wedged: some threads never completed\n" + verdict
	}
	return fmt.Sprintf(
		"schedule exploration failure\n  schedule: %s (hash %016x)\n  minimal:  %s (hash %016x)\n  replay:   RunSchedule(cfg, minimal, mut)\n%s",
		f.Report.Schedule, f.Report.Schedule.Hash(), f.Minimal, f.Minimal.Hash(), verdict)
}

// ExploreResult summarizes an exploration sweep.
type ExploreResult struct {
	Runs     int
	Failures int
	// Retried, DedupHits, and Pipelined are summed over the sweep
	// (vacuity signals for the overload and pipelining suites).
	Retried   int
	DedupHits int
	Pipelined int
	// First is the first failure, shrunk; nil when all runs passed.
	First *FailureReport
}

// Explore runs n seed-derived schedules starting at startSeed and checks
// every history. On the first failure it shrinks the schedule and records
// the report; remaining seeds still run so Failures counts the full sweep.
func Explore(cfg SimConfig, mut Mutation, startSeed uint64, n int) ExploreResult {
	return ExploreSchedules(cfg, mut, startSeed, n, ScheduleFromSeed)
}

// ExploreSchedules is Explore with a pluggable schedule derivation —
// ScheduleFromSeed for the canonical pool, OverloadScheduleFromSeed for
// the overload suite. Retried/DedupHits are summed across the sweep so
// callers can assert the sweep actually exercised what it claims to.
func ExploreSchedules(cfg SimConfig, mut Mutation, startSeed uint64, n int, derive func(uint64, SimConfig) Schedule) ExploreResult {
	var res ExploreResult
	for i := 0; i < n; i++ {
		seed := startSeed + uint64(i)
		sched := derive(seed, cfg)
		rep := RunSchedule(cfg, sched, mut)
		res.Runs++
		res.Retried += rep.Retried
		res.DedupHits += rep.DedupHits
		res.Pipelined += rep.Pipelined
		if rep.Failed() {
			res.Failures++
			if res.First == nil {
				res.First = &FailureReport{Report: rep, Minimal: Shrink(cfg, sched, mut)}
			}
		}
	}
	return res
}

// Shrink greedily removes perturbations from a failing schedule while it
// still fails, iterating to a fixpoint: the result is the minimal failing
// schedule (for this seed) to print in reports.
func Shrink(cfg SimConfig, sched Schedule, mut Mutation) Schedule {
	if !RunSchedule(cfg, sched, mut).Failed() {
		return sched // not actually failing; nothing to shrink
	}
	cur := sched
	for {
		removed := false
		for i := 0; i < len(cur.Perturbs); i++ {
			cand := Schedule{Seed: cur.Seed}
			cand.Perturbs = append(cand.Perturbs, cur.Perturbs[:i]...)
			cand.Perturbs = append(cand.Perturbs, cur.Perturbs[i+1:]...)
			if RunSchedule(cfg, cand, mut).Failed() {
				cur = cand
				removed = true
				break
			}
		}
		if !removed {
			return cur
		}
	}
}

// newScheduleRNG isolates schedule derivation from the simulation's own
// RNG stream so the two never correlate.
func newScheduleRNG(seed uint64) *scheduleRNG {
	return &scheduleRNG{s: seed ^ 0xD1B54A32D192ED03}
}

// scheduleRNG is a tiny splitmix64 stream, deliberately separate from
// stats.RNG so changes to one cannot silently reshuffle the other's
// schedules.
type scheduleRNG struct{ s uint64 }

func (r *scheduleRNG) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *scheduleRNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Uint64() % n
}

func (r *scheduleRNG) Intn(n int) int { return int(r.Uint64n(uint64(n))) }
