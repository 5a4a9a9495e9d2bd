package resilience

// Detector is a deterministic consecutive-miss failure detector: the
// accrual logic cluster membership runs per member on top of its ping
// RPCs. Observe feeds it one probe outcome at a time; the state walks
// Live → Suspect → Dead as misses accumulate and snaps back to Live on
// any success (a rejoining member is trusted immediately — the shard
// rebalance, not the detector, is what takes time). It has no clock and
// no goroutines, so membership tests drive it tick by tick.
type Detector struct {
	misses int
	state  MemberState
}

// The consecutive-miss thresholds: a member is suspect after suspectMisses
// unanswered probes in a row and dead after deadMisses.
const (
	suspectMisses = 2
	deadMisses    = 4
)

// MemberState is the detector's verdict on one member.
type MemberState int32

const (
	// MemberLive: probes are answered; route to it.
	MemberLive MemberState = iota
	// MemberSuspect: recent probes missed; keep routing but prepare to
	// fail over.
	MemberSuspect
	// MemberDead: the miss budget is exhausted; route around it and
	// rebalance its shards away.
	MemberDead
	// MemberDraining: the member answered with a drain pushback — it is
	// healthy but refusing new work (planned decommission).
	MemberDraining
)

func (s MemberState) String() string {
	switch s {
	case MemberLive:
		return "live"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	case MemberDraining:
		return "draining"
	}
	return "unknown"
}

// Observe feeds one probe outcome and returns the resulting state. A
// success resets the miss count and revives even a dead member; a miss
// advances the Live → Suspect → Dead walk.
func (d *Detector) Observe(ok bool) MemberState {
	if ok {
		d.misses = 0
		d.state = MemberLive
		return d.state
	}
	d.misses++
	switch {
	case d.misses >= deadMisses:
		d.state = MemberDead
	case d.misses >= suspectMisses:
		d.state = MemberSuspect
	default:
		d.state = MemberLive
	}
	return d.state
}

// ObserveDraining records a drain pushback: the member is reachable, so
// the miss count resets, but it is advertising a planned decommission.
func (d *Detector) ObserveDraining() MemberState {
	d.misses = 0
	d.state = MemberDraining
	return d.state
}

// State returns the current verdict without feeding an observation.
func (d *Detector) State() MemberState { return d.state }

// Misses returns the current consecutive-miss count.
func (d *Detector) Misses() int { return d.misses }
