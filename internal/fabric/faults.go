package fabric

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"flock/internal/stats"
)

// AnyNode is a wildcard for LinkFault selectors: a fault whose Src or Dst
// is AnyNode matches every source or destination node.
const AnyNode NodeID = -1

// FaultPlan describes deterministic fault injection for connected (RC)
// traffic and payload corruption, extending the fabric's UD-only loss
// model. Two fabrics given equal plans (and equal traffic) inject equal
// faults: all randomness comes from the plan's own seeded generator, and
// link flap schedules are counted in transmission attempts rather than
// wall-clock time, because the fabric carries no timing.
type FaultPlan struct {
	// Seed seeds the plan's fault generator, independently of the
	// fabric-wide Config.Seed used for UD loss.
	Seed uint64
	// RCLossProb is the per-attempt probability that one RC transmission
	// is lost in flight, forcing the requester NIC to retransmit.
	RCLossProb float64
	// CorruptProb is the per-attempt probability that payload bytes are
	// corrupted in flight. RC traffic is CRC-protected, so corruption is
	// detected and counts as loss (a retransmission); UD traffic carries
	// no end-to-end check and is delivered corrupted.
	CorruptProb float64
	// RCDelayProb is the per-attempt probability that an RC transmission
	// is delayed by RCDelay (default 10µs when zero), modelling congested
	// or degraded links.
	RCDelayProb float64
	RCDelay     time.Duration
	// Links are scheduled per-link (optionally per-QP) outage windows.
	Links []LinkFault
}

// LinkFault schedules a down window on a directed link. Because the fabric
// is purely functional, the schedule is counted in matching transmission
// attempts: the link carries DownAfter attempts, is down for the next
// DownFor attempts (every attempt in the window is dropped), and then
// recovers. DownFor == 0 keeps the link down forever; Repeat restarts the
// cycle, flapping the link indefinitely.
type LinkFault struct {
	Src, Dst NodeID // AnyNode matches all nodes
	// QPN restricts the fault to transmissions from one source queue pair;
	// zero matches every QP on the link.
	QPN       int
	DownAfter uint64
	DownFor   uint64
	Repeat    bool
}

// linkFaultState is one scheduled fault plus its attempt counter.
type linkFaultState struct {
	LinkFault
	attempts uint64
}

func (s *linkFaultState) matches(src, dst NodeID, qpn int) bool {
	if s.Src != AnyNode && s.Src != src {
		return false
	}
	if s.Dst != AnyNode && s.Dst != dst {
		return false
	}
	return s.QPN == 0 || s.QPN == qpn
}

// step consumes one matching attempt and reports whether the link is down
// for it.
func (s *linkFaultState) step() bool {
	pos := s.attempts
	s.attempts++
	period := s.DownAfter + s.DownFor
	if s.Repeat && s.DownFor > 0 {
		pos %= period
	}
	if pos < s.DownAfter {
		return false
	}
	if s.DownFor == 0 {
		return true
	}
	return pos < period
}

// FaultStats counts injected faults fabric-wide.
type FaultStats struct {
	// RCDropped counts RC transmission attempts lost for any reason.
	RCDropped uint64
	// RCDelayed counts RC transmission attempts delayed.
	RCDelayed uint64
	// Corrupted counts corrupted payloads (RC: detected and dropped;
	// UD: delivered corrupted).
	Corrupted uint64
	// LinkDownDrops counts attempts dropped by link-down windows
	// (scheduled flaps and manual SetLinkDown).
	LinkDownDrops uint64
}

// SetFaultPlan installs (or, with nil, clears) the fault plan. Flap
// schedules restart from attempt zero. Safe to call while traffic flows —
// chaos harnesses retarget plans mid-run.
func (f *Fabric) SetFaultPlan(p *FaultPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.rearmLocked()
	if p == nil {
		f.plan = nil
		f.faults = nil
		f.faultRNG = nil
		return
	}
	cp := *p
	f.plan = &cp
	f.faultRNG = stats.NewRNG(cp.Seed)
	f.faults = f.faults[:0]
	for _, lf := range cp.Links {
		f.faults = append(f.faults, &linkFaultState{LinkFault: lf})
	}
}

// rearmLocked recomputes armed after an installer changed the fault state.
// Caller holds f.mu.
func (f *Fabric) rearmLocked() {
	f.armed.Store(f.plan != nil || len(f.faults) > 0 || len(f.manualDown) > 0)
}

// AddLinkFault appends one scheduled link fault to the active plan,
// creating an empty plan if none is installed.
func (f *Fabric) AddLinkFault(lf LinkFault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plan == nil {
		f.plan = &FaultPlan{}
		f.faultRNG = stats.NewRNG(0)
	}
	f.faults = append(f.faults, &linkFaultState{LinkFault: lf})
	f.rearmLocked()
}

// ClearLinkFaults removes all scheduled link faults, keeping the rest of
// the plan (loss/corruption/delay probabilities) in force.
func (f *Fabric) ClearLinkFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
	f.rearmLocked()
}

// SetLinkDown forces the directed link src → dst down (or back up) until
// changed, independent of any scheduled faults.
func (f *Fabric) SetLinkDown(src, dst NodeID, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.manualDown == nil {
		f.manualDown = make(map[linkKey]bool)
	}
	if down {
		f.manualDown[linkKey{src, dst}] = true
	} else {
		delete(f.manualDown, linkKey{src, dst})
	}
	f.rearmLocked()
}

// Cut reports whether traffic between a and b is cut for good in either
// direction: the link is forced down by SetLinkDown, or a whole-link fault
// that never recovers (DownFor 0, any QP) has started dropping on it. A
// finite or flapping window is not a cut, nor is a fault on one QP.
func (f *Fabric) Cut(a, b NodeID) bool {
	if !f.armed.Load() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.manualDown[linkKey{a, b}] || f.manualDown[linkKey{b, a}] {
		return true
	}
	for _, s := range f.faults {
		if s.QPN == 0 && s.DownFor == 0 && s.attempts > s.DownAfter &&
			(s.matches(a, b, 0) || s.matches(b, a, 0)) {
			return true
		}
	}
	return false
}

// FaultCounters returns a copy of the fault-injection counters.
func (f *Fabric) FaultCounters() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fstats
}

// FaultRC judges one transmission attempt of an RC work request from src
// (source queue pair qpn) to dst. It returns whether the attempt is lost —
// forcing the requester NIC to retransmit — and any injected delay the
// requester NIC should hold the work request for. Link-down windows, random loss, and detected
// corruption (RC CRCs turn corruption into loss) all count as drops. An
// unarmed fabric answers at once, with no lock and no draw.
func (f *Fabric) FaultRC(src, dst NodeID, qpn int) (drop bool, delay time.Duration) {
	if !f.armed.Load() {
		return false, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed.Load() {
		return false, 0
	}
	if f.stepLinkFaultsLocked(src, dst, qpn) {
		f.fstats.LinkDownDrops++
		drop = true
	} else if f.plan != nil {
		if f.plan.RCLossProb > 0 && f.faultRNG.Float64() < f.plan.RCLossProb {
			drop = true
		} else if f.plan.CorruptProb > 0 && f.faultRNG.Float64() < f.plan.CorruptProb {
			f.fstats.Corrupted++
			drop = true
		}
	}
	if drop {
		f.fstats.RCDropped++
		f.linkLocked(src, dst).dropped.Add(1)
	}
	if f.plan != nil && f.plan.RCDelayProb > 0 && f.faultRNG.Float64() < f.plan.RCDelayProb {
		delay = f.plan.RCDelay
		if delay <= 0 {
			delay = 10 * time.Microsecond
		}
		f.fstats.RCDelayed++
	}
	return drop, delay
}

// MangleUD decides whether a UD payload is corrupted in flight and, if so,
// returns a corrupted copy (the caller's buffer is never touched — it may
// be application memory captured inline). UD has no end-to-end integrity
// check in this model, so the corruption reaches the receiver.
func (f *Fabric) MangleUD(src, dst NodeID, payload []byte) ([]byte, bool) {
	if !f.armed.Load() {
		return payload, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plan == nil || f.plan.CorruptProb <= 0 || len(payload) == 0 {
		return payload, false
	}
	if f.faultRNG.Float64() >= f.plan.CorruptProb {
		return payload, false
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	out[f.faultRNG.Intn(len(out))] ^= 0xff
	f.fstats.Corrupted++
	return out, true
}

// stepLinkFaultsLocked reports whether a link-down condition applies to
// the attempt, advancing matching flap schedules. Caller holds f.mu.
func (f *Fabric) stepLinkFaultsLocked(src, dst NodeID, qpn int) bool {
	down := f.manualDown[linkKey{src, dst}]
	for _, s := range f.faults {
		if s.matches(src, dst, qpn) && s.step() {
			down = true
		}
	}
	return down
}

// ParseFaultPlan parses the compact key=value spec accepted by flockload's
// -faults flag, e.g. "seed=7,rc-loss=0.01,flap=3".
//
//	seed=N        fault generator seed
//	rc-loss=P     per-attempt RC loss probability
//	corrupt=P     per-attempt corruption probability
//	delay=P       per-attempt RC delay probability
//	delay-us=N    injected delay in microseconds (default 10)
//	flap=QPN      flap the given source QP on every link (repeating)
//	flap-after=N  attempts carried before each down window (default 256)
//	flap-for=N    attempts each down window lasts (default 32)
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	flapQP := 0
	flapAfter, flapFor := uint64(256), uint64(32)
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fabric: fault spec %q: want key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "rc-loss":
			p.RCLossProb, err = strconv.ParseFloat(v, 64)
		case "corrupt":
			p.CorruptProb, err = strconv.ParseFloat(v, 64)
		case "delay":
			p.RCDelayProb, err = strconv.ParseFloat(v, 64)
		case "delay-us":
			var us uint64
			us, err = strconv.ParseUint(v, 10, 32)
			p.RCDelay = time.Duration(us) * time.Microsecond
		case "flap":
			flapQP, err = strconv.Atoi(v)
		case "flap-after":
			flapAfter, err = strconv.ParseUint(v, 10, 64)
		case "flap-for":
			flapFor, err = strconv.ParseUint(v, 10, 64)
		default:
			return nil, fmt.Errorf("fabric: unknown fault key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fabric: fault key %q: %v", k, err)
		}
	}
	if flapQP > 0 {
		p.Links = append(p.Links, LinkFault{
			Src: AnyNode, Dst: AnyNode, QPN: flapQP,
			DownAfter: flapAfter, DownFor: flapFor, Repeat: true,
		})
	}
	return p, nil
}
