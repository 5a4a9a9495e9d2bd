package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/resilience"
)

// scriptedProbe is a Probe transport for virtual-clock tests: per-member
// health toggled by the test, no RPCs, no deadlines, no wall time. It
// counts probe rounds: a round is counted when its probe of `last`, the
// member ProbeOnce visits last, returns — by then every earlier member of
// the round has been probed and its detector updated.
type scriptedProbe struct {
	mu     sync.Mutex
	down   map[fabric.NodeID]bool
	drng   map[fabric.NodeID]bool
	last   fabric.NodeID
	rounds int
}

func (p *scriptedProbe) roundsDone() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rounds
}

func (p *scriptedProbe) set(id fabric.NodeID, down bool) {
	p.mu.Lock()
	p.down[id] = down
	p.mu.Unlock()
}

func (p *scriptedProbe) probe(id fabric.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id == p.last {
		p.rounds++
	}
	if p.down[id] {
		return errors.New("scripted: down")
	}
	if p.drng[id] {
		return core.ErrDraining
	}
	return nil
}

// TestMembershipEscalatesOnVirtualClock is the deflaked replacement for
// ticker-driven detector tests: Start runs on a SimClock, the probe
// transport is scripted, and the suspect → dead escalation that costs
// real seconds on a wall ticker happens in zero wall time, bit-identical
// under -race.
//
// The escalation is asserted on an exact number of missed rounds. Ticks
// come only from Advance and each tick's send blocks until the consumer
// goroutine accepts it, so Advance(n intervals) starts exactly n rounds;
// advance then waits until the nth has probed its last member. The script
// is flipped, and state read, only for members 0 and 1, which every round
// is done with by then — member 2 is the round marker and stays healthy —
// and no further round can start before the next Advance. (The earlier
// form advanced n+1 ticks to be sure n rounds had finished; between a
// flip and the assertion after it 2 to 4 rounds could then miss, and 4 is
// the dead threshold: "after 2 missed rounds: dead, want suspect", 2 of 40 runs
// under -race on a loaded box.)
func TestMembershipEscalatesOnVirtualClock(t *testing.T) {
	lc := newCluster(t, 3, 8, 0, 2)
	probe := &scriptedProbe{down: map[fabric.NodeID]bool{}, drng: map[fabric.NodeID]bool{}, last: 2}
	clk := NewSimClock()
	lc.mems.clock = clk
	lc.mems.probeFn = probe.probe

	const interval = 50 * time.Millisecond
	advance := func(rounds int) {
		t.Helper()
		want := probe.roundsDone() + rounds
		clk.Advance(time.Duration(rounds) * interval)
		for deadline := time.Now().Add(10 * time.Second); probe.roundsDone() != want; time.Sleep(100 * time.Microsecond) {
			if got := probe.roundsDone(); got > want || time.Now().After(deadline) {
				t.Fatalf("%d probe rounds done, want exactly %d", got, want)
			}
		}
	}
	lc.mems.Start(interval)
	defer lc.mems.Stop()

	advance(2)
	if st := lc.mems.State(1); st != resilience.MemberLive {
		t.Fatalf("healthy member probes as %v", st)
	}

	// Down: the detector walks live → suspect → dead over missed rounds.
	probe.set(1, true)
	advance(2)
	if st := lc.mems.State(1); st != resilience.MemberSuspect {
		t.Fatalf("after 2 missed rounds: %v, want suspect", st)
	}
	advance(6)
	if st := lc.mems.State(1); st != resilience.MemberDead {
		t.Fatalf("after 8 missed rounds: %v, want dead", st)
	}
	if live := lc.mems.Live(); len(live) != 2 {
		t.Fatalf("live set with one dead member = %v", live)
	}

	// Draining pushback is not death.
	probe.mu.Lock()
	probe.drng[0] = true
	probe.mu.Unlock()
	advance(1)
	if st := lc.mems.State(0); st != resilience.MemberDraining {
		t.Fatalf("draining member probes as %v", st)
	}

	// Revival: one good probe round flips a dead member back to live.
	probe.set(1, false)
	advance(1)
	if st := lc.mems.State(1); st != resilience.MemberLive {
		t.Fatalf("revived member probes as %v", st)
	}
}

// TestMembershipOnChangeVirtualClock: state transitions fan out exactly
// once per change, in probe order, on the virtual timeline.
func TestMembershipOnChangeVirtualClock(t *testing.T) {
	lc := newCluster(t, 2, 8, 0, 2)
	probe := &scriptedProbe{down: map[fabric.NodeID]bool{}, drng: map[fabric.NodeID]bool{}}
	clk := NewSimClock()
	lc.mems.clock = clk
	lc.mems.probeFn = probe.probe

	var mu sync.Mutex
	transitions := []resilience.MemberState{}
	lc.mems.onChange = func(id fabric.NodeID, st resilience.MemberState) {
		if id != 1 {
			return
		}
		mu.Lock()
		transitions = append(transitions, st)
		mu.Unlock()
	}

	const interval = time.Millisecond
	lc.mems.Start(interval)
	probe.set(1, true)
	clk.Advance(12 * interval)
	lc.mems.Stop() // consumer stopped: transitions is stable to read

	want := []resilience.MemberState{resilience.MemberSuspect, resilience.MemberDead}
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i, st := range want {
		if transitions[i] != st {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], st)
		}
	}
}
