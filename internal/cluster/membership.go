package cluster

import (
	"errors"
	"sync"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/resilience"
	"flock/internal/telemetry"
)

// Membership runs the failure detector over the router's member set:
// one lightweight ping RPC per member per probe round, fed into a
// per-member resilience.Detector. A drain pushback (ErrDraining) marks
// the member draining rather than suspect — it is healthy, just
// refusing work.
//
// Probing is pull-based and explicit: ProbeOnce runs one deterministic
// round (tests drive it tick by tick), Start runs rounds on a ticker.
type Membership struct {
	r *Router

	// ProbeTimeout bounds one ping (default 50ms).
	ProbeTimeout time.Duration

	// Test hooks, set before probing starts. clock is the timebase Start
	// ticks on (a SimClock runs suspect/dead escalation on virtual time).
	// probeFn, when non-nil, replaces the RPC ping for a single member
	// probe — nil counts as healthy, core.ErrDraining as draining, any
	// other error as a miss — so a test scripts link state without paying
	// the RPC deadline a downed fabric link costs. onChange, when non-nil,
	// is called (outside Membership's lock) for every state transition.
	clock    Clock
	probeFn  func(id fabric.NodeID) error
	onChange func(id fabric.NodeID, state resilience.MemberState)

	mu   sync.Mutex
	dets map[fabric.NodeID]*resilience.Detector

	// probeMu makes probes take turns on threads: rounds may overlap (Start's
	// ticker, a caller's ProbeOnce), a core.Thread may not.
	probeMu sync.Mutex
	threads *peerThreads

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	suspects *telemetry.Counter
}

// NewMembership builds the detector set over the router's current map
// members, attaches itself to the router (so routing steers around
// dead/draining members), and registers cluster.member_suspects and
// cluster.live_members on the router node's telemetry registry.
func NewMembership(r *Router) *Membership {
	m := &Membership{
		r:        r,
		clock:    wallClock{},
		dets:     make(map[fabric.NodeID]*resilience.Detector),
		threads:  r.peers.newThreads(),
		stop:     make(chan struct{}),
		suspects: r.Node().Telemetry().Counter("cluster.member_suspects"),
	}
	for _, id := range r.Map().Members {
		m.dets[id] = new(resilience.Detector)
	}
	r.Node().Telemetry().GaugeFunc("cluster.live_members", func() int64 {
		n := int64(0)
		m.mu.Lock()
		for _, d := range m.dets {
			if d.State() == resilience.MemberLive {
				n++
			}
		}
		m.mu.Unlock()
		return n
	})
	r.attachMembership(m)
	return m
}

// State returns the detector's verdict for one member; unknown members
// read as live.
func (m *Membership) State(id fabric.NodeID) resilience.MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.dets[id]; ok {
		return d.State()
	}
	return resilience.MemberLive
}

// Live returns the members currently considered routable (live or
// suspect — suspects still get traffic; only dead/draining are
// avoided), sorted by NodeID.
func (m *Membership) Live() []fabric.NodeID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []fabric.NodeID
	for _, id := range m.r.Map().Members {
		d := m.dets[id]
		if d == nil || d.State() == resilience.MemberLive || d.State() == resilience.MemberSuspect {
			out = append(out, id)
		}
	}
	return out
}

func (m *Membership) probeTimeout() time.Duration {
	if m.ProbeTimeout > 0 {
		return m.ProbeTimeout
	}
	return 50 * time.Millisecond
}

// probe runs one member's health check: the injected probeFn when set,
// otherwise one RPCPing — one attempt — under the probe deadline; the
// detector's rounds are the retry loop. A handle that died for good (a long
// outage exhausted its recovery) is dropped, so the next round re-dials — a
// dead member must be able to come back.
func (m *Membership) probe(id fabric.NodeID) error {
	if m.probeFn != nil {
		return m.probeFn(id)
	}
	m.probeMu.Lock()
	defer m.probeMu.Unlock()
	th, err := m.threads.thread(id)
	if err != nil {
		return err
	}
	resp, err := th.CallWithDeadline(RPCPing, nil, m.probeTimeout())
	m.threads.noteErr(id, err)
	resp.Release()
	return err
}

// ProbeOnce pings every member once and returns the post-round states.
// It is the deterministic unit Start loops over.
func (m *Membership) ProbeOnce() map[fabric.NodeID]resilience.MemberState {
	type change struct {
		id    fabric.NodeID
		state resilience.MemberState
	}
	var changes []change
	out := make(map[fabric.NodeID]resilience.MemberState)
	for _, id := range m.r.Map().Members {
		var next resilience.MemberState
		err := m.probe(id)
		m.mu.Lock()
		d := m.dets[id]
		if d == nil {
			d = new(resilience.Detector)
			m.dets[id] = d
		}
		prev := d.State()
		switch {
		case err == nil:
			next = d.Observe(true)
		case errors.Is(err, core.ErrDraining):
			next = d.ObserveDraining()
		default:
			next = d.Observe(false)
		}
		m.mu.Unlock()
		out[id] = next
		if next != prev {
			if next == resilience.MemberSuspect || next == resilience.MemberDead {
				m.suspects.Inc()
			}
			changes = append(changes, change{id, next})
		}
	}
	for _, c := range changes {
		if m.onChange != nil {
			m.onChange(c.id, c.state)
		}
	}
	return out
}

// Start probes on the given interval until Stop.
func (m *Membership) Start(interval time.Duration) {
	ticks, stopTicks := m.clock.Ticker(interval)
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer stopTicks()
		for {
			select {
			case <-m.stop:
				return
			case <-ticks:
				m.ProbeOnce()
			}
		}
	}()
}

// Stop halts probing (idempotent).
func (m *Membership) Stop() {
	m.once.Do(func() { close(m.stop) })
	m.wg.Wait()
}
