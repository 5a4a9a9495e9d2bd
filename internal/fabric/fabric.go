// Package fabric provides the in-process network substrate connecting
// software RNICs (package rnic). It plays the role of the paper's 100 Gbps
// switched network: it routes traffic between nodes, accounts per-link
// packets and bytes, and injects loss for unreliable (UD) traffic so that
// software-reliability baselines have something real to recover from.
//
// The fabric is purely functional: it carries no timing. Virtual-time
// behaviour (bandwidth, propagation delay, queueing) belongs to the
// discrete-event models in internal/model; the functional tier needs only
// correct delivery semantics.
//
// Every work request of every device in the process consults the fabric —
// an endpoint lookup, a wire charge, a fault verdict — so those paths take
// no process-wide lock unless faults are injected: endpoints and links are
// copy-on-write snapshots, link counters are atomics, and an unarmed fabric
// (no fault plan, no link fault, no link forced down) answers FaultRC, and
// DropUD/MangleUD when UD loss is off too, from one atomic flag.
package fabric

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"flock/internal/stats"
)

// NodeID identifies a node (machine) on the fabric.
type NodeID int

// Endpoint is anything attachable to the fabric; in practice an
// *rnic.Device.
type Endpoint interface {
	// Node returns the endpoint's fabric address.
	Node() NodeID
}

// LinkStats accumulates traffic counters for one directed (src → dst) link.
type LinkStats struct {
	Packets uint64
	Bytes   uint64
	Dropped uint64
}

// Config controls fabric-wide behaviour.
type Config struct {
	// UDLossProb is the probability that an unreliable-datagram packet is
	// silently dropped in flight. RC/UC traffic is never dropped (the
	// paper's RC reliability is hardware-provided; UC loss is possible on
	// real fabrics but both the paper and we exercise loss only on UD).
	UDLossProb float64
	// Seed seeds the fabric's loss generator; runs with equal seeds drop
	// the same packets.
	Seed uint64
	// MTU is the wire maximum transmission unit in bytes. Messages larger
	// than the MTU are carried as multiple packets for accounting
	// purposes. Zero means the default of 4096 (the paper's setting).
	MTU int
}

// DefaultMTU matches the MTU used across all nodes in the paper's
// evaluation (§8.1).
const DefaultMTU = 4096

// Fabric connects endpoints. Safe for concurrent use.
//
// mu serializes what changes the fabric — registration, a link's first
// traffic, every fault installer — and guards the fault state and the UD
// loss generator. Lookup, ChargeTX, Link and Totals never take it; FaultRC,
// DropUD and MangleUD take it only while the fabric is armed (or, for
// DropUD, UD loss is on), and then draw from the generators exactly as
// they always have, so a seeded chaos run replays.
type Fabric struct {
	cfg Config

	mu        sync.Mutex
	endpoints atomic.Pointer[map[NodeID]Endpoint] // copy-on-write under mu
	links     atomic.Pointer[map[linkKey]*linkCounters]
	rng       *stats.RNG

	// Fault injection (faults.go). plan and faultRNG are nil until
	// SetFaultPlan installs a plan; manualDown holds links forced down via
	// SetLinkDown. armed is whether any of plan, faults or manualDown is
	// set; every installer recomputes it under mu.
	plan       *FaultPlan
	faultRNG   *stats.RNG
	faults     []*linkFaultState
	manualDown map[linkKey]bool
	fstats     FaultStats
	armed      atomic.Bool
}

type linkKey struct {
	src, dst NodeID
}

// linkCounters is the live form of one link's LinkStats.
type linkCounters struct {
	packets, bytes, dropped atomic.Uint64
}

// New creates an empty fabric.
func New(cfg Config) *Fabric {
	if cfg.MTU <= 0 {
		cfg.MTU = DefaultMTU
	}
	f := &Fabric{
		cfg: cfg,
		rng: stats.NewRNG(cfg.Seed),
	}
	eps := map[NodeID]Endpoint{}
	links := map[linkKey]*linkCounters{}
	f.endpoints.Store(&eps)
	f.links.Store(&links)
	return f
}

// MTU reports the fabric MTU.
func (f *Fabric) MTU() int { return f.cfg.MTU }

// Register attaches ep to the fabric. Registering two endpoints with the
// same NodeID is a configuration error and returns one.
func (f *Fabric) Register(ep Endpoint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := ep.Node()
	old := *f.endpoints.Load()
	if _, dup := old[id]; dup {
		return fmt.Errorf("fabric: node %d already registered", id)
	}
	eps := maps.Clone(old)
	eps[id] = ep
	f.endpoints.Store(&eps)
	return nil
}

// Unregister detaches the endpoint with the given id, if present.
func (f *Fabric) Unregister(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.endpoints.Load()
	if _, ok := old[id]; !ok {
		return
	}
	eps := maps.Clone(old)
	delete(eps, id)
	f.endpoints.Store(&eps)
}

// Lookup returns the endpoint registered at id, or nil.
func (f *Fabric) Lookup(id NodeID) Endpoint { return (*f.endpoints.Load())[id] }

// Nodes returns the number of registered endpoints.
func (f *Fabric) Nodes() int { return len(*f.endpoints.Load()) }

// ChargeTX records len bytes of payload moving src → dst and returns the
// number of wire packets it occupies (⌈bytes/MTU⌉, minimum 1 — even a
// zero-byte message consumes a packet of headers).
func (f *Fabric) ChargeTX(src, dst NodeID, bytes int) int {
	pkts := (bytes + f.cfg.MTU - 1) / f.cfg.MTU
	if pkts < 1 {
		pkts = 1
	}
	lc := f.link(src, dst)
	lc.packets.Add(uint64(pkts))
	lc.bytes.Add(uint64(bytes))
	return pkts
}

// DropUD decides whether an unreliable datagram from src to dst is lost in
// flight, recording the drop if so.
func (f *Fabric) DropUD(src, dst NodeID) bool {
	if !f.armed.Load() && f.cfg.UDLossProb <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Link-down windows drop datagrams too: a flapped link carries nothing.
	if (len(f.faults) > 0 || len(f.manualDown) > 0) && f.stepLinkFaultsLocked(src, dst, 0) {
		f.fstats.LinkDownDrops++
		f.linkLocked(src, dst).dropped.Add(1)
		return true
	}
	if f.cfg.UDLossProb <= 0 {
		return false
	}
	if f.rng.Float64() >= f.cfg.UDLossProb {
		return false
	}
	f.linkLocked(src, dst).dropped.Add(1)
	return true
}

// link returns the counters of (src, dst). A link's first traffic creates
// them: the table is copied under mu with the new link added and the copy
// published, so later lookups read it with no lock.
func (f *Fabric) link(src, dst NodeID) *linkCounters {
	if lc := (*f.links.Load())[linkKey{src, dst}]; lc != nil {
		return lc
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.linkLocked(src, dst)
}

// linkLocked is link for a caller that holds mu.
func (f *Fabric) linkLocked(src, dst NodeID) *linkCounters {
	k := linkKey{src, dst}
	old := *f.links.Load()
	if lc := old[k]; lc != nil {
		return lc
	}
	links := maps.Clone(old)
	lc := &linkCounters{}
	links[k] = lc
	f.links.Store(&links)
	return lc
}

// stats copies the counters into a LinkStats.
func (lc *linkCounters) stats() LinkStats {
	return LinkStats{Packets: lc.packets.Load(), Bytes: lc.bytes.Load(), Dropped: lc.dropped.Load()}
}

// Link returns a copy of the traffic counters for the directed link
// src → dst. A link with no traffic reports zeros.
func (f *Fabric) Link(src, dst NodeID) LinkStats {
	if lc := (*f.links.Load())[linkKey{src, dst}]; lc != nil {
		return lc.stats()
	}
	return LinkStats{}
}

// Totals sums the traffic counters across all links.
func (f *Fabric) Totals() LinkStats {
	var t LinkStats
	for _, lc := range *f.links.Load() {
		ls := lc.stats()
		t.Packets += ls.Packets
		t.Bytes += ls.Bytes
		t.Dropped += ls.Dropped
	}
	return t
}
