package cluster

import (
	"context"
	"fmt"
	"time"

	"flock/internal/fabric"
)

// Coordinator drives placement changes: it owns the authoritative map,
// composes every change from two member-side primitives (install a map
// under a shard's exclusive lock, copy a shard to a recruited backup), and
// pushes new epochs to the services and any registered routers. It is
// an in-process control plane — the paper's out-of-band configuration
// service, like the Network bootstrap — while every byte of shard data
// moves over the fault-injectable RPC fabric.
//
// There is one way to make another member hold a shard, and a move is
// that followed by a promotion (recruit → copy → handoff):
//
//  1. recruit: epoch E+1 adds the target to the shard's backup set
//     (WithBackup). The primary installs it under the shard's exclusive
//     lock — every put it admits from then on is group-committed to the
//     target before it is acknowledged, and no put admitted under E is
//     still in flight — then everyone else hears of it.
//  2. copy: the primary streams its snapshot to the target in FRP2
//     frames, retried through fault windows. If it fails, epoch E+2 drops
//     the recruit again (WithoutBackup) and the move is off.
//  3. handoff: epoch E+2 makes the target primary (WithHandoff). The old
//     primary installs it first, again under the exclusive lock — from
//     that instant it NACKs WrongShard with the new map, and everything
//     it ever acknowledged is on the target — then everyone else does.
//
// Repair is step 1 + 2 for a shard short of backups; a move to a member
// that is already a backup is step 3 alone. Snapshot frames and racing
// replication batches commute because applies take the per-key maximum.
// The source dying mid-move is an ordinary failover: nothing but the map
// knows the move was happening.
type Coordinator struct {
	services map[fabric.NodeID]*Service
	routers  []*Router
	cur      *ShardMap
}

// copyDeadline bounds one shard's snapshot copy.
const copyDeadline = 10 * time.Second

// NewCoordinator builds a coordinator over the initial map.
func NewCoordinator(initial *ShardMap) *Coordinator {
	return &Coordinator{
		services: make(map[fabric.NodeID]*Service),
		cur:      initial,
	}
}

// AddService registers a member's service with the control plane.
func (c *Coordinator) AddService(s *Service) { c.services[s.Node().ID()] = s }

// AddRouter registers a router to receive map pushes. Routers converge
// without this (piggybacks and NACKs carry the map), but pushing spares
// the first few redirects after each epoch.
func (c *Coordinator) AddRouter(r *Router) { c.routers = append(c.routers, r) }

// Map returns the authoritative map.
func (c *Coordinator) Map() *ShardMap { return c.cur }

func (c *Coordinator) publish(m *ShardMap) {
	c.cur = m
	for _, s := range c.services {
		s.InstallMap(m)
	}
	for _, r := range c.routers {
		r.Install(m)
	}
}

// recruit makes `to` a backup of shard and fills it: the widened replica
// set goes to the primary first, under the shard's exclusive lock, so
// every write the snapshot scan can miss is one the replication stream
// carries; then to everyone; then the snapshot is copied. If the copy
// fails the recruit is dropped again under a new epoch — left in the
// set, every later put on the shard would owe an ack to a member that
// may be unreachable, until a failover pruned it.
func (c *Coordinator) recruit(shard int, to fabric.NodeID) error {
	primary := c.cur.Owner(shard)
	src, ok := c.services[primary]
	if !ok {
		return fmt.Errorf("cluster: no service for primary %d", primary)
	}
	next, err := c.cur.WithBackup(shard, to)
	if err != nil {
		return err
	}
	src.installUnder(shard, next)
	c.publish(next)
	if err := src.CopyShardTo(shard, to, time.Now().Add(copyDeadline)); err != nil {
		c.publish(c.cur.WithoutBackup(shard, to))
		return err
	}
	return nil
}

// MigrateShard moves one shard from its current owner to `to`,
// copying the data live: recruit `to` as a backup (unless it is one
// already), then hand the shard over. The coordinator must not be called
// concurrently with itself.
func (c *Coordinator) MigrateShard(shard int, to fabric.NodeID) error {
	from := c.cur.Owner(shard)
	if from == to {
		return nil
	}
	src, ok := c.services[from]
	if !ok {
		return fmt.Errorf("cluster: no service for source %d", from)
	}
	if _, ok := c.services[to]; !ok {
		return fmt.Errorf("cluster: no service for target %d", to)
	}
	start := time.Now()
	if !c.cur.IsBackup(shard, to) {
		if err := c.recruit(shard, to); err != nil {
			return err
		}
	}
	handoff := c.cur.WithHandoff(shard, to)
	// Source first: it must stop serving (and start NACKing with the
	// new map) before anyone else treats the target as the owner.
	src.installUnder(shard, handoff)
	c.publish(handoff)
	src.moves.Inc()
	src.migDur.Observe(uint64(time.Since(start).Nanoseconds()))
	return nil
}

// FailOver handles a dead member: every shard it primaried is promoted to a
// surviving backup (epoch bump, no copy — the backup already holds every
// acknowledged write, that is what the sync-forward ACK rule bought), and
// the dead node is pruned from every remaining backup set so primaries stop
// blocking on forwards to it. A shard with no surviving backup — every shard
// of an unreplicated map — is routed around instead: reassigned to the ring
// placement over live, its data abandoned with the node (it re-syncs by
// migration if it rejoins).
// Publication order mirrors MigrateShard's handoff: each new primary
// installs first, under the shard's exclusive lock, then the map goes
// out to everyone else; in between, stale routers that still
// hit the dead node fail over via the detector path, and deposed-
// primary forwards are fenced by the replication epoch check. Returns
// how many shards changed primary.
func (c *Coordinator) FailOver(dead fabric.NodeID, live []fabric.NodeID) (int, error) {
	next, promoted, rerouted := c.cur.WithFailover(dead, live)
	if promoted+rerouted == 0 {
		return 0, nil
	}
	for s, owner := range next.Table {
		if c.cur.Table[s] == owner {
			continue
		}
		if svc, ok := c.services[owner]; ok {
			svc.installUnder(s, next)
			svc.promotions.Inc()
		}
	}
	c.publish(next)
	if rerouted > 0 && promoted == 0 && next.Replicas > 0 {
		// Shards with no surviving backup fell back to ring placement —
		// their data is gone with the node. A map that promises replicas
		// broke the promise, and callers that require the durability contract
		// treat this as an error; an unreplicated map promised nothing.
		return promoted, fmt.Errorf("cluster: %d shard(s) failed over without a backup", rerouted)
	}
	return promoted, nil
}

// Repair restores replication factor after a failover: every shard
// whose backup set is short of the map's replica count recruits the next
// ring successor (see recruit). Returns how many backups were recruited.
func (c *Coordinator) Repair(live []fabric.NodeID) (int, error) {
	recruited := 0
	for shard := 0; shard < c.cur.Shards; shard++ {
		for len(c.cur.BackupsOf(shard)) < c.cur.Replicas {
			cand := c.cur.ReplacementBackup(shard, live)
			if cand < 0 {
				break // nobody left to recruit for this shard
			}
			if err := c.recruit(shard, cand); err != nil {
				return recruited, err
			}
			recruited++
		}
	}
	return recruited, nil
}

// Rebalance converges the map towards the ring placement over the live
// member set, migrating (with copy) from live sources and failing over
// dead ones: a dead member's shards go to their surviving backups, not to
// the ring placement — a member that was never a backup holds none of the
// data — and the next Rebalance moves them on from there. Returns how many
// shards moved.
func (c *Coordinator) Rebalance(live []fabric.NodeID) (int, error) {
	liveSet := make(map[fabric.NodeID]bool, len(live))
	for _, id := range live {
		liveSet[id] = true
	}
	moves := 0
	for _, mig := range c.cur.PlanRebalance(live) {
		if !liveSet[mig.From] {
			if _, err := c.FailOver(mig.From, live); err != nil {
				return moves, err
			}
			moves++
			continue
		}
		if err := c.MigrateShard(mig.Shard, mig.To); err != nil {
			return moves, err
		}
		moves++
	}
	return moves, nil
}

// Decommission drains a member gracefully: every shard it owns is
// migrated (live, with copy) to the ring placement over the remaining
// members, and only then is the node drained — a draining node can
// neither serve nor send, so the copy must finish first. This is the
// planned-maintenance path; Node.Resume plus a Rebalance over the full
// member set brings it back.
func (c *Coordinator) Decommission(ctx context.Context, id fabric.NodeID) error {
	svc, ok := c.services[id]
	if !ok {
		return fmt.Errorf("cluster: no service for member %d", id)
	}
	var rest []fabric.NodeID
	for _, m := range c.cur.Members {
		if m != id {
			rest = append(rest, m)
		}
	}
	if len(rest) == 0 {
		return fmt.Errorf("cluster: cannot decommission the last member")
	}
	desired := c.cur.DesiredTable(rest)
	for _, shard := range c.cur.ShardsOwnedBy(id) {
		if err := c.MigrateShard(shard, desired[shard]); err != nil {
			return err
		}
	}
	return svc.Node().Drain(ctx)
}
