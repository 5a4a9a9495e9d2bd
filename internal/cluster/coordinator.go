package cluster

import (
	"context"
	"fmt"
	"time"

	"flock/internal/fabric"
)

// Coordinator drives placement changes: it owns the authoritative map,
// executes the migration state machine against member Services, and
// pushes new epochs to the services and any registered routers. It is
// an in-process control plane — the paper's out-of-band configuration
// service, like the Network bootstrap — while every byte of shard data
// moves over the fault-injectable RPC fabric.
//
// Migration state machine for one shard (freeze → copy → forward →
// handoff):
//
//  1. publish epoch E+1 with the move in Pending (dual-write window
//     opens conceptually; routers may learn early, ownership unchanged)
//  2. source BeginMigration: forwards every subsequent put to the
//     target (chunk-of-one RPCMigrate, guarded apply)
//  3. source CopyShard: snapshot scan streamed as bulk chunks; retried
//     through fault windows
//  4. handoff: source CompleteMigration installs epoch E+2 (Table flips
//     to target) atomically with forward-off under the shard's lock —
//     from that instant the source NACKs WrongShard with the new map —
//     then the target and remaining members install E+2
//
// Writes dual-applied in step 2-3 commute with snapshot chunks because
// applies take the per-key maximum, so no ordering between scan and
// forward matters.
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

// MigrateShard moves one shard from its current owner to `to`,
// copying the data live. The coordinator must not be called
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
	mig := Migration{Shard: shard, From: from, To: to}
	pendingMap := c.cur.WithPending(mig)

	if err := src.BeginMigration(shard, to); err != nil {
		return err
	}
	c.publish(pendingMap)

	if err := src.CopyShard(shard, time.Now().Add(copyDeadline)); err != nil {
		// Abort: drop the pending entry, keep ownership at the source.
		revert := pendingMap.Clone()
		revert.Epoch++
		revert.Pending = nil
		src.AbortMigration(shard, revert)
		c.publish(revert)
		return err
	}

	handoff := pendingMap.WithHandoff(shard, to)
	// Source first: it must stop serving (and start NACKing with the
	// new map) before anyone else treats the target as the owner.
	src.CompleteMigration(shard, handoff)
	c.publish(handoff)
	return nil
}

// FailOver handles a dead member on a replicated map: every shard it
// primaried is promoted to a surviving backup (epoch bump, no copy —
// the backup already holds every acknowledged write, that is what the
// sync-forward ACK rule bought), and the dead node is pruned from every
// remaining backup set so primaries stop blocking on forwards to it.
// Publication order mirrors MigrateShard's handoff: each new primary
// Promotes first (install under the shard's exclusive lock), then the
// map goes out to everyone else; in between, stale routers that still
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
			svc.Promote(s, next)
		}
	}
	c.publish(next)
	if rerouted > 0 && promoted == 0 {
		// Shards with no surviving backup fell back to ring placement —
		// their data is gone with the node. Callers that require the
		// durability contract treat this as an error.
		return promoted, fmt.Errorf("cluster: %d shard(s) failed over without a backup", rerouted)
	}
	return promoted, nil
}

// Repair restores replication factor after a failover: for every shard
// whose backup set is short of the map's replica count, it recruits the
// next ring successor, publishes the widened replica set (so writes
// start forwarding to the recruit immediately), then snapshot-streams
// the shard into it. Guarded applies make the stream and the racing
// forwards commute. Returns how many backups were recruited.
func (c *Coordinator) Repair(live []fabric.NodeID) (int, error) {
	recruited := 0
	for shard := 0; shard < c.cur.Shards; shard++ {
		for len(c.cur.BackupsOf(shard)) < c.cur.Replicas {
			primary := c.cur.Owner(shard)
			cand := c.cur.ReplacementBackup(shard, live)
			if cand == primary || cand < 0 {
				break // nobody left to recruit for this shard
			}
			next, err := c.cur.WithBackup(shard, cand)
			if err != nil {
				return recruited, err
			}
			src, ok := c.services[primary]
			if !ok {
				return recruited, fmt.Errorf("cluster: no service for primary %d", primary)
			}
			c.publish(next)
			if err := src.CopyShardTo(shard, cand, time.Now().Add(copyDeadline)); err != nil {
				return recruited, err
			}
			recruited++
		}
	}
	return recruited, nil
}

// RouteAround reassigns every shard owned by `from` without copying —
// the move for a member the detector declared dead. Data on the dead
// member is abandoned (it re-syncs by migration if it rejoins); the
// epoch bump makes every router stop sending there.
func (c *Coordinator) RouteAround(from fabric.NodeID, live []fabric.NodeID) error {
	if len(live) == 0 {
		return fmt.Errorf("cluster: no live members to route around %d", from)
	}
	desired := c.cur.DesiredTable(live)
	next := c.cur.Clone()
	next.Epoch++
	moved := false
	for s, owner := range next.Table {
		if owner == from {
			next.Table[s] = desired[s]
			moved = true
		}
	}
	if !moved {
		return nil
	}
	c.publish(next)
	return nil
}

// Rebalance converges the map towards the ring placement over the live
// member set, migrating (with copy) from live sources and routing
// around dead ones. Returns how many shards moved.
func (c *Coordinator) Rebalance(live []fabric.NodeID) (int, error) {
	liveSet := make(map[fabric.NodeID]bool, len(live))
	for _, id := range live {
		liveSet[id] = true
	}
	moves := 0
	for _, mig := range c.cur.PlanRebalance(live) {
		if !liveSet[mig.From] {
			if err := c.RouteAround(mig.From, live); err != nil {
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
