// Package cluster is the placement layer: it assigns key shards to
// nodes with a versioned, epoch-stamped shard map, routes client calls
// by key, tracks membership with a lightweight ping protocol, and moves
// shards between live nodes without stopping the service.
//
// The map is the unit of agreement. Every member and every router holds
// a *ShardMap; any reply from a cluster service piggybacks the serving
// node's map epoch, and a request that lands on a node that no longer
// (or does not yet) own the key's shard is NACKed with StatusWrongShard
// and the server's full encoded map, so clients self-correct without a
// metadata service in the data path. Map distribution is eventual:
// epochs only increase, and a node installs a received map only when
// its epoch is newer than the one it holds.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"flock/internal/fabric"
)

// Migration is one planned shard move, as PlanRebalance lists them. A
// move in progress needs no record of its own in the map: its target is
// one more backup of the shard until the handoff epoch makes it primary.
type Migration struct {
	Shard int
	From  fabric.NodeID
	To    fabric.NodeID
}

// ShardMap is one version of the cluster's placement. It is immutable
// once published: mutations (Rebalance planning, handoff, failover)
// return a new map with a bumped epoch.
type ShardMap struct {
	// Epoch is the map version. Strictly increasing across publishes;
	// receivers install a map only if its epoch is newer.
	Epoch uint64
	// Shards is the number of key shards; ShardOf hashes keys into
	// [0, Shards).
	Shards int
	// VNodes is the number of virtual ring points per member used by the
	// consistent-hash placement (more vnodes → smoother balance).
	VNodes int
	// Replicas is the configured backup count per shard (R), the size
	// Repair restores a shard's backup set to. Zero is an unreplicated
	// map. Surgery on one shard's replica set never changes it.
	Replicas int
	// Members is the known member set, sorted by NodeID. Membership in
	// this list does not imply liveness — routing consults the failure
	// detector — but only members can own shards.
	Members []fabric.NodeID
	// Table maps shard → primary member. It is explicit rather than
	// recomputed from the ring so that migrations move exactly one shard
	// per handoff and old maps decode to exactly the placement they
	// described.
	Table []fabric.NodeID
	// Backups maps shard → its backup set (members distinct from the
	// primary and each other), one entry per shard, nil for a shard with
	// none. A shard may hold fewer than Replicas backups after a failover
	// until a Repair recruits replacements, and one more while it is
	// being moved: the move's target is recruited as a backup first.
	Backups [][]fabric.NodeID
}

// DefaultVNodes is the ring-point count per member when the caller
// passes 0.
const DefaultVNodes = 16

// New builds the epoch-1 map for the given members, with each shard
// assigned by the consistent-hash ring. members must be non-empty;
// shards must be positive.
func New(members []fabric.NodeID, shards, vnodes int) (*ShardMap, error) {
	return NewReplicated(members, shards, vnodes, 0)
}

// NewReplicated is New with a per-shard replica set: each shard gets a
// primary (Table) plus up to `replicas` backups drawn from the ring
// successors after the primary. replicas is clamped to len(members)-1 —
// a replica set never holds the same member twice.
func NewReplicated(members []fabric.NodeID, shards, vnodes, replicas int) (*ShardMap, error) {
	if len(members) == 0 {
		return nil, errors.New("cluster: no members")
	}
	if shards <= 0 {
		return nil, errors.New("cluster: shards must be positive")
	}
	if replicas < 0 {
		return nil, errors.New("cluster: negative replica count")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if replicas > len(members)-1 {
		replicas = len(members) - 1
	}
	ms := append([]fabric.NodeID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			return nil, fmt.Errorf("cluster: duplicate member %d", ms[i])
		}
	}
	m := &ShardMap{Epoch: 1, Shards: shards, VNodes: vnodes, Replicas: replicas, Members: ms}
	m.Table = m.DesiredTable(ms)
	m.Backups = m.DesiredBackups(ms, m.Table)
	return m, nil
}

// ShardOf hashes a key into its shard.
func (m *ShardMap) ShardOf(key uint64) int {
	return int(mix(key) % uint64(m.Shards))
}

// Owner returns the member currently owning (serving as primary for)
// shard.
func (m *ShardMap) Owner(shard int) fabric.NodeID { return m.Table[shard] }

// OwnerOfKey is Owner(ShardOf(key)).
func (m *ShardMap) OwnerOfKey(key uint64) fabric.NodeID {
	return m.Table[m.ShardOf(key)]
}

// BackupsOf returns shard's backup set (nil when it has none). The
// returned slice is the map's own — callers must not mutate it.
func (m *ShardMap) BackupsOf(shard int) []fabric.NodeID { return m.Backups[shard] }

// ReplicaSet returns shard's full replica set, primary first.
func (m *ShardMap) ReplicaSet(shard int) []fabric.NodeID {
	out := make([]fabric.NodeID, 0, 1+len(m.BackupsOf(shard)))
	out = append(out, m.Table[shard])
	return append(out, m.BackupsOf(shard)...)
}

// IsReplica reports whether id is in shard's replica set (primary or
// backup).
func (m *ShardMap) IsReplica(shard int, id fabric.NodeID) bool {
	if m.Table[shard] == id {
		return true
	}
	return m.IsBackup(shard, id)
}

// IsBackup reports whether id is one of shard's backups.
func (m *ShardMap) IsBackup(shard int, id fabric.NodeID) bool {
	for _, b := range m.BackupsOf(shard) {
		if b == id {
			return true
		}
	}
	return false
}

// ShardsOwnedBy lists the shards Table assigns to id.
func (m *ShardMap) ShardsOwnedBy(id fabric.NodeID) []int {
	var out []int
	for s, owner := range m.Table {
		if owner == id {
			out = append(out, s)
		}
	}
	return out
}

// Clone returns a deep copy (for building the next epoch).
func (m *ShardMap) Clone() *ShardMap {
	c := *m
	c.Members = append([]fabric.NodeID(nil), m.Members...)
	c.Table = append([]fabric.NodeID(nil), m.Table...)
	c.Backups = make([][]fabric.NodeID, len(m.Backups))
	for s, bs := range m.Backups {
		c.Backups[s] = append([]fabric.NodeID(nil), bs...) // nil stays nil
	}
	return &c
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	hash  uint64
	owner fabric.NodeID
}

// buildRing constructs the sorted consistent-hash ring over the
// candidate owners. Equal hashes (possible in principle, and easy to
// construct in tests) tie-break by owner ID so the ring order — and
// therefore every placement derived from it — is deterministic in the
// candidate *set*, independent of the argument order.
func buildRing(candidates []fabric.NodeID, vnodes int) []ringPoint {
	ring := make([]ringPoint, 0, len(candidates)*vnodes)
	for _, id := range candidates {
		for v := 0; v < vnodes; v++ {
			h := mix(uint64(id)<<20 ^ uint64(v)<<1 ^ 0xF10C)
			ring = append(ring, ringPoint{hash: h, owner: id})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].owner < ring[j].owner
	})
	return ring
}

// ringIndex returns the index of the first ring point at or clockwise
// after shard's hash point (wrapping past the end).
func ringIndex(ring []ringPoint, shard int) int {
	h := mix(uint64(shard) ^ 0x5AAD)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if i == len(ring) {
		i = 0
	}
	return i
}

// ringSuccessors walks the ring clockwise from shard's point and
// returns the first n *distinct* owners. n larger than the distinct
// owner count returns them all.
func ringSuccessors(ring []ringPoint, shard, n int) []fabric.NodeID {
	var out []fabric.NodeID
	start := ringIndex(ring, shard)
	for i := 0; i < len(ring) && len(out) < n; i++ {
		owner := ring[(start+i)%len(ring)].owner
		seen := false
		for _, id := range out {
			if id == owner {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, owner)
		}
	}
	return out
}

// DesiredTable computes the ring placement of every shard over the
// given candidate owners (typically the live member subset). It is
// deterministic in the candidate set and independent of the current
// Table, so two nodes with the same view plan the same placement.
func (m *ShardMap) DesiredTable(candidates []fabric.NodeID) []fabric.NodeID {
	ring := buildRing(candidates, m.VNodes)
	table := make([]fabric.NodeID, m.Shards)
	for s := range table {
		table[s] = ring[ringIndex(ring, s)].owner
	}
	return table
}

// DesiredBackups computes each shard's backup set over the candidates:
// up to m.Replicas distinct ring successors after the shard's primary
// (as given in table). Like DesiredTable it is deterministic in the
// candidate set, so every node with the same view plans the same
// replica sets.
func (m *ShardMap) DesiredBackups(candidates []fabric.NodeID, table []fabric.NodeID) [][]fabric.NodeID {
	ring := buildRing(candidates, m.VNodes)
	backups := make([][]fabric.NodeID, m.Shards)
	for s := range backups {
		for _, id := range ringSuccessors(ring, s, m.Replicas+1) {
			if id == table[s] {
				continue
			}
			if len(backups[s]) == m.Replicas {
				break
			}
			backups[s] = append(backups[s], id)
		}
	}
	return backups
}

// PlanRebalance diffs the current Table against the ring placement over
// the live candidate set and returns the migrations that would converge
// them, ordered by shard.
func (m *ShardMap) PlanRebalance(live []fabric.NodeID) []Migration {
	if len(live) == 0 {
		return nil
	}
	var plan []Migration
	for s, want := range m.DesiredTable(live) {
		if cur := m.Table[s]; cur != want {
			plan = append(plan, Migration{Shard: s, From: cur, To: want})
		}
	}
	return plan
}

// WithHandoff returns a new map (epoch+1) with shard's ownership
// flipped to `to`. The new primary leaves the backup set (a member
// appears at most once in a replica set): a target recruited for the
// move takes the old primary's place and the set is its configured size
// again; a handoff to a standing backup leaves the shard one backup
// short until a Repair recruits a replacement.
func (m *ShardMap) WithHandoff(shard int, to fabric.NodeID) *ShardMap {
	c := m.Clone()
	c.Epoch++
	c.Table[shard] = to
	c.Backups[shard] = dropNode(c.Backups[shard], to)
	return c
}

// dropNode removes id from ids in place, returning nil when the result
// is empty (canonical form for wire round-trips).
func dropNode(ids []fabric.NodeID, id fabric.NodeID) []fabric.NodeID {
	keep := ids[:0]
	for _, b := range ids {
		if b != id {
			keep = append(keep, b)
		}
	}
	if len(keep) == 0 {
		return nil
	}
	return keep
}

// WithBackup returns a new map (epoch+1) with `to` appended to shard's
// backup set. It is the map half of recruitment: once the primary
// serves under it, every put is replicated to the recruit before it is
// acknowledged, so the snapshot copy that follows only has to deliver
// the prefix. Recruits go last, so WithFailover's first-live-backup
// rule prefers every backup that was complete before them. Replicas is
// left alone: a move's target is one backup more than R for as long as
// the move takes.
func (m *ShardMap) WithBackup(shard int, to fabric.NodeID) (*ShardMap, error) {
	if m.IsReplica(shard, to) {
		return nil, fmt.Errorf("cluster: %d already a replica of shard %d", to, shard)
	}
	c := m.Clone()
	c.Epoch++
	c.Backups[shard] = append(c.Backups[shard], to)
	return c, nil
}

// WithoutBackup returns a new map (epoch+1) with `id` dropped from
// shard's backup set: a recruit whose copy failed is released again, so
// the primary stops owing it acks.
func (m *ShardMap) WithoutBackup(shard int, id fabric.NodeID) *ShardMap {
	c := m.Clone()
	c.Epoch++
	c.Backups[shard] = dropNode(c.Backups[shard], id)
	return c
}

// ReplacementBackup picks the member Repair should recruit into shard's
// replica set: the first ring successor over the live candidates that
// is neither the primary nor already a backup. Returns -1 when every
// live member is already in the replica set.
func (m *ShardMap) ReplacementBackup(shard int, live []fabric.NodeID) fabric.NodeID {
	ring := buildRing(live, m.VNodes)
	if len(ring) == 0 {
		return -1
	}
	for _, id := range ringSuccessors(ring, shard, len(live)) {
		if id != m.Table[shard] && !m.IsBackup(shard, id) {
			return id
		}
	}
	return -1
}

// WithFailover returns a new map (epoch+1) that routes around a dead
// member with no data loss where replicas allow it: every shard whose
// primary is dead promotes its first live backup (synchronous
// replication guarantees the backup holds every acknowledged write),
// and dead is pruned from every backup set. A shard with no live backup
// falls back to the ring placement over live — the unreplicated
// route-around, data abandoned. promoted counts backup promotions,
// rerouted the fallback reassignments.
func (m *ShardMap) WithFailover(dead fabric.NodeID, live []fabric.NodeID) (c *ShardMap, promoted, rerouted int) {
	c = m.Clone()
	c.Epoch++
	liveSet := make(map[fabric.NodeID]bool, len(live))
	for _, id := range live {
		liveSet[id] = true
	}
	var desired []fabric.NodeID // lazily computed fallback placement
	for s := 0; s < c.Shards; s++ {
		c.Backups[s] = dropNode(c.Backups[s], dead)
		if c.Table[s] != dead {
			continue
		}
		next := fabric.NodeID(-1)
		for _, b := range c.BackupsOf(s) {
			if liveSet[b] {
				next = b
				break
			}
		}
		if next >= 0 {
			c.Table[s] = next
			c.Backups[s] = dropNode(c.Backups[s], next)
			promoted++
			continue
		}
		if len(live) == 0 {
			continue // nobody to promote or reroute to; shard stays dark
		}
		if desired == nil {
			desired = m.DesiredTable(live)
		}
		c.Table[s] = desired[s]
		rerouted++
	}
	return c, promoted, rerouted
}

// mix is splitmix64's finalizer: the key/ring hash.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
