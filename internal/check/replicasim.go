package check

import (
	"fmt"
	"sort"

	"flock/internal/sim"
)

// The replica simulator: a deterministic, RPC-level model of the cluster
// layer (internal/cluster) — epoch-stamped shard maps, redirect-following
// clients, per-shard primary–backup replication, failover, and planned
// shard moves — driven by the same seed-derived schedule machinery as
// the other pools. It models exactly the interleavings that matter for
// the durability promise a synchronous-replication ACK makes — the apply
// → forward → backup-ack → client-ack chain, a primary killed anywhere
// inside it, the epoch-bump promotion that follows, and a shard changing
// primary on purpose while traffic flows — and nothing below: the wire
// is a flat latency plus drop windows.
//
// The protocol rules mirror the real service:
//
//   - Single authority: a shard is served by exactly the node whose own
//     map lists it as primary. The MutStaleShardServe mutant breaks this
//     (a node keeps serving every shard it ever owned) and only shows
//     when a shard moves.
//   - Group-commit ACK rule: a put is acknowledged only after the key's
//     current entry is applied at every backup the primary's own map
//     lists for the shard. Acked therefore implies every backup holds
//     the write (or a newer one for the same key), which is what makes
//     promotion lossless. Forwards ride per-(shard, backup) replication
//     logs: puts gather for a flush window and one multi-entry frame
//     carries them all (mirroring the real group-commit forwarder), so
//     a kill can land between a put's enqueue and its batch's flush —
//     the window the ack-before-batch-durable mutant exploits. (The real
//     service keeps one stream per backup set, shared by every shard its
//     primary serves under that set, and sends each frame — the puts of
//     all those shards — to every backup of the set. The model still has
//     one log per (shard, backup): independent logs admit every schedule
//     the shared stream can produce, and more, but the model has drifted
//     from the code here, and running the seed pools against the real
//     Service is what removes the drift.)
//   - Failure detection and failover: a killed node is noticed after a
//     detect delay; the world (standing in for the coordinator) bumps
//     the epoch, promotes each affected shard's first live backup, and
//     prunes the dead node from every backup set. New primaries install
//     the map immediately (the Promote path), other live members after
//     a propagation gap, clients via reply piggybacks and WrongShard
//     payloads only.
//   - Pending re-evaluation: a primary blocked on a dead backup's ack
//     is released when it installs a map that no longer lists that
//     backup — the liveness half of the ACK rule.
//   - A planned move is a recruit followed by a promotion, as in
//     Coordinator.MigrateShard: the world publishes a view with the
//     target appended to the shard's backups, the primary installing it
//     first, so every put admitted from then on owes the target an ack;
//     the primary copies a snapshot of its entries and memo to the
//     target in reliable chunks; when the last chunk is acked it stops
//     admitting the shard (arrivals park, as on the real shard lock),
//     waits for its pending puts on the shard to resolve, and installs
//     the handoff view, from which moment it NACKs WrongShard; the new
//     primary installs after the install gap — stretched by handoff-
//     delay perturbations, the window in which nobody serves and clients
//     bounce — and bystanders later still. A move whose source or target
//     dies is dropped by the failover that follows: the recruit leaves
//     the backup set again, and nothing else knew of the move.
//   - Exactly-once: applied put op-IDs go into a per-shard memo that
//     rides every replication forward and every snapshot, so a retry of
//     an applied-but-unacked put is deduplicated on whichever replica
//     serves it after a failover or a move. A memo hit still re-runs the ACK rule against the
//     key's current entry before replying — replying from the memo
//     alone would promise durability a second failover could break.
//
// Under those rules every completed history is an exact linearizable
// register per key even with primaries dying mid-traffic, so
// RunReplicaSchedule checks RegisterModel for the kv workload (and the
// per-op EchoModel for the stateless echo workload, which exercises the
// routing/failover machinery without replication). The
// MutAckBeforeReplicate mutant acks after the local apply and forwards
// lazily; a kill inside that window loses an acknowledged write and the
// checker must catch it.

const (
	// replicaService is the server-side delay between apply (or
	// replication completion) and the reply hitting the wire.
	replicaService = sim.Microsecond
	// replicaThink separates a client's operations.
	replicaThink = sim.Microsecond
	// replicaNackBackoff is the client's pause after a wrong-shard
	// bounce.
	replicaNackBackoff = 2 * sim.Microsecond
	// replicaRetransmit paces replication-forward retransmission.
	replicaRetransmit = 5 * sim.Microsecond
	// replicaMutLazyDelay is how long the ack-before-replicate mutant
	// sits on a forward after acking — the asynchrony that makes the
	// premature ack a lie worth catching.
	replicaMutLazyDelay = 4 * sim.Microsecond
	// replicaFlushDelay is the group-commit gather window: a put joining
	// an empty (shard, backup) replication log arms a flush this far
	// out, and every put arriving inside the window rides the same
	// frame. It is also the ack-before-batch-durable mutant's kill
	// window — the time an acked-but-unflushed write sits exposed.
	replicaFlushDelay = 3 * sim.Microsecond
	// replicaMaxBatch caps entries per simulated forward frame (the
	// FlushEntries knob's stand-in).
	replicaMaxBatch = 8
	// replicaMoveShard is the shard the planned moves move. Its initial
	// primary is node 0, which is why MigrationScheduleFromSeed's
	// guaranteed flap targets node 0: the flap hits the copy path, not
	// just client traffic.
	replicaMoveShard = 0
	// replicaSnapshotChunk is the entry count of one snapshot chunk.
	replicaSnapshotChunk = 4
)

// ReplicaSimConfig sizes one simulated replicated-cluster run. Zero
// values take defaults.
type ReplicaSimConfig struct {
	Nodes        int // cluster members (default 4)
	Shards       int // shard count (default 8); key k lives in shard k % Shards
	Replicas     int // backups per shard (default 2, clamped to Nodes-1)
	Clients      int // concurrent clients (default 4)
	OpsPerClient int // sequential ops per client (default 40)
	Keys         int // key-space size (default 12)
	Attempts     int // attempts per op before it goes pending (default 6)
	Migrations   int // planned moves of replicaMoveShard spread over the horizon (default none)

	// Echo switches the workload to stateless echo ops checked against
	// the per-op EchoModel (default: kv puts/gets against RegisterModel).
	Echo bool

	AttemptTimeout sim.Time // per-attempt deadline (default 20µs)
	DetectDelay    sim.Time // kill → failover delay (default 6µs)
	InstallGap     sim.Time // failover → bystander install gap (default 3µs)
}

func (c ReplicaSimConfig) withDefaults() ReplicaSimConfig {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > c.Nodes-1 {
		c.Replicas = c.Nodes - 1
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 40
	}
	if c.Keys <= 0 {
		c.Keys = 12
	}
	if c.Attempts <= 0 {
		c.Attempts = 6
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 20 * sim.Microsecond
	}
	if c.DetectDelay <= 0 {
		c.DetectDelay = 6 * sim.Microsecond
	}
	if c.InstallGap <= 0 {
		c.InstallGap = 3 * sim.Microsecond
	}
	return c
}

func replicaHorizon(cfg ReplicaSimConfig) sim.Time {
	return sim.Time(cfg.OpsPerClient) * (3 * simWireLatency)
}

// ReplicaScheduleFromSeed derives the replica-suite schedule for a
// seed: one guaranteed mid-window kill of node 0 — the initial primary
// of shard 0, so acknowledged writes exist on both sides of the
// failover — plus 0–3 further kills, node flaps, and install delays.
// Like every other pool it is its own derivation with its own RNG salt,
// so existing pools keep replaying bit-identically.
func ReplicaScheduleFromSeed(seed uint64, cfg ReplicaSimConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := newScheduleRNG(seed ^ 0x0F10CC4EF11CA7E5)
	horizon := replicaHorizon(cfg)
	at := cfg.AttemptTimeout
	s := Schedule{Seed: seed, Perturbs: []Perturbation{{
		Kind: PerturbPrimaryKill,
		At:   horizon/4 + sim.Time(rng.Uint64n(uint64(horizon/2)+1)),
		QP:   0,
	}}}
	n := rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			// A second/third kill of a non-zero member: the promoted
			// replica set must survive repeated failovers.
			s.Perturbs = append(s.Perturbs, Perturbation{
				Kind: PerturbPrimaryKill,
				At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
				QP:   1 + rng.Intn(cfg.Nodes-1),
			})
		case 1:
			s.Perturbs = append(s.Perturbs, Perturbation{
				Kind: PerturbNodeFlap,
				At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
				QP:   rng.Intn(cfg.Nodes),
				Dur:  at/2 + sim.Time(rng.Uint64n(uint64(at)*2)),
			})
		default:
			s.Perturbs = append(s.Perturbs, Perturbation{
				Kind: PerturbHandoffDelay,
				At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
				Dur:  sim.Time(rng.Uint64n(uint64(at)*2) + 1),
			})
		}
	}
	return s
}

// MigrationScheduleFromSeed derives the move-suite schedule for a seed:
// one guaranteed flap of the moved shard's initial source (node 0, so the
// copy path itself rides through an outage) plus 0–4 further node flaps
// and handoff delays, and no kills. Its own derivation, its own salt.
func MigrationScheduleFromSeed(seed uint64, cfg ReplicaSimConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := newScheduleRNG(seed ^ 0x0F10CCC105E4D5EE)
	horizon := replicaHorizon(cfg)
	at := cfg.AttemptTimeout
	flap := func(node int) Perturbation {
		return Perturbation{
			Kind: PerturbNodeFlap,
			At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
			QP:   node,
			Dur:  at/2 + sim.Time(rng.Uint64n(uint64(at)*3)),
		}
	}
	s := Schedule{Seed: seed, Perturbs: []Perturbation{flap(replicaMoveShard % cfg.Nodes)}}
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Perturbs = append(s.Perturbs, flap(rng.Intn(cfg.Nodes)))
		} else {
			s.Perturbs = append(s.Perturbs, Perturbation{
				Kind: PerturbHandoffDelay,
				At:   sim.Time(rng.Uint64n(uint64(horizon) + 1)),
				Dur:  sim.Time(rng.Uint64n(uint64(at)*2) + 1),
			})
		}
	}
	return s
}

// replicaView is one immutable epoch-stamped map: table[s] is the
// primary (-1: dark, every replica died), backups[s] its backup set.
type replicaView struct {
	epoch   uint64
	table   []int
	backups [][]int
}

func (v *replicaView) hasBackup(s, id int) bool {
	for _, b := range v.backups[s] {
		if b == id {
			return true
		}
	}
	return false
}

// next returns the view one epoch on in which shard s has the given
// primary and backups and every other shard is as it was.
func (v *replicaView) next(s, primary int, backups []int) *replicaView {
	nv := &replicaView{
		epoch:   v.epoch + 1,
		table:   append([]int(nil), v.table...),
		backups: append([][]int(nil), v.backups...),
	}
	nv.table[s], nv.backups[s] = primary, backups
	return nv
}

// replicaEntry is one key's value with its per-key write version; the
// version orders a key's writes across replicas so reordered or
// retransmitted forwards cannot regress a backup.
type replicaEntry struct{ val, ver uint64 }

// clusterOpID uniquely names a client op; doubles as the put value so
// every written value is globally distinct (sharper for the checker).
func clusterOpID(client, idx int) uint64 {
	return uint64(client+1)<<32 | uint64(idx+1)
}

// replicaPend is one put blocked on the sync-forward ACK rule: the
// entry being replicated and the backups whose acks are still owed.
// Waiters are the client replies released when the set empties.
type replicaPend struct {
	shard   int
	key     uint64
	e       replicaEntry
	need    map[int]bool
	waiters []func()
}

type replicaWorld struct {
	cfg ReplicaSimConfig
	mut Mutation
	eng *sim.Engine
	rec *Recorder

	nodes   []*replicaNode
	clients []*replicaClient

	dead     []bool
	flaps    [][]Perturbation
	handoffs []Perturbation // install-delay perturbs, consumed in At order

	curView *replicaView
	// move is the planned move in progress (one at a time), nil otherwise.
	move *replicaMove

	failovers    int
	migrations   int
	movesDropped int
	forwards     int
	redirects    int
	flapDrops    int
	retried      int
	dedupHits    int
	batches      int
	multiBatches int
}

type replicaNode struct {
	w    *replicaWorld
	id   int
	view *replicaView

	data      []map[uint64]replicaEntry
	memo      []map[uint64]struct{}
	everOwned []bool
	pend      map[uint64]*replicaPend
	streams   map[replicaStreamKey]*replicaStream

	// closing is the shard this node is handing over (-1: none): its copy
	// is complete and arrivals for it park until the handoff view is in.
	closing int
	parked  []func()
}

type replicaClient struct {
	w    *replicaWorld
	id   int
	view *replicaView

	ops     []KVIn
	idx     int
	call    int64
	attempt int
	waiting bool
	done    bool
}

func newReplicaWorld(cfg ReplicaSimConfig, sched Schedule, mut Mutation) *replicaWorld {
	w := &replicaWorld{cfg: cfg, mut: mut, eng: sim.New(), rec: NewRecorder()}

	table := make([]int, cfg.Shards)
	backups := make([][]int, cfg.Shards)
	for s := range table {
		table[s] = s % cfg.Nodes
		for r := 1; r <= cfg.Replicas; r++ {
			backups[s] = append(backups[s], (s+r)%cfg.Nodes)
		}
	}
	w.curView = &replicaView{epoch: 1, table: table, backups: backups}

	w.dead = make([]bool, cfg.Nodes)
	w.flaps = make([][]Perturbation, cfg.Nodes)
	for _, p := range sched.Perturbs {
		switch p.Kind {
		case PerturbPrimaryKill:
			node := p.QP % cfg.Nodes
			at := p.At
			w.eng.At(at, func() { w.kill(node) })
		case PerturbNodeFlap:
			node := p.QP % cfg.Nodes
			w.flaps[node] = append(w.flaps[node], p)
		case PerturbHandoffDelay:
			w.handoffs = append(w.handoffs, p)
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		n := &replicaNode{
			w: w, id: i, view: w.curView, closing: -1,
			data:      make([]map[uint64]replicaEntry, cfg.Shards),
			memo:      make([]map[uint64]struct{}, cfg.Shards),
			everOwned: make([]bool, cfg.Shards),
			pend:      make(map[uint64]*replicaPend),
			streams:   make(map[replicaStreamKey]*replicaStream),
		}
		for s := range n.data {
			n.data[s] = make(map[uint64]replicaEntry)
			n.memo[s] = make(map[uint64]struct{})
			n.everOwned[s] = table[s] == i
		}
		w.nodes = append(w.nodes, n)
	}

	rng := newScheduleRNG(sched.Seed ^ 0x4EF11CA5EEDFA570)
	for c := 0; c < cfg.Clients; c++ {
		cl := &replicaClient{w: w, id: c, view: w.curView}
		for i := 0; i < cfg.OpsPerClient; i++ {
			in := KVIn{Key: uint64(rng.Intn(cfg.Keys))}
			if !cfg.Echo && rng.Intn(100) < 60 {
				in.Put = true
				in.Val = clusterOpID(c, i)
			}
			cl.ops = append(cl.ops, in)
		}
		w.clients = append(w.clients, cl)
		w.eng.At(sim.Time(rng.Uint64n(uint64(4*sim.Microsecond))), cl.next)
	}

	// Planned moves, drawn after everything else so a run without them
	// replays exactly as it did before they existed.
	horizon := replicaHorizon(cfg)
	for j := 0; j < cfg.Migrations; j++ {
		at := horizon*sim.Time(j+1)/sim.Time(cfg.Migrations+1) +
			sim.Time(rng.Uint64n(uint64(horizon/10)+1))
		w.eng.At(at, w.startMove)
	}
	return w
}

func (w *replicaWorld) flapped(node int) bool {
	if node < 0 {
		return false
	}
	now := w.eng.Now()
	for _, p := range w.flaps[node] {
		if now >= p.At && now < p.At+p.Dur {
			return true
		}
	}
	return false
}

// send puts fn on the wire. A dead or flapped endpoint drops the
// message silently (clients, id -1, never die or flap).
func (w *replicaWorld) send(from, to int, fn func()) {
	if from >= 0 && (w.dead[from] || w.flapped(from)) {
		w.flapDrops++
		return
	}
	w.eng.After(simWireLatency, func() {
		if to >= 0 && (w.dead[to] || w.flapped(to)) {
			w.flapDrops++
			return
		}
		fn()
	})
}

// --- kill & failover (the world stands in for detector + coordinator) ---

func (w *replicaWorld) kill(node int) {
	if w.dead[node] {
		return
	}
	w.dead[node] = true
	w.eng.After(w.cfg.DetectDelay, func() { w.failOver() })
}

// failOver publishes the post-death map: every shard primaried by a
// dead node promotes its first live backup (all backups hold every
// acknowledged write — the ACK rule — so any live one is lossless), and
// dead nodes leave every backup set, releasing primaries blocked on
// their acks. A shard whose whole replica set died goes dark (-1):
// clients' attempts there exhaust into pending ops. New primaries
// install immediately; other live members after the install gap.
func (w *replicaWorld) failOver() {
	old := w.curView
	table := append([]int(nil), old.table...)
	backups := make([][]int, w.cfg.Shards)
	changed := false
	for s := range table {
		for _, b := range old.backups[s] {
			if !w.dead[b] {
				backups[s] = append(backups[s], b)
			} else {
				changed = true
			}
		}
		if table[s] >= 0 && w.dead[table[s]] {
			changed = true
			if len(backups[s]) > 0 {
				table[s] = backups[s][0]
				backups[s] = append([]int(nil), backups[s][1:]...)
				w.failovers++
			} else {
				table[s] = -1 // dark: every replica died
			}
		}
	}
	if !changed {
		return
	}
	nv := &replicaView{epoch: old.epoch + 1, table: table, backups: backups}
	if mv := w.move; mv != nil && (w.dead[mv.src.id] || w.dead[mv.dst]) {
		// The copy cannot finish: the move is off and the recruit is no
		// backup (MigrateShard fails and drops it before FailOver runs).
		nv.backups[mv.shard] = dropInt(nv.backups[mv.shard], mv.dst)
		mv.src.closing, w.move = -1, nil
		w.movesDropped++
	}
	w.curView = nv
	for s, p := range nv.table {
		if p >= 0 && old.table[s] != p {
			w.nodes[p].install(nv) // Promote: new primary first
		}
	}
	gap := w.cfg.InstallGap + w.consumeInstallDelay()
	for i, n := range w.nodes {
		if !w.dead[i] {
			other := n
			w.eng.After(gap, func() { other.install(nv) })
		}
	}
}

// consumeInstallDelay takes the earliest matured install-delay
// perturbation, if any; each stretches exactly one failover's
// propagation.
func (w *replicaWorld) consumeInstallDelay() sim.Time {
	now := w.eng.Now()
	for i, p := range w.handoffs {
		if p.At <= now {
			w.handoffs = append(w.handoffs[:i], w.handoffs[i+1:]...)
			return p.Dur
		}
	}
	return 0
}

// --- planned move (the world stands in for Coordinator.MigrateShard) ---

// replicaMove is one planned move in progress.
type replicaMove struct {
	shard     int
	src       *replicaNode
	dst       int
	chunksOut int // snapshot chunks not yet acked
}

func dropInt(ids []int, id int) []int {
	var keep []int
	for _, b := range ids {
		if b != id {
			keep = append(keep, b)
		}
	}
	return keep
}

// startMove begins moving replicaMoveShard to the next live node outside
// its replica set: the recruit view goes to the primary at once and to
// the others after the install gap, and the primary starts its snapshot
// in the same event, so every entry is either in the snapshot or was
// admitted under the recruit view and owes the target an ack. One move at
// a time, and the source must hold the authoritative view first.
func (w *replicaWorld) startMove() {
	s := replicaMoveShard
	v := w.curView
	src := v.table[s]
	if src < 0 {
		return // dark shard: nothing to move
	}
	if w.move != nil || w.dead[src] || w.nodes[src].view != v {
		w.eng.After(replicaRetransmit, w.startMove)
		return
	}
	dst := -1
	for i := 1; i < w.cfg.Nodes && dst < 0; i++ {
		if c := (src + i) % w.cfg.Nodes; !w.dead[c] && !v.hasBackup(s, c) {
			dst = c
		}
	}
	if dst < 0 {
		return // every live node is already a replica
	}
	nv := v.next(s, src, append(append([]int(nil), v.backups[s]...), dst))
	w.curView = nv
	mv := &replicaMove{shard: s, src: w.nodes[src], dst: dst}
	w.move = mv
	mv.src.install(nv)
	for _, n := range w.nodes {
		if n != mv.src && !w.dead[n.id] {
			other := n
			w.eng.After(w.cfg.InstallGap, func() { other.install(nv) })
		}
	}
	mv.src.sendSnapshot(mv)
}

// sendSnapshot copies the shard's entries and dedup memo to the recruit
// in reliable chunks: each is retransmitted until its ack lands (flap
// windows just stretch the copy) or the move is dropped.
func (n *replicaNode) sendSnapshot(mv *replicaMove) {
	s := mv.shard
	// Deterministic snapshot: map iteration order is random, so sort.
	keys := make([]uint64, 0, len(n.data[s]))
	for k := range n.data[s] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	memo := make([]uint64, 0, len(n.memo[s]))
	for id := range n.memo[s] {
		memo = append(memo, id)
	}
	sort.Slice(memo, func(i, j int) bool { return memo[i] < memo[j] })

	type chunk struct {
		keys    []uint64
		entries []replicaEntry
		memo    []uint64
	}
	chunks := []chunk{{memo: memo}} // an empty shard still does the handshake
	for i, k := range keys {
		if i > 0 && i%replicaSnapshotChunk == 0 {
			chunks = append(chunks, chunk{})
		}
		c := &chunks[len(chunks)-1]
		c.keys, c.entries = append(c.keys, k), append(c.entries, n.data[s][k])
	}
	mv.chunksOut = len(chunks)
	w := n.w
	for _, c := range chunks {
		c, acked := c, false
		var xmit func()
		xmit = func() {
			if acked || w.move != mv {
				return
			}
			w.send(n.id, mv.dst, func() {
				dst := w.nodes[mv.dst]
				for i, k := range c.keys {
					dst.absorb(s, k, c.entries[i], 0)
				}
				for _, id := range c.memo {
					dst.memo[s][id] = struct{}{}
				}
				w.send(mv.dst, n.id, func() {
					if acked || w.move != mv {
						return
					}
					acked = true
					if mv.chunksOut--; mv.chunksOut == 0 {
						// Copy complete: stop admitting the shard; the
						// handoff follows once its pending puts resolved.
						n.closing = s
						n.tryHandoff()
					}
				})
			})
			w.eng.After(replicaRetransmit, xmit)
		}
		xmit()
	}
}

// tryHandoff runs when the copy completes and whenever a pending put of
// the closing shard resolves. With none left, everything this node ever
// acknowledged for the shard is on the target, and it installs the
// handoff view: target primary, itself out of the replica set. The target
// installs after the install gap plus any matured handoff delay; until
// then nobody serves the shard and clients bounce on WrongShard.
func (n *replicaNode) tryHandoff() {
	w := n.w
	mv := w.move
	if mv == nil || mv.src != n || n.closing != mv.shard {
		return
	}
	for _, rec := range n.pend {
		if rec.shard == mv.shard {
			return
		}
	}
	hv := w.curView.next(mv.shard, mv.dst, dropInt(w.curView.backups[mv.shard], mv.dst))
	w.curView, w.move = hv, nil // the next move waits for its source, the target, to install hv
	w.migrations++
	n.closing = -1
	n.install(hv)
	for _, admit := range n.parked {
		admit()
	}
	n.parked = nil
	gap := w.cfg.InstallGap + w.consumeInstallDelay()
	for _, o := range w.nodes {
		other, after := o, 2*gap
		if o.id == mv.dst {
			after = gap
		}
		if o != n && !w.dead[o.id] {
			w.eng.After(after, func() { other.install(hv) })
		}
	}
}

// --- client ---

func (c *replicaClient) payload(idx int) string {
	return fmt.Sprintf("c%d-%d", c.id, idx)
}

func (c *replicaClient) input(idx int) interface{} {
	if c.w.cfg.Echo {
		return EchoIn{Payload: c.payload(idx)}
	}
	return c.ops[idx]
}

func (c *replicaClient) next() {
	if c.idx >= len(c.ops) {
		c.done = true
		return
	}
	c.call = c.w.rec.Begin()
	c.attempt = 0
	c.issue(c.idx, c.ops[c.idx])
}

func (c *replicaClient) issue(idx int, in KVIn) {
	if idx != c.idx {
		return // a reply already finished this op
	}
	c.attempt++
	a := c.attempt
	if a > c.w.cfg.Attempts {
		// Ambiguous: some attempt may have applied (or a dark shard ate
		// them all). Record pending and move on.
		c.waiting = false
		c.w.rec.EndPending(c.id, c.call, c.input(idx))
		c.idx++
		c.w.eng.After(replicaThink, c.next)
		return
	}
	c.waiting = true
	shard := int(in.Key) % c.w.cfg.Shards
	owner := c.view.table[shard]
	if owner >= 0 {
		opID := clusterOpID(c.id, idx)
		n := c.w.nodes[owner]
		c.w.send(-1, owner, func() { n.handle(c, idx, a, in, opID) })
	}
	c.w.eng.After(c.w.cfg.AttemptTimeout, func() {
		if idx == c.idx && a == c.attempt && c.waiting {
			c.w.retried++
			c.issue(idx, in)
		}
	})
}

func (c *replicaClient) install(v *replicaView) {
	if v.epoch > c.view.epoch {
		c.view = v
	}
}

func (c *replicaClient) onReply(idx, attempt int, out interface{}, v *replicaView) {
	c.install(v)
	if idx != c.idx || attempt != c.attempt {
		return // stale: a later attempt owns this op now
	}
	c.waiting = false
	c.w.rec.End(c.id, c.call, c.input(idx), out)
	c.idx++
	c.w.eng.After(replicaThink, c.next)
}

func (c *replicaClient) onWrongShard(idx, attempt int, in KVIn, v *replicaView) {
	c.install(v)
	if idx != c.idx || attempt != c.attempt {
		return
	}
	c.waiting = false // kill the attempt's timeout; the bounce owns the retry
	c.w.redirects++
	c.w.eng.After(replicaNackBackoff, func() { c.issue(idx, in) })
}

// --- node ---

// serves reports whether this node is the shard's primary per its own
// map — the single-authority rule, unchanged by replication (backups
// hold data but never serve clients directly). The stale-serve mutant
// keeps answering for every shard the node ever owned — the handoff bug
// the rule exists to prevent.
func (n *replicaNode) serves(s int) bool {
	if n.view.table[s] == n.id {
		return true
	}
	return mutantOn(n.w.mut, MutStaleShardServe) && n.everOwned[s]
}

func (n *replicaNode) install(v *replicaView) {
	if v.epoch <= n.view.epoch {
		return
	}
	n.view = v
	for s, p := range v.table {
		if p == n.id {
			n.everOwned[s] = true
		}
	}
	// Re-evaluate every blocked put: backups the new map no longer lists
	// for the shard owe no ack.
	for opID, rec := range n.pend {
		for dst := range rec.need {
			if !v.hasBackup(rec.shard, dst) {
				delete(rec.need, dst)
			}
		}
		n.maybeComplete(opID, rec)
	}
}

func (n *replicaNode) handle(c *replicaClient, idx, attempt int, in KVIn, opID uint64) {
	s := int(in.Key) % n.w.cfg.Shards
	if s == n.closing {
		// Handing the shard over: the request waits, as on the real shard
		// lock, and is answered under the handoff view.
		n.parked = append(n.parked, func() { n.handle(c, idx, attempt, in, opID) })
		return
	}
	v := n.view
	if !n.serves(s) {
		n.w.send(n.id, -1, func() { c.onWrongShard(idx, attempt, in, v) })
		return
	}
	if n.w.cfg.Echo {
		out := EchoOut{Payload: c.payload(idx)}
		n.w.eng.After(replicaService, func() {
			n.w.send(n.id, -1, func() { c.onReply(idx, attempt, out, v) })
		})
		return
	}
	if !in.Put {
		e, ok := n.data[s][in.Key]
		out := KVOut{Val: e.val, Found: ok}
		reply := func() {
			n.w.eng.After(replicaService, func() {
				n.w.send(n.id, -1, func() { c.onReply(idx, attempt, out, v) })
			})
		}
		// Commit-gated read: the observed entry may belong to a put still
		// gathering in a replication log. Serving it immediately would let
		// a primary killed inside the flush window lose a value a client
		// already saw — the read, not the put's ack, becomes the broken
		// durability promise. So the reply joins every outstanding pend
		// for the key and fires only once none is owed a backup ack (the
		// same release — ack, or view-change pruning — that unblocks the
		// puts themselves). Joining all of them keeps the rule simple;
		// extra joins resolve no later than the one covering the observed
		// version.
		var join []*replicaPend
		for _, rec := range n.pend {
			if rec.shard == s && rec.key == in.Key {
				join = append(join, rec)
			}
		}
		if len(join) == 0 {
			reply()
			return
		}
		left := len(join)
		gate := func() {
			if left--; left == 0 {
				reply()
			}
		}
		for _, rec := range join {
			rec.waiters = append(rec.waiters, gate)
		}
		return
	}
	n.handlePut(c, idx, attempt, in, opID, s, v)
}

func (n *replicaNode) handlePut(c *replicaClient, idx, attempt int, in KVIn, opID uint64, s int, v *replicaView) {
	if _, dup := n.memo[s][opID]; !dup {
		n.data[s][in.Key] = replicaEntry{val: in.Val, ver: n.data[s][in.Key].ver + 1}
		n.memo[s][opID] = struct{}{}
	} else {
		n.w.dedupHits++
	}
	reply := func() {
		n.w.eng.After(replicaService, func() {
			n.w.send(n.id, -1, func() { c.onReply(idx, attempt, KVOut{}, v) })
		})
	}
	if mutantOn(n.w.mut, MutAckBeforeReplicate) {
		// The mutant: ack as soon as the local apply landed, replicate
		// whenever. The ack promises durability the backups don't have.
		reply()
		reply = nil
	}
	rec := n.pend[opID]
	fresh := rec == nil
	if fresh {
		// Replicate the key's CURRENT entry (this put's, or a newer one
		// that already superseded it — either discharges this put's
		// durability): all backups per our own map must ack before any
		// waiter is released. Memo hits re-run this too; answering from
		// the memo alone would skip the ACK rule a promotion relies on.
		rec = &replicaPend{shard: s, key: in.Key, e: n.data[s][in.Key], need: make(map[int]bool)}
		for _, b := range v.backups[s] {
			rec.need[b] = true
		}
		n.pend[opID] = rec
	}
	// The waiter joins before the forwards are enqueued: the
	// ack-before-batch-durable mutant forgives the whole need set during
	// the enqueue loop, and its premature ack must actually fire — a
	// waiter registered after the pend completed would silently never
	// resolve, turning the mutant into a liveness bug instead of the
	// durability lie the checker is meant to catch.
	if reply != nil {
		rec.waiters = append(rec.waiters, reply)
	}
	if fresh {
		lazy := sim.Time(0)
		if mutantOn(n.w.mut, MutAckBeforeReplicate) {
			lazy = replicaMutLazyDelay
		}
		for _, b := range v.backups[s] {
			dst := b
			if lazy > 0 {
				n.w.eng.After(lazy, func() { n.enqueueRepl(opID, rec, dst) })
			} else {
				n.enqueueRepl(opID, rec, dst)
			}
		}
	}
	n.maybeComplete(opID, rec)
}

// maybeComplete releases a blocked put once no backup ack is owed.
func (n *replicaNode) maybeComplete(opID uint64, rec *replicaPend) {
	if len(rec.need) > 0 || n.pend[opID] != rec {
		return
	}
	delete(n.pend, opID)
	for _, fire := range rec.waiters {
		fire()
	}
	rec.waiters = nil
	n.tryHandoff()
}

// replicaStreamKey identifies one (shard, backup) replication log.
type replicaStreamKey struct{ shard, dst int }

// replicaItem is one pending put riding a replication log.
type replicaItem struct {
	opID uint64
	rec  *replicaPend
}

// replicaStream models one (shard, backup) group-commit log: puts
// append, a flush timer gathers companions for replicaFlushDelay, and
// the flush transmits one multi-entry frame — the sim's mirror of the
// real forwarder goroutine in internal/cluster/groupcommit.go.
type replicaStream struct {
	n        *replicaNode
	shard    int
	dst      int
	queue    []replicaItem
	flushing bool
}

// enqueueRepl appends one put to the (shard, dst) replication log and
// arms the flush. Under the ack-before-batch-durable mutant the put's
// ack debt to dst is forgiven right here — before the batch carrying it
// ever flushes, which is exactly the lie the checker must catch.
func (n *replicaNode) enqueueRepl(opID uint64, rec *replicaPend, dst int) {
	k := replicaStreamKey{shard: rec.shard, dst: dst}
	st := n.streams[k]
	if st == nil {
		st = &replicaStream{n: n, shard: rec.shard, dst: dst}
		n.streams[k] = st
	}
	st.queue = append(st.queue, replicaItem{opID: opID, rec: rec})
	if mutantOn(n.w.mut, MutAckBeforeBatchDurable) {
		delete(rec.need, dst)
		n.maybeComplete(opID, rec)
	}
	st.arm()
}

func (st *replicaStream) arm() {
	if st.flushing || len(st.queue) == 0 {
		return
	}
	st.flushing = true
	st.n.w.eng.After(replicaFlushDelay, st.flush)
}

// flush cuts up to replicaMaxBatch queued puts into one frame and
// transmits it; a longer queue re-arms for the remainder.
func (st *replicaStream) flush() {
	st.flushing = false
	if len(st.queue) == 0 {
		return
	}
	w := st.n.w
	cut := len(st.queue)
	if cut > replicaMaxBatch {
		cut = replicaMaxBatch
	}
	batch := append([]replicaItem(nil), st.queue[:cut]...)
	st.queue = append(st.queue[:0], st.queue[cut:]...)
	w.batches++
	if len(batch) > 1 {
		w.multiBatches++
	}
	w.forwards += len(batch)
	st.transmit(batch)
	st.arm()
}

// transmit reliably forwards one frame (entries plus their memo ids) to
// the backup: retransmit until every carried put's ack lands, the
// backup leaves the view, or this node dies. Flap windows just stretch
// the wait; a dead backup blocks the frame's puts until failover prunes
// it — exactly the liveness the pending re-evaluation provides. The
// frame is all-or-nothing on the wire: one delivery absorbs every
// entry, one ack clears every carried put's debt to this backup.
func (st *replicaStream) transmit(batch []replicaItem) {
	n := st.n
	w := n.w
	var xmit func(first bool)
	xmit = func(first bool) {
		if w.dead[n.id] {
			return
		}
		owed := false
		for _, it := range batch {
			if !it.rec.need[st.dst] {
				continue
			}
			if !n.view.hasBackup(st.shard, st.dst) {
				delete(it.rec.need, st.dst)
				n.maybeComplete(it.opID, it.rec)
				continue
			}
			owed = true
		}
		if !owed && !first {
			return
		}
		w.send(n.id, st.dst, func() {
			for _, it := range batch {
				w.nodes[st.dst].absorb(st.shard, it.rec.key, it.rec.e, it.opID)
			}
			w.send(st.dst, n.id, func() {
				for _, it := range batch {
					if !it.rec.need[st.dst] {
						continue
					}
					delete(it.rec.need, st.dst)
					n.maybeComplete(it.opID, it.rec)
				}
			})
		})
		w.eng.After(replicaRetransmit, func() { xmit(false) })
	}
	xmit(true)
}

// absorb applies one replicated entry at a backup: data only if
// strictly newer by version (retransmits and reordered forwards are
// harmless), memo unconditionally (a promoted backup must dedup retries
// of puts it absorbed).
func (n *replicaNode) absorb(s int, key uint64, e replicaEntry, opID uint64) {
	if e.ver > n.data[s][key].ver {
		n.data[s][key] = e
	}
	n.memo[s][opID] = struct{}{}
}

// --- driver ---

// RunReplicaSchedule executes one deterministic replicated-cluster
// simulation under the given schedule and mutation, and checks the
// history against the workload's model.
func RunReplicaSchedule(cfg ReplicaSimConfig, sched Schedule, mut Mutation) RunReport {
	cfg = cfg.withDefaults()
	w := newReplicaWorld(cfg, sched, mut)
	w.eng.Drain()
	completed := true
	for _, c := range w.clients {
		if !c.done {
			completed = false
		}
	}
	model := RegisterModel()
	if cfg.Echo {
		model = EchoModel()
	}
	history := w.rec.History()
	return RunReport{
		Schedule:     sched,
		Result:       Check(model, history),
		Ops:          len(history),
		Completed:    completed,
		Retried:      w.retried,
		DedupHits:    w.dedupHits,
		Redirects:    w.redirects,
		FlapDrops:    w.flapDrops,
		Failovers:    w.failovers,
		Migrations:   w.migrations,
		MovesDropped: w.movesDropped,
		Forwards:     w.forwards,
		Batches:      w.batches,
		MultiBatches: w.multiBatches,
	}
}

// ExploreReplica sweeps n seed-derived replica schedules, mirroring
// ExploreSchedules. Failovers, Migrations, Forwards and the rest are summed
// so the gate can assert the sweep actually promoted backups, moved
// shards and replicated writes.
func ExploreReplica(cfg ReplicaSimConfig, mut Mutation, startSeed uint64, n int, derive func(uint64, ReplicaSimConfig) Schedule) ExploreResult {
	var res ExploreResult
	for i := 0; i < n; i++ {
		seed := startSeed + uint64(i)
		sched := derive(seed, cfg)
		rep := RunReplicaSchedule(cfg, sched, mut)
		res.Runs++
		res.Retried += rep.Retried
		res.DedupHits += rep.DedupHits
		res.Redirects += rep.Redirects
		res.FlapDrops += rep.FlapDrops
		res.Failovers += rep.Failovers
		res.Migrations += rep.Migrations
		res.MovesDropped += rep.MovesDropped
		res.Forwards += rep.Forwards
		res.Batches += rep.Batches
		res.MultiBatches += rep.MultiBatches
		if rep.Failed() {
			res.Failures++
			if res.First == nil {
				res.First = &FailureReport{Report: rep, Minimal: ShrinkReplica(cfg, sched, mut)}
			}
		}
	}
	return res
}

// ShrinkReplica is Shrink for replica schedules: greedily drop
// perturbations while the schedule still fails.
func ShrinkReplica(cfg ReplicaSimConfig, sched Schedule, mut Mutation) Schedule {
	if !RunReplicaSchedule(cfg, sched, mut).Failed() {
		return sched
	}
	cur := sched
	for {
		removed := false
		for i := 0; i < len(cur.Perturbs); i++ {
			cand := Schedule{Seed: cur.Seed}
			cand.Perturbs = append(cand.Perturbs, cur.Perturbs[:i]...)
			cand.Perturbs = append(cand.Perturbs, cur.Perturbs[i+1:]...)
			if RunReplicaSchedule(cfg, cand, mut).Failed() {
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
