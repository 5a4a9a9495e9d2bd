package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/kvstore"
	"flock/internal/telemetry"
)

// Service is the member-side half of the cluster layer: a sharded KV
// served out of per-shard kvstore partitions, plus the migration
// machinery that lets the coordinator move a shard to another member
// while both keep serving.
//
// Value contract: values are single 8-byte little-endian words and each
// key's value sequence must be non-decreasing (clients encode a
// per-key version/sequence into the value). That is what makes every
// write path a guarded take-the-max apply, which in turn makes snapshot
// chunks, dual-written forwards and client retries commute — the
// property live migration leans on instead of a distributed lock.
type Service struct {
	node *core.Node

	// mu orders map installs and migration state transitions.
	mu  sync.Mutex
	cur atomic.Pointer[ShardMap]

	shards []*shardSlot

	fwdMu sync.Mutex
	fwd   map[fabric.NodeID]*fwdLink

	// ForwardBudget bounds one dual-write forward RPC; CopyBudget bounds
	// one snapshot chunk RPC. Zero means 250ms.
	ForwardBudget time.Duration
	CopyBudget    time.Duration

	// ServiceDelay, when positive, makes every KV op consume that much
	// wall-clock before it is served — an emulated per-op service cost
	// for capacity experiments, so aggregate goodput scales with member
	// count (worker-seconds) rather than with how fast one host can spin.
	ServiceDelay time.Duration

	// Repl tunes the group-commit replication pipeline's flush policy. Set
	// before traffic, like the budgets above; see ReplTuning.
	Repl ReplTuning

	// streams holds the per-(shard, backup) replication logs and their
	// forwarder goroutines, created lazily on the first replicated put.
	streamMu      sync.Mutex
	streams       map[streamKey]*replStream
	streamsClosed bool
	streamWG      sync.WaitGroup

	// pendPuts indexes, per key, every put whose group commit has not
	// resolved yet — the read-side commit gate (see OpGet in handleKV).
	pendMu   sync.Mutex
	pendPuts map[uint64][]*replOp

	moves        *telemetry.Counter
	replFwds     *telemetry.Counter
	promotions   *telemetry.Counter
	batches      *telemetry.Counter
	migDur       *telemetry.Hist
	readGate     *telemetry.Counter
	batchEntries *telemetry.Hist
	flushNS      *telemetry.Hist
	logPending   *telemetry.Gauge
}

// shardSlot is one shard's serving state on this member.
type shardSlot struct {
	// mu is held shared by every request touching the shard and
	// exclusively by migration state transitions, so a transition
	// (copying on/off, handoff) waits out in-flight requests and no
	// request straddles it.
	mu      sync.RWMutex
	store   *kvstore.Store
	copying bool
	target  fabric.NodeID
	started time.Time
}

// fwdLink is a client connection to a migration target with a free list
// of threads, since forwards run concurrently on worker goroutines and
// a core.Thread is single-goroutine.
type fwdLink struct {
	conn *core.Conn
	mu   sync.Mutex
	free []*core.Thread
}

func (f *fwdLink) call(rpcID uint32, payload []byte, budget time.Duration) (core.Response, error) {
	f.mu.Lock()
	var th *core.Thread
	if n := len(f.free); n > 0 {
		th = f.free[n-1]
		f.free = f.free[:n-1]
	}
	f.mu.Unlock()
	if th == nil {
		th = f.conn.RegisterThread()
	}
	resp, err := th.CallWithDeadline(rpcID, payload, budget)
	f.mu.Lock()
	f.free = append(f.free, th)
	f.mu.Unlock()
	return resp, err
}

// NewService stands the cluster layer up on node: per-shard stores for
// every shard in m (a member must be able to receive any shard later),
// the RPC handlers, and the cluster telemetry series on the node's
// registry. storeCap is the per-shard slot capacity (0 → 1024). The
// node must run with Workers > 0: dual-write forwards issue RPCs from
// inside a handler, which deadlocks a dispatcher-executed setup.
func NewService(node *core.Node, m *ShardMap, storeCap int) (*Service, error) {
	if node.Options().Workers <= 0 {
		return nil, errors.New("cluster: service node needs Options.Workers > 0 (forwards call RPCs from handlers)")
	}
	if storeCap <= 0 {
		storeCap = 1024
	}
	s := &Service{
		node:         node,
		shards:       make([]*shardSlot, m.Shards),
		fwd:          make(map[fabric.NodeID]*fwdLink),
		streams:      make(map[streamKey]*replStream),
		pendPuts:     make(map[uint64][]*replOp),
		moves:        node.Telemetry().Counter("cluster.shard_moves"),
		replFwds:     node.Telemetry().Counter("cluster.replica_forwards"),
		promotions:   node.Telemetry().Counter("cluster.promotions"),
		batches:      node.Telemetry().Counter("cluster.repl_batches"),
		readGate:     node.Telemetry().Counter("cluster.read_gate_waits"),
		migDur:       node.Telemetry().Hist("cluster.migration_duration_ns"),
		batchEntries: node.Telemetry().Hist("cluster.repl_batch_entries"),
		flushNS:      node.Telemetry().Hist("cluster.repl_flush_ns"),
		logPending:   node.Telemetry().Gauge("cluster.repl_log_pending"),
	}
	for i := range s.shards {
		st, err := kvstore.New(kvstore.NewMem(kvstore.ArenaSize(storeCap, 8)), storeCap, 8)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shardSlot{store: st}
	}
	s.cur.Store(m)
	// KV and migrate ops run on the worker pool (they can block: nested
	// replication forwards, emulated service time). Pings, map fetches,
	// and replication applies take the inline dispatcher lane — they are
	// short, never issue RPCs of their own, and must stay responsive even
	// when every worker is parked in a forward (otherwise replicated puts
	// across members deadlock the pools against each other, and probes
	// time out exactly when the cluster is busiest).
	node.RegisterStatusHandler(RPCKV, s.handleKV)
	node.RegisterStatusHandler(RPCMigrate, s.handleMigrate)
	node.RegisterInlineStatusHandler(RPCPing, s.handlePing)
	node.RegisterInlineStatusHandler(RPCMap, s.handleMap)
	node.RegisterInlineStatusHandler(RPCReplicate, s.handleReplicate)
	return s, nil
}

// Node returns the member node the service runs on.
func (s *Service) Node() *core.Node { return s.node }

// Map returns the service's current shard map.
func (s *Service) Map() *ShardMap { return s.cur.Load() }

// InstallMap adopts m if its epoch is newer than the current one.
func (s *Service) InstallMap(m *ShardMap) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installLocked(m)
}

func (s *Service) installLocked(m *ShardMap) bool {
	if cur := s.cur.Load(); cur != nil && m.Epoch <= cur.Epoch {
		return false
	}
	s.cur.Store(m)
	return true
}

func (s *Service) budget(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return 250 * time.Millisecond
}

func (s *Service) wrongShard(m *ShardMap) ([]byte, uint32) {
	return m.Encode(), core.StatusWrongShard
}

func (s *Service) handlePing(req []byte) ([]byte, uint32) {
	return appendEpoch(nil, s.cur.Load().Epoch), core.StatusOK
}

func (s *Service) handleMap(req []byte) ([]byte, uint32) {
	return s.cur.Load().Encode(), core.StatusOK
}

func (s *Service) handleKV(req []byte) ([]byte, uint32) {
	op, key, val, ok := decodeKVReq(req)
	if !ok {
		return nil, core.StatusNoHandler
	}
	if d := s.ServiceDelay; d > 0 {
		// Burn the emulated service time before taking the shard lock so
		// migration transitions never wait behind it.
		time.Sleep(d)
	}
	m := s.cur.Load()
	shard := m.ShardOf(key)
	slot := s.shards[shard]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	// Re-load under the slot lock: handoff swaps the map while holding
	// it exclusively, so ownership and copying state are read together.
	m = s.cur.Load()
	if m.Table[shard] != s.node.ID() {
		return s.wrongShard(m)
	}
	switch op {
	case OpGet:
		v, found := slot.store.Value64(key)
		// Commit gate: the value just read may belong to a put still
		// gathering in a replication log. Answering immediately would let
		// this node die inside the flush window having shown a client a
		// value no backup holds — the read, not the put's ack, becomes
		// the broken durability promise. So the reply waits for every
		// unresolved put on this key; any failed commit NACKs the read
		// (the observed value's durability is unknown) and the client
		// retries, by which point the put has retried or a newer map is
		// out. A put staged after the read began is not waited on — the
		// read linearizes at its observation point.
		if pending := s.pendingOps(key); len(pending) != 0 {
			s.readGate.Inc()
			for _, op := range pending {
				if err := op.waitCommit(s.commitWait()); err != nil {
					return nil, core.StatusOverloaded
				}
			}
		}
		out := appendEpoch(make([]byte, 0, 17), m.Epoch)
		if found {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		return binary.LittleEndian.AppendUint64(out, v), core.StatusOK
	case OpPut:
		// Group-commit replication: the ACK below is a durability promise —
		// the write must survive this node's death — so every backup must
		// hold it first. The put joins the per-(shard, backup) replication
		// logs and parks until the batch carrying it commits on every
		// backup (see groupcommit.go). On any failure the whole batch
		// NACKs and the clients retry; a backup that already applied just
		// no-ops the retry (guarded apply). A WrongShard NACK from a
		// backup installed its newer map before the batch failed, so the
		// retry is served — or fenced — under that map.
		//
		// The commit is staged BEFORE the local apply: a concurrent read
		// that observes the applied value is then guaranteed to find the
		// pending op in the per-key index and gate on it (see OpGet).
		var op *replOp
		if backups := m.BackupsOf(shard); len(backups) > 0 {
			op = s.stageCommit(m.Epoch, shard, key, val, backups)
		}
		if _, err := slot.store.UpdateMax64(key, val); err != nil {
			if op != nil {
				s.awaitCommit(key, op)
			}
			return nil, core.StatusOverloaded
		}
		if slot.copying {
			// Dual-write: the shard is mid-copy, so the target must see
			// this write even if the snapshot scan already passed the key.
			// The local apply above happened first — if the forward fails
			// we NACK so the client retries, and at-least-once is absorbed
			// by the guarded apply.
			if err := s.forward(slot.target, shard, key, val); err != nil {
				if op != nil {
					s.awaitCommit(key, op)
				}
				return nil, core.StatusOverloaded
			}
		}
		if op != nil {
			if err := s.awaitCommit(key, op); err != nil {
				return nil, core.StatusOverloaded
			}
		}
		return appendEpoch(nil, m.Epoch), core.StatusOK
	}
	return nil, core.StatusNoHandler
}

// handleMigrate applies a guarded bulk chunk. It is authorized when
// this node is the shard's pending-migration target or its owner —
// late duplicate chunks after handoff still land (and no-op).
func (s *Service) handleMigrate(req []byte) ([]byte, uint32) {
	if len(req) < chunkHeaderLen {
		return nil, core.StatusNoHandler
	}
	shard := int(binary.LittleEndian.Uint32(req[0:4]))
	n := int(binary.LittleEndian.Uint32(req[4:8]))
	if shard < 0 || n < 0 || len(req) != chunkHeaderLen+n*chunkEntryLen {
		return nil, core.StatusNoHandler
	}
	m := s.cur.Load()
	if shard >= m.Shards {
		return nil, core.StatusNoHandler
	}
	authorized := m.Table[shard] == s.node.ID() || m.IsBackup(shard, s.node.ID())
	for _, p := range m.Pending {
		if p.Shard == shard && p.To == s.node.ID() {
			authorized = true
		}
	}
	if !authorized {
		return s.wrongShard(m)
	}
	slot := s.shards[shard]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	for i := 0; i < n; i++ {
		off := chunkHeaderLen + i*chunkEntryLen
		key := binary.LittleEndian.Uint64(req[off : off+8])
		val := binary.LittleEndian.Uint64(req[off+8 : off+16])
		if _, err := slot.store.UpdateMax64(key, val); err != nil {
			return nil, core.StatusOverloaded
		}
	}
	return appendEpoch(nil, s.cur.Load().Epoch), core.StatusOK
}

// handleReplicate is the backup half of synchronous replication. The
// epoch on the frame is the fence: a frame older than our map means the
// sender kept serving past a failover (a deposed primary), and instead
// of silently absorbing its writes we NACK WrongShard with the newer
// map so it self-corrects exactly like a stale router. A frame at or
// ahead of our epoch is applied with the same guarded take-the-max the
// owner path uses, so replays and reordered retries commute.
func (s *Service) handleReplicate(req []byte) ([]byte, uint32) {
	f, err := DecodeReplicaForward(req)
	if err != nil {
		return nil, core.StatusNoHandler
	}
	m := s.cur.Load()
	if f.Shard >= m.Shards {
		return nil, core.StatusNoHandler
	}
	if f.Epoch < m.Epoch {
		return s.wrongShard(m)
	}
	if f.Epoch == m.Epoch && !m.IsReplica(f.Shard, s.node.ID()) {
		// Same view, but we are not in this shard's replica set: the
		// sender's frame is corrupt or misrouted, not merely stale.
		return s.wrongShard(m)
	}
	slot := s.shards[f.Shard]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	applied := 0
	for _, e := range f.Entries {
		adv, err := slot.store.UpdateMax64(e.Key, e.Val)
		if err != nil {
			return nil, core.StatusOverloaded
		}
		if adv {
			applied++
		}
	}
	return EncodeReplicaAck(s.cur.Load().Epoch, applied), core.StatusOK
}

// classifyReplicaResp turns one backup's RPCReplicate outcome into a
// typed error (nil on OK). A WrongShard NACK carries the backup's newer
// map, which is installed before the fence error returns so retries run
// under the corrected view. It owns resp's lease.
func (s *Service) classifyReplicaResp(to fabric.NodeID, resp core.Response, err error) error {
	if err != nil {
		return &ReplError{Backup: to, Err: err}
	}
	defer resp.Release()
	switch resp.Status {
	case core.StatusOK:
		return nil
	case core.StatusWrongShard:
		if nm, derr := DecodeShardMap(resp.Data); derr == nil {
			s.InstallMap(nm)
		}
		return &ReplError{Backup: to, Status: resp.Status, Err: ErrReplicaFenced}
	default:
		return &ReplError{Backup: to, Status: resp.Status, Err: ErrReplicaNACK}
	}
}

// forward dual-writes one key to the migration target as a chunk of one.
func (s *Service) forward(to fabric.NodeID, shard int, key, val uint64) error {
	link, err := s.link(to)
	if err != nil {
		return err
	}
	f := leaseChunkFrame(shard, 1)
	f.add(key, val)
	resp, err := link.call(RPCMigrate, f.payload(), s.budget(s.ForwardBudget))
	f.release()
	if err != nil {
		return err
	}
	defer resp.Release()
	if resp.Status != core.StatusOK {
		return &ReplError{Backup: to, Status: resp.Status, Err: ErrReplicaNACK}
	}
	return nil
}

func (s *Service) link(to fabric.NodeID) (*fwdLink, error) {
	s.fwdMu.Lock()
	defer s.fwdMu.Unlock()
	if l, ok := s.fwd[to]; ok {
		return l, nil
	}
	conn, err := s.node.Connect(to)
	if err != nil {
		return nil, err
	}
	l := &fwdLink{conn: conn}
	s.fwd[to] = l
	return l, nil
}

// BeginMigration turns on dual-write forwarding for shard towards `to`.
// The coordinator calls it after publishing the pending-migration epoch
// and before the snapshot copy, so every write from here on reaches the
// target by forward or by scan.
func (s *Service) BeginMigration(shard int, to fabric.NodeID) error {
	if _, err := s.link(to); err != nil {
		return err
	}
	slot := s.shards[shard]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.copying {
		return fmt.Errorf("cluster: shard %d already migrating", shard)
	}
	slot.copying = true
	slot.target = to
	slot.started = time.Now()
	return nil
}

// CopyShard streams the shard's snapshot to the target in bounded
// chunks built in pooled buffers. Each chunk send retries until
// deadline — the fault plans this runs under flap links mid-copy.
func (s *Service) CopyShard(shard int, deadline time.Time) error {
	slot := s.shards[shard]
	slot.mu.RLock()
	to, copying := slot.target, slot.copying
	slot.mu.RUnlock()
	if !copying {
		return fmt.Errorf("cluster: shard %d not migrating", shard)
	}
	return s.streamShard(shard, to, deadline)
}

// CopyShardTo snapshot-streams a shard to an explicit target without
// touching migration state. Repair uses it to seed a freshly recruited
// backup: the backup is already published in the replica set, so writes
// racing the scan reach it by replication forward, and the guarded
// apply makes scan-vs-forward order irrelevant.
func (s *Service) CopyShardTo(shard int, to fabric.NodeID, deadline time.Time) error {
	return s.streamShard(shard, to, deadline)
}

func (s *Service) streamShard(shard int, to fabric.NodeID, deadline time.Time) error {
	slot := s.shards[shard]
	link, err := s.link(to)
	if err != nil {
		return err
	}
	// Chunk geometry: stay well under MaxPayload.
	maxEntries := (s.node.Options().MaxPayload - chunkHeaderLen) / chunkEntryLen
	if maxEntries > 256 {
		maxEntries = 256
	}
	f := leaseChunkFrame(shard, maxEntries)
	defer f.release()
	flush := func() error {
		if f.n == 0 {
			return nil
		}
		payload := f.payload()
		for {
			resp, err := link.call(RPCMigrate, payload, s.budget(s.CopyBudget))
			if err == nil {
				st := resp.Status
				resp.Release()
				if st == core.StatusOK {
					f.reset()
					return nil
				}
				err = fmt.Errorf("cluster: chunk NACK status %d", st)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: shard %d copy timed out: %w", shard, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	var scanErr error
	slot.store.Scan(func(key uint64, val []byte) bool {
		f.add(key, binary.LittleEndian.Uint64(val[:8]))
		if f.n == maxEntries {
			if scanErr = flush(); scanErr != nil {
				return false
			}
		}
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	return flush()
}

// CompleteMigration atomically installs the handoff map and stops
// forwarding: it takes the slot exclusively, so every in-flight request
// (including its dual-write forward) finishes first, and every later
// request sees the new map and NACKs WrongShard. It records the
// migration's duration and bumps cluster.shard_moves.
func (s *Service) CompleteMigration(shard int, handoff *ShardMap) {
	slot := s.shards[shard]
	slot.mu.Lock()
	s.mu.Lock()
	s.installLocked(handoff)
	s.mu.Unlock()
	wasCopying := slot.copying
	slot.copying = false
	started := slot.started
	slot.mu.Unlock()
	if wasCopying {
		s.moves.Inc()
		s.migDur.Observe(uint64(time.Since(started).Nanoseconds()))
	}
}

// Promote installs the failover map on the shard's new primary through
// the same exclusive-slot handoff CompleteMigration uses: in-flight
// requests finish under the old view, everything later serves (or
// fences) under the new epoch. It also clears any dual-write state
// pointed at the dead node — a migration whose source died is moot —
// and bumps cluster.promotions.
func (s *Service) Promote(shard int, failover *ShardMap) {
	slot := s.shards[shard]
	slot.mu.Lock()
	s.mu.Lock()
	s.installLocked(failover)
	s.mu.Unlock()
	slot.copying = false
	slot.mu.Unlock()
	s.promotions.Inc()
}

// AbortMigration turns dual-write off without a handoff (the map with
// the pending entry dropped is installed by the coordinator).
func (s *Service) AbortMigration(shard int, revert *ShardMap) {
	slot := s.shards[shard]
	slot.mu.Lock()
	s.mu.Lock()
	s.installLocked(revert)
	s.mu.Unlock()
	slot.copying = false
	slot.mu.Unlock()
}

// Keys returns how many keys shard holds locally (test/observability).
func (s *Service) Keys(shard int) int {
	n := 0
	s.shards[shard].store.Scan(func(uint64, []byte) bool { n++; return true })
	return n
}

// ShardFingerprint returns the order-independent content fingerprint of
// the shard's local partition. Equal fingerprints on a primary and its
// backup mean byte-equal replicas — what the failover tests assert
// after traffic quiesces.
func (s *Service) ShardFingerprint(shard int) uint64 {
	return s.shards[shard].store.Fingerprint64()
}

// Close stops the replication forwarders (queued ops NACK, in-flight
// frames resolve within their budgets) and tears down the forward links.
func (s *Service) Close() {
	s.closeStreams()
	s.fwdMu.Lock()
	defer s.fwdMu.Unlock()
	for _, l := range s.fwd {
		l.conn.Close()
	}
	s.fwd = map[fabric.NodeID]*fwdLink{}
}
