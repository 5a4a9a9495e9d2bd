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
// served out of per-shard kvstore partitions, replicated to each shard's
// backups before a put is acknowledged, plus the two primitives the
// coordinator builds every placement change from — install a map with no
// request of one shard in flight, and copy a shard's snapshot to a
// recruited backup.
//
// Value contract: values are single 8-byte little-endian words and each
// key's value sequence must be non-decreasing (clients encode a
// per-key version/sequence into the value). That is what makes every
// write path a guarded take-the-max apply, which in turn makes snapshot
// frames, replication batches and client retries commute — the property
// a live move leans on instead of a distributed lock.
type Service struct {
	node *core.Node

	// mu orders map installs.
	mu  sync.Mutex
	cur atomic.Pointer[ShardMap]

	shards []*shardSlot

	fwdMu sync.Mutex
	fwd   map[fabric.NodeID]*fwdLink

	// fwdBudget bounds one frame to a backup, replication batch or
	// snapshot alike. Tests shorten it before traffic.
	fwdBudget time.Duration

	// ServiceDelay, when positive, makes every KV op consume that much
	// wall-clock before it is served — an emulated per-op service cost
	// for capacity experiments, so aggregate goodput scales with member
	// count (worker-seconds) rather than with how fast one host can spin.
	ServiceDelay time.Duration

	// Repl tunes the group-commit replication pipeline's flush policy. Set
	// before traffic; see ReplTuning.
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
	// exclusively by installUnder, so a change of the shard's replica set
	// or primary waits out in-flight requests and no request straddles it.
	mu    sync.RWMutex
	store *kvstore.Store
}

// fwdLink is a client connection to a peer member with a free list of
// threads, since copies may run concurrently and a core.Thread is
// single-goroutine.
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
// node must run with Workers > 0: a put's handler parks until its group
// commit resolves, and a dispatcher parked there could not serve the
// peer's RPCReplicate that the commit of a put in the other direction
// waits for.
func NewService(node *core.Node, m *ShardMap, storeCap int) (*Service, error) {
	if node.Options().Workers <= 0 {
		return nil, errors.New("cluster: service node needs Options.Workers > 0 (put handlers park on their group commit)")
	}
	if storeCap <= 0 {
		storeCap = 1024
	}
	s := &Service{
		node:         node,
		fwdBudget:    250 * time.Millisecond,
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
	// KV ops run on the worker pool (they can block: group commit, the
	// read gate, emulated service time). Pings, map fetches, and
	// replication applies take the inline dispatcher lane — they are
	// short, never issue RPCs of their own, and must stay responsive even
	// when every worker is parked on a commit (otherwise replicated puts
	// across members deadlock the pools against each other, and probes
	// time out exactly when the cluster is busiest).
	node.RegisterStatusHandler(RPCKV, s.handleKV)
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
	if cur := s.cur.Load(); cur != nil && m.Epoch <= cur.Epoch {
		return false
	}
	s.cur.Store(m)
	return true
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
		// installUnder never waits behind it.
		time.Sleep(d)
	}
	m := s.cur.Load()
	shard := m.ShardOf(key)
	slot := s.shards[shard]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	// Re-load under the slot lock: installUnder swaps the map while
	// holding it exclusively, so the map read here — owner and backup
	// set — is the one this request is served under from start to finish.
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
		// hold it first — a move's recruited target included, it is in
		// BackupsOf like any other. The put joins the per-(shard, backup)
		// replication logs and parks until the batch carrying it commits on
		// every backup (see groupcommit.go). On any failure the whole batch
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
		if op != nil {
			if err := s.awaitCommit(key, op); err != nil {
				return nil, core.StatusOverloaded
			}
		}
		return appendEpoch(nil, m.Epoch), core.StatusOK
	}
	return nil, core.StatusNoHandler
}

// handleReplicate is the backup half of synchronous replication, and
// the receiving half of a recruit's snapshot copy. The epoch on the frame
// is the fence: a frame older than our map means the
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

// installUnder adopts m (if newer) while holding shard's lock
// exclusively: every request on the shard that loaded the previous map
// has replied — its group commit resolved — before the call returns, and
// every later one is served, or NACKed WrongShard, under m. It is the one
// way a shard's replica set or primary changes on the member that serves
// it: a recruit is installed this way so that no put staged to the old
// backup set can apply after the snapshot scan passed its key; a handoff,
// so that every acknowledged put is on the new primary before anyone
// routes to it; a failover promotion, so that the new primary never
// answers one request under two views.
func (s *Service) installUnder(shard int, m *ShardMap) {
	slot := s.shards[shard]
	slot.mu.Lock()
	s.InstallMap(m)
	slot.mu.Unlock()
}

// CopyShardTo streams the shard's snapshot to `to`, which the caller has
// already made a backup of the shard (Coordinator.recruit): writes racing
// the scan reach it on the replication stream, and the guarded apply
// makes scan-vs-stream order irrelevant. The snapshot rides FRP1 frames
// built in one pooled buffer and stamped with this member's map epoch.
// Each frame is retried until deadline — the fault plans this runs under
// flap links mid-copy — and a fenced frame is re-sent under the newer map
// the NACK carried, for as long as that map still makes this member the
// shard's primary. A connection handle or node that has closed ends the
// copy at once: nothing sent on it again can arrive.
func (s *Service) CopyShardTo(shard int, to fabric.NodeID, deadline time.Time) error {
	link, err := s.link(to)
	if err != nil {
		return err
	}
	maxEntries := min(256, maxFrameEntries)
	f := leaseReplFrame(0, shard, maxEntries)
	defer f.release()
	flush := func() error {
		if f.n == 0 {
			return nil
		}
		for {
			m := s.cur.Load()
			if m.Table[shard] != s.node.ID() {
				return fmt.Errorf("cluster: shard %d copy abandoned: n%d is no longer its primary", shard, s.node.ID())
			}
			f.stampEpoch(m.Epoch)
			resp, err := link.call(RPCReplicate, f.payload(), s.fwdBudget)
			if err = s.classifyReplicaResp(to, resp, err); err == nil {
				f.reset()
				return nil
			}
			if errors.Is(err, core.ErrClosed) || time.Now().After(deadline) {
				return fmt.Errorf("cluster: shard %d copy failed: %w", shard, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	var scanErr error
	s.shards[shard].store.Scan(func(key uint64, val []byte) bool {
		f.add(key, binary.LittleEndian.Uint64(val[:8]))
		if f.n == maxEntries {
			scanErr = flush()
		}
		return scanErr == nil
	})
	if scanErr != nil {
		return scanErr
	}
	return flush()
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
