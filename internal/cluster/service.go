package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/kvstore"
	"flock/internal/telemetry"
)

// Service is the member-side half of the cluster layer: a sharded KV served
// out of per-shard kvstore partitions, replicated to each shard's backups
// before a put is acknowledged, plus the two primitives the coordinator
// builds every placement change from — install a map with no request of one
// shard in flight, and copy a shard's snapshot to a recruited backup.
//
// Value contract: values are single 8-byte little-endian words and each key's
// value sequence must be non-decreasing (clients encode a per-key
// version/sequence into the value). That is what makes every write path a
// guarded take-the-max apply, which in turn makes snapshot frames,
// replication batches and client retries commute — the property a live move
// leans on instead of a distributed lock.
type Service struct {
	node *core.Node

	// mu orders map installs.
	mu  sync.Mutex
	cur atomic.Pointer[ShardMap]

	shards []*shardSlot

	// peers holds the handles to the other members; each replication
	// stream's forwarder has its own threads on them, and snapshot copies,
	// one at a time, share copyThreads.
	peers       *peerConns
	copyMu      sync.Mutex
	copyThreads *peerThreads

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

	// streamMu guards streams, one per distinct backup set a put has been
	// admitted under (see replStream), and replClosed, set by Close, after
	// which every put is handed closedStream; fwdWG counts the streams'
	// forwarders.
	streamMu     sync.Mutex
	streams      []*replStream
	replClosed   bool
	closedStream replStream
	fwdWG        sync.WaitGroup

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
	// mu is held shared by every request touching the shard — a KV request
	// from admission until its reply is sent, which for a replicated put or
	// a gated get is after its handler returned — and exclusively by
	// installUnder, so a change of the shard's replica set or primary waits
	// out in-flight requests and no request straddles it.
	mu    sync.RWMutex
	store *kvstore.Store

	// gateMu guards the read gate's index of unresolved puts per key (linked
	// through replOp.nextKey), the freelists of its records, and the stream
	// cache: stream is the replication stream of the shard's backup set under
	// map epoch streamEpoch (see stage).
	gateMu      sync.Mutex
	pend        map[uint64]*replOp
	freeOps     []*replOp
	freeGets    []*gatedGet
	stream      *replStream
	streamEpoch uint64
}

// answer sends a KV request's reply and then releases the shared lock the
// request has held on the shard since admission.
func (sl *shardSlot) answer(r *core.Reply, data []byte, status uint32) {
	r.Send(data, status)
	sl.mu.RUnlock()
}

// NewService stands the cluster layer up on node: per-shard stores for
// every shard in m (a member must be able to receive any shard later),
// the RPC handlers, and the cluster telemetry series on the node's
// registry. storeCap is the per-shard slot capacity (0 → 1024). The
// node must run with Workers > 0: a KV handler can block — on the shard
// lock behind an install, in ServiceDelay — and a dispatcher blocked there
// could not serve the peer's RPCReplicate that the install is waiting for.
func NewService(node *core.Node, m *ShardMap, storeCap int) (*Service, error) {
	if node.Options().Workers <= 0 {
		return nil, errors.New("cluster: service node needs Options.Workers > 0 (KV handlers can block on the shard lock)")
	}
	if storeCap <= 0 {
		storeCap = 1024
	}
	peers := newPeerConns(node)
	s := &Service{
		node:         node,
		fwdBudget:    250 * time.Millisecond,
		shards:       make([]*shardSlot, m.Shards),
		peers:        peers,
		copyThreads:  peers.newThreads(),
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
	s.closedStream.stopped = true
	for i := range s.shards {
		st, err := kvstore.New(kvstore.NewMem(kvstore.ArenaSize(storeCap, 8)), storeCap, 8)
		if err != nil {
			return nil, err
		}
		s.shards[i] = &shardSlot{store: st, pend: make(map[uint64]*replOp)}
	}
	s.cur.Store(m)
	// KV ops run on the worker pool (they can block: the shard lock, emulated
	// service time) and reply later when they have a commit to wait for.
	// Pings, map fetches and replication applies take the inline dispatcher
	// lane — short, RPC-free, and responsive even when every worker is blocked
	// (else installs across members deadlock against each other's applies).
	node.RegisterReplyHandler(RPCKV, false, s.handleKV)
	node.RegisterInlineStatusHandler(RPCPing, s.handlePing)
	node.RegisterInlineStatusHandler(RPCMap, s.handleMap)
	node.RegisterReplyHandler(RPCReplicate, true, s.handleReplicate)
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

func (s *Service) handlePing(req []byte) ([]byte, uint32) {
	return appendEpoch(nil, s.cur.Load().Epoch), core.StatusOK
}

func (s *Service) handleMap(req []byte) ([]byte, uint32) {
	return s.cur.Load().Encode(), core.StatusOK
}

// handleKV serves one get or put. It never waits for replication: a put
// with backups is staged, applied and appended to its backup set's stream,
// and the handler returns — the forwarder's batch-ack arm sends the reply;
// a get that observed an unresolved put is parked on it the same way.
func (s *Service) handleKV(req []byte, r *core.Reply) {
	op, key, val, ok := decodeKVReq(req)
	if !ok {
		r.Send(nil, core.StatusNoHandler)
		return
	}
	if d := s.ServiceDelay; d > 0 {
		// Burn the emulated service time before taking the shard lock so
		// installUnder never waits behind it.
		time.Sleep(d)
	}
	shard := s.cur.Load().ShardOf(key)
	slot := s.shards[shard]
	slot.mu.RLock() // released by slot.answer, whoever calls it
	var staged *replOp
	defer func() {
		// Each arm below ends in the call that answers the request or hands it
		// on, so a panic means neither happened: answer here, as core would,
		// which is what frees the shard lock and the read gate's index.
		if recover() != nil {
			if staged != nil {
				slot.resolve(staged, errHandlerPanic)
			} else {
				slot.answer(r, nil, core.StatusHandlerPanic)
			}
		}
	}()
	// Load under the slot lock: installUnder swaps the map while holding it
	// exclusively, so the map read here — owner and backup set — is the one
	// this request is served under until it is answered.
	m := s.cur.Load()
	if m.Table[shard] != s.node.ID() && !(mutantOn(mutStaleShardServe) && s.Keys(shard) > 0) {
		slot.answer(r, m.Encode(), core.StatusWrongShard)
		return
	}
	switch op {
	case OpGet:
		v, found := slot.store.Value64(key)
		// Commit gate: the value just read may belong to a put still in the
		// replication stream. Answering now would let this node die inside the
		// flush window having shown a client a value no backup holds — the
		// read, not the put's ack, breaks the durability promise. So the reply
		// waits for every unresolved put on the key; a failed commit NACKs it.
		if slot.gate(key, r, m.Epoch, v, found) {
			s.readGate.Inc()
			return
		}
		slot.answer(r, appendGetReply(r.Buf(), m.Epoch, v, found), core.StatusOK)
	case OpPut:
		// Group-commit replication: the ACK is a durability promise — the
		// write must survive this node's death — so every backup must hold
		// it first, a move's recruited target included (it is in BackupsOf
		// like any other). The put joins the replication stream of the shard's
		// backup set and is answered when its frame commits on every backup,
		// or NACKed with the whole frame (groupcommit.go has the failure
		// semantics).
		//
		// Staged BEFORE the local apply — a read that observes the applied
		// value is then sure to find the op in the per-key index and gate on
		// it — and enqueued AFTER, so its reply cannot overtake its apply.
		backups := m.BackupsOf(shard)
		if len(backups) == 0 {
			if _, err := slot.store.UpdateMax64(key, val); err != nil {
				slot.answer(r, nil, core.StatusOverloaded)
				return
			}
			slot.answer(r, appendEpoch(r.Buf(), m.Epoch), core.StatusOK)
			return
		}
		op := slot.stage(s, m.Epoch, key, val, backups, r)
		staged = op
		if _, err := slot.store.UpdateMax64(key, val); err != nil {
			slot.resolve(op, errStoreFull)
			return
		}
		if mutantOn(mutAckBeforeReplicate) {
			slot.ackEarly(op)
		}
		op.stream.enqueue(op)
	default:
		slot.answer(r, nil, core.StatusNoHandler)
	}
}

// appendGetReply encodes a get's answer: epoch, found flag, value.
func appendGetReply(b []byte, epoch, val uint64, found bool) []byte {
	b = appendEpoch(b, epoch)
	if found {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return binary.LittleEndian.AppendUint64(b, val)
}

// handleReplicate is the backup half of synchronous replication, and the
// receiving half of a recruit's snapshot copy. A frame may carry entries of
// several shards (those its sender serves under one backup set); each
// entry's shard is this member's own map's ShardOf. The epoch on the frame is
// the fence, checked for every entry before any entry is applied: a frame
// older than our map means the sender kept serving past a failover (a
// deposed primary), and instead of absorbing its writes we NACK WrongShard
// with the newer map so it self-corrects like a stale router. A frame at or
// ahead of our epoch is applied with the owner path's guarded take-the-max,
// so replays and reordered retries commute.
func (s *Service) handleReplicate(req []byte, r *core.Reply) {
	f, n, err := decodeReplicaHeader(req)
	if err != nil {
		r.Send(nil, core.StatusNoHandler)
		return
	}
	m := s.cur.Load()
	if f.Epoch < m.Epoch { // older than our map: fenced, for every shard in it
		r.Send(m.Encode(), core.StatusWrongShard)
		return
	}
	var buf [8]int
	shards := buf[:0]
	for i := 0; i < n; i++ {
		shard := m.ShardOf(replicaEntryAt(req, i).Key)
		if f.Epoch == m.Epoch && !m.IsReplica(shard, s.node.ID()) {
			// Same view, but we are not in this shard's replica set: the
			// sender's frame is corrupt or misrouted, not merely stale.
			r.Send(m.Encode(), core.StatusWrongShard)
			return
		}
		if !slices.Contains(shards, shard) {
			shards = append(shards, shard)
		}
	}
	// Every shard the frame touches is held shared until the ack is sent, so
	// no install on any of them straddles the frame; in shard order, so two
	// frames never wait on each other's shards behind a pending install.
	slices.Sort(shards)
	for _, shard := range shards {
		s.shards[shard].mu.RLock()
	}
	defer func() {
		for _, shard := range shards {
			s.shards[shard].mu.RUnlock()
		}
	}()
	applied := 0
	for i := 0; i < n; i++ {
		e := replicaEntryAt(req, i)
		adv, err := s.shards[m.ShardOf(e.Key)].store.UpdateMax64(e.Key, e.Val)
		if err != nil {
			r.Send(nil, core.StatusOverloaded)
			return
		}
		if adv {
			applied++
		}
	}
	r.Send(appendReplicaAck(r.Buf(), s.cur.Load().Epoch, applied), core.StatusOK)
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

// installUnder adopts m (if newer) while holding shard's lock exclusively:
// every request on the shard that loaded the previous map has been answered —
// its frame resolved — before the call returns, and every later one is
// served, or NACKed WrongShard, under m. It is the one way a shard's replica
// set or primary changes on the member that serves it: a recruit, so that no
// put staged to the old backup set can apply after the snapshot scan passed
// its key; a handoff, so that every acknowledged put is on the new primary
// before anyone routes to it; a failover promotion, so that the new primary
// never answers one request under two views.
func (s *Service) installUnder(shard int, m *ShardMap) {
	slot := s.shards[shard]
	slot.mu.Lock()
	s.InstallMap(m)
	slot.mu.Unlock()
}

// CopyShardTo streams the shard's snapshot to `to`, which the caller has
// already made a backup of the shard (Coordinator.recruit): writes racing the
// scan reach it on the replication stream, and the guarded apply makes
// scan-vs-stream order irrelevant. The snapshot rides FRP2 frames built in
// one pooled buffer and stamped with this member's map epoch. Each frame is
// retried until deadline — the fault plans this runs under flap links
// mid-copy — and a fenced frame is re-sent under the newer map the NACK
// carried, for as long as that map still makes this member the shard's
// primary. The flush loop is the only retry loop under a frame — each trip
// is one core attempt — and a closed connection handle or node ends the copy
// at once (the handle is dropped, so the next copy re-dials).
func (s *Service) CopyShardTo(shard int, to fabric.NodeID, deadline time.Time) error {
	s.copyMu.Lock()
	defer s.copyMu.Unlock()
	th, err := s.copyThreads.thread(to)
	if err != nil {
		return err
	}
	maxEntries := min(256, maxFrameEntries)
	f := leaseReplFrame(0, maxEntries)
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
			resp, err := th.CallWithDeadline(RPCReplicate, f.payload(), s.fwdBudget)
			s.copyThreads.noteErr(to, err)
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

// ShardFingerprint returns the order-independent content fingerprint of the
// shard's local partition. Equal fingerprints on a primary and its backup
// mean byte-equal replicas — what the failover tests assert at quiescence.
func (s *Service) ShardFingerprint(shard int) uint64 {
	return s.shards[shard].store.Fingerprint64()
}

// Close stops the replication streams (queued puts NACK, in-flight frames
// resolve within their budgets, so every put is answered; a put staged from
// here on is NACKed at once) and tears down the forward links.
func (s *Service) Close() {
	s.streamMu.Lock()
	s.replClosed = true
	for _, st := range s.streams {
		st.close()
	}
	s.streamMu.Unlock()
	s.fwdWG.Wait()
	s.peers.close()
}
