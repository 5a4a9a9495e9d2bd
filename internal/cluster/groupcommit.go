package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
)

// Group-commit replication: instead of one single-entry FRP1 frame per
// put per backup (PR 9's sync forward, which priced R=2 at ~0.2× of
// unreplicated goodput), primaries append puts to a per-(shard, backup)
// replication log and a forwarder goroutine drains it into multi-entry
// frames — the paper's flocking discipline applied to the replica
// plane. Frames are issued through the async Pending engine so several
// batches ride the wire per backup with bounded depth, and each put's
// ACK resolves only when the batch carrying it is durable on every
// backup: the durability promise is unchanged, only its granularity is.
//
// Failure semantics are batch-granular: a failed or fenced batch NACKs
// every put it carried (the client retries; guarded take-the-max applies
// absorb the replay), and a frame never spans epochs — a put admitted
// under a newer map is cut into its own frame, so the backup's epoch
// fence judges each batch under the view that admitted its writes.

// ReplTuning tunes the group-commit flush policy, doorbell-batching
// style: a frame flushes when it reaches FlushEntries or when an epoch
// boundary forces a cut, and otherwise as soon as the forwarder is free
// (natural batching), so an idle stream adds no latency and a busy one
// coalesces whatever queued behind the in-flight frame. Set it before
// traffic.
type ReplTuning struct {
	// FlushEntries caps entries per frame. 0 → 64; clamped to what one
	// payload holds (maxFrameEntries).
	FlushEntries int
	// flushDelay, which only this package's tests set, holds a frame
	// short of FlushEntries until its oldest put has waited this long, so
	// a test can pin what one frame carries.
	flushDelay time.Duration
}

// replPipeDepth caps in-flight frames per backup stream.
const replPipeDepth = 2

// replBatchAttempts is the retry cap for one frame: with a Budget set,
// the Pending plan spreads budget/4 per attempt, so 4 attempts spend
// roughly the whole forward budget before the batch fails.
const replBatchAttempts = 4

// Typed replication errors (errors.Is/As): ErrReplicaFenced marks an
// epoch-fence NACK (the backup's newer map was installed before the
// error returned), ErrReplicaNACK any other status rejection; transport
// failures wrap the underlying core/fabric error instead.
var (
	ErrReplicaFenced = errors.New("cluster: replica fence")
	ErrReplicaNACK   = errors.New("cluster: replicate NACK")

	errReplStopped = errors.New("cluster: replication stream stopped")
	errReplCommit  = errors.New("cluster: replication commit timed out")
)

// ReplError is the typed outcome of one backup's refusal of a frame,
// replication batch or snapshot: which node, the status it answered (0
// for transport failures), and a sentinel or transport cause for
// errors.Is/As.
type ReplError struct {
	Backup fabric.NodeID
	Status uint32
	Err    error
}

func (e *ReplError) Error() string {
	return fmt.Sprintf("cluster: replicate to n%d failed (status %d): %v", e.Backup, e.Status, e.Err)
}

func (e *ReplError) Unwrap() error { return e.Err }

// replOp is one put riding the replication log: it resolves when every
// backup's batch carrying it committed (ack) or any of them failed.
type replOp struct {
	epoch     uint64
	key, val  uint64
	remaining atomic.Int32

	mu     sync.Mutex
	err    error
	closed bool
	done   chan struct{}
}

func (o *replOp) ack() {
	if o.remaining.Add(-1) > 0 {
		return
	}
	o.mu.Lock()
	if !o.closed {
		o.closed = true
		close(o.done)
	}
	o.mu.Unlock()
}

// fail resolves the op immediately with the first error; a later ack or
// fail from another stream's batch is a no-op.
func (o *replOp) fail(err error) {
	o.mu.Lock()
	if !o.closed {
		o.err = err
		o.closed = true
		close(o.done)
	}
	o.mu.Unlock()
}

func (o *replOp) waitCommit(limit time.Duration) error {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-o.done:
		o.mu.Lock()
		err := o.err
		o.mu.Unlock()
		return err
	case <-t.C:
		return errReplCommit
	}
}

type streamKey struct {
	shard int
	to    fabric.NodeID
}

// replStream is one (shard, backup) replication log: an append queue
// and the forwarder goroutine that drains it into FRP1 frames.
type replStream struct {
	svc   *Service
	shard int
	to    fabric.NodeID

	mu      sync.Mutex
	queue   []*replOp
	firstAt time.Time // enqueue time of queue[0] (flush-deadline anchor)
	stopped bool

	kick chan struct{} // cap 1: queue went from empty/waiting to work
	stop chan struct{}
}

// cutBatch decides the flush: given the queued ops, it returns how many
// at the head flush now (0 = none), and when to re-evaluate if the
// policy says wait. A frame carries one epoch, so the batch is the
// longest same-epoch prefix up to maxEntries; it flushes immediately
// when full, when an epoch boundary queues behind it (the boundary put
// would otherwise wait a full delay for a frame it can never join), or
// when the first waiter has aged past delay. delay <= 0 flushes
// whatever is there — natural batching.
func cutBatch(queue []*replOp, maxEntries int, delay time.Duration, firstAt, now time.Time) (int, time.Time) {
	if len(queue) == 0 {
		return 0, time.Time{}
	}
	prefix := 1
	for prefix < len(queue) && prefix < maxEntries && queue[prefix].epoch == queue[0].epoch {
		prefix++
	}
	if prefix == maxEntries || prefix < len(queue) {
		return prefix, time.Time{}
	}
	if delay <= 0 || !now.Before(firstAt.Add(delay)) {
		return prefix, time.Time{}
	}
	return 0, firstAt.Add(delay)
}

// maxFrameEntries is how many entries fit one frame's payload — far fewer
// than the wire format's own bound, maxWireReplEntries.
const maxFrameEntries = (core.DefaultMaxPayload - replHeaderLen) / wireEntryLen

// replTuning resolves the knobs against the frame's capacity.
func (s *Service) replTuning() (maxEntries int, delay time.Duration) {
	maxEntries = s.Repl.FlushEntries
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return min(maxEntries, maxFrameEntries), s.Repl.flushDelay
}

// commitWait bounds one put's park on its group commit: worst case the
// op waits a flush delay plus a full pipeline of frame budgets ahead of
// its own. It is a backstop against a wedged stream, not the normal
// resolution path.
func (s *Service) commitWait() time.Duration {
	_, delay := s.replTuning()
	return delay + time.Duration(replPipeDepth+2)*s.fwdBudget
}

// stageCommit registers one put in the per-key pending index and
// appends it to every backup's replication log. It returns immediately;
// the caller applies locally and then parks in awaitCommit. Staging
// before the local apply is what makes the read-side commit gate sound:
// any read that observes the applied value is guaranteed to find the op
// in the index. Any failed batch resolves the op immediately with that
// batch's error.
func (s *Service) stageCommit(epoch uint64, shard int, key, val uint64, backups []fabric.NodeID) *replOp {
	op := &replOp{epoch: epoch, key: key, val: val, done: make(chan struct{})}
	op.remaining.Store(int32(len(backups)))
	s.pendMu.Lock()
	s.pendPuts[key] = append(s.pendPuts[key], op)
	s.pendMu.Unlock()
	for _, b := range backups {
		st, err := s.stream(shard, b)
		if err != nil {
			op.fail(err)
			break
		}
		st.enqueue(op)
	}
	return op
}

// awaitCommit parks until a staged put's batches are durable on every
// backup (or one failed), then drops it from the pending index so later
// reads stop gating on it.
func (s *Service) awaitCommit(key uint64, op *replOp) error {
	err := op.waitCommit(s.commitWait())
	s.pendMu.Lock()
	list := s.pendPuts[key]
	for i, o := range list {
		if o == op {
			list[i] = list[len(list)-1]
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(s.pendPuts, key)
	} else {
		s.pendPuts[key] = list
	}
	s.pendMu.Unlock()
	return err
}

// pendingOps snapshots the unresolved puts for a key (nil for the vast
// majority of reads — keys with no replication in flight).
func (s *Service) pendingOps(key uint64) []*replOp {
	s.pendMu.Lock()
	list := s.pendPuts[key]
	var ops []*replOp
	if len(list) != 0 {
		ops = append(ops, list...)
	}
	s.pendMu.Unlock()
	return ops
}

// stream returns (lazily starting) the forwarder for (shard, to).
func (s *Service) stream(shard int, to fabric.NodeID) (*replStream, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.streamsClosed {
		return nil, errReplStopped
	}
	k := streamKey{shard: shard, to: to}
	if st, ok := s.streams[k]; ok {
		return st, nil
	}
	st := &replStream{
		svc:   s,
		shard: shard,
		to:    to,
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	s.streams[k] = st
	s.streamWG.Add(1)
	go st.run()
	return st, nil
}

// closeStreams stops every forwarder and waits them out; queued ops
// fail with errReplStopped, in-flight frames are completed (their
// Pendings resolve within their budgets) so no lease outlives Close.
func (s *Service) closeStreams() {
	s.streamMu.Lock()
	s.streamsClosed = true
	streams := make([]*replStream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streamMu.Unlock()
	for _, st := range streams {
		st.mu.Lock()
		if !st.stopped {
			st.stopped = true
			close(st.stop)
		}
		st.mu.Unlock()
	}
	s.streamWG.Wait()
}

func (st *replStream) enqueue(op *replOp) {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		op.fail(errReplStopped)
		return
	}
	if len(st.queue) == 0 {
		st.firstAt = time.Now()
	}
	st.queue = append(st.queue, op)
	st.mu.Unlock()
	st.svc.logPending.Add(1)
	select {
	case st.kick <- struct{}{}:
	default:
	}
}

// replBatch is one in-flight frame: its Pending, the leased frame (the
// Pending retains the payload for retries, so the lease lives until
// Wait returns), and the ops it carries.
type replBatch struct {
	p     *core.Pending
	frame *wireFrame
	ops   []*replOp
	start time.Time
}

// run is the forwarder loop. Invariant: it never parks unboundedly
// while frames are in flight — a leased frame is always either being
// completed (Wait resolves within its budget) or waiting behind a
// bounded flush timer — so the package leak gate can't be wedged by an
// idle stream holding pool memory.
func (st *replStream) run() {
	s := st.svc
	defer s.streamWG.Done()
	var th *core.Thread
	var fly []*replBatch

	complete := func(b *replBatch) {
		resp, err := b.p.Wait()
		cerr := s.classifyReplicaResp(st.to, resp, err)
		b.frame.release()
		if cerr != nil {
			for _, op := range b.ops {
				op.fail(cerr)
			}
			return
		}
		s.batches.Inc()
		s.batchEntries.Observe(uint64(len(b.ops)))
		s.flushNS.Observe(uint64(time.Since(b.start).Nanoseconds()))
		s.replFwds.Add(uint64(len(b.ops)))
		for _, op := range b.ops {
			op.ack()
		}
	}

	failOps := func(ops []*replOp, err error) {
		for _, op := range ops {
			op.fail(&ReplError{Backup: st.to, Err: err})
		}
	}

	submit := func(ops []*replOp) {
		if th == nil {
			link, err := s.link(st.to)
			if err != nil {
				failOps(ops, err)
				return
			}
			th = link.conn.RegisterThread()
		}
		frame := leaseReplFrame(ops[0].epoch, st.shard, len(ops))
		for _, op := range ops {
			frame.add(op.key, op.val)
		}
		p, err := th.CallAsync(RPCReplicate, frame.payload(), core.CallOptions{
			Budget:      s.fwdBudget,
			MaxAttempts: replBatchAttempts,
		})
		if err != nil {
			frame.release()
			failOps(ops, err)
			return
		}
		fly = append(fly, &replBatch{p: p, frame: frame, ops: ops, start: time.Now()})
	}

	for {
		// Harvest finished frames without blocking so acks don't wait on
		// the next flush decision.
		for len(fly) > 0 && fly[0].p.Done() {
			complete(fly[0])
			fly = fly[1:]
		}

		maxEntries, delay := s.replTuning()
		st.mu.Lock()
		if st.stopped {
			queued := st.queue
			st.queue = nil
			st.mu.Unlock()
			if len(queued) > 0 {
				s.logPending.Add(-int64(len(queued)))
				failOps(queued, errReplStopped)
			}
			for _, b := range fly {
				complete(b)
			}
			return
		}
		n, wake := cutBatch(st.queue, maxEntries, delay, st.firstAt, time.Now())
		var ops []*replOp
		if n > 0 {
			ops = make([]*replOp, n)
			copy(ops, st.queue)
			rem := copy(st.queue, st.queue[n:])
			for i := rem; i < len(st.queue); i++ {
				st.queue[i] = nil
			}
			st.queue = st.queue[:rem]
			if rem > 0 {
				st.firstAt = time.Now()
			}
		}
		st.mu.Unlock()

		if n > 0 {
			s.logPending.Add(-int64(n))
			if len(fly) >= replPipeDepth {
				// Pipeline full: retire the oldest frame before this one.
				complete(fly[0])
				fly = fly[1:]
			}
			submit(ops)
			continue
		}

		if !wake.IsZero() {
			// Waiting out a flush deadline: bounded park, so any leased
			// in-flight frames are revisited promptly.
			t := time.NewTimer(time.Until(wake))
			select {
			case <-st.kick:
			case <-t.C:
			case <-st.stop:
			}
			t.Stop()
			continue
		}

		if len(fly) > 0 {
			// Empty queue, frames in flight: block on the oldest rather
			// than parking with pool leases held. New puts just append to
			// the queue meanwhile — that is the natural batching window.
			complete(fly[0])
			fly = fly[1:]
			continue
		}

		select {
		case <-st.kick:
		case <-st.stop:
		}
	}
}
