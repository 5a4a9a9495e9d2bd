package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
)

// Group-commit replication: a primary appends each put to the replication
// stream of the backup set its shard was admitted under, and one forwarder
// goroutine per stream drains it into multi-entry FRP2 frames — the paper's
// flocking discipline applied to the replica plane. Shards that share a
// backup set share its stream, so one frame carries the puts of all of them,
// as one connection handle per remote node carries every thread's RPCs. A
// frame is built once and issued through the async Pending engine to every
// backup of the set, a bounded number of frames deep, and the forwarder's
// batch-ack arm is what answers the puts a frame carried (and the gets gated
// on them) once every backup acked it: no handler, worker or timer waits for
// a commit. The durability promise is per put, its granularity per frame.
//
// The stream is per backup set and not per peer: a frame then has one set
// and resolves its puts alone, where a stream per peer would need an ack
// count on every put and one more forwarder wake per batch per peer. The read
// gate stays per shard (shardSlot.stage, gate, resolve): a fencing backup's
// newer map is installed without the shard's exclusive lock
// (classifyReplicaResp), so a shard's backup set can change while older puts
// of it are unresolved, and one key's puts can then sit in two streams — an
// index kept per stream would let a get miss one of them.
//
// Failure semantics are batch-granular: a failed or fenced frame NACKs every
// put it carried (the client retries; guarded take-the-max applies absorb the
// replay; a fencing backup's newer map is installed first, so the retry is
// served — or fenced — under it), and a frame never spans epochs — a put
// admitted under a newer map is cut into its own frame, so the backup's epoch
// fence judges each batch under the view that admitted its writes. The epoch
// is the map's, not a shard's, so a frame that is stale is stale for every
// shard in it. What bounds a put's wait is its frame's Budget ×
// replBatchAttempts in the Pending engine, whose deadlines cost no timer
// either (core's deadline sweep); there is no per-put backstop.

// ReplTuning tunes the group-commit flush policy, doorbell-batching style: a
// frame flushes when it reaches FlushEntries or when an epoch boundary forces
// a cut, and otherwise as soon as the forwarder is free (natural batching),
// so an idle log adds no latency and a busy one coalesces whatever queued
// behind the in-flight frame. Set it before traffic.
type ReplTuning struct {
	// FlushEntries caps entries per frame. 0 → 64; clamped to what one
	// payload holds (maxFrameEntries).
	FlushEntries int
	// flushDelay, which only this package's tests set, holds a frame
	// short of FlushEntries until its oldest put has waited this long, so
	// a test can pin what one frame carries.
	flushDelay time.Duration
}

// replPipeDepth caps in-flight frames per stream.
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

	errReplStopped  = errors.New("cluster: replication stopped")
	errStoreFull    = errors.New("cluster: shard store full")
	errHandlerPanic = errors.New("cluster: kv handler panicked")
)

// ReplError is the typed outcome of one backup's refusal of a frame,
// replication batch or snapshot: which node, the status it answered (0 for
// transport failures), and a sentinel or transport cause for errors.Is/As.
type ReplError struct {
	Backup fabric.NodeID
	Status uint32
	Err    error
}

func (e *ReplError) Error() string {
	return fmt.Sprintf("cluster: replicate to n%d failed (status %d): %v", e.Backup, e.Status, e.Err)
}

func (e *ReplError) Unwrap() error { return e.Err }

// replOp is one put from staging until the frame that carried it resolves:
// acked by every backup of the set the put was admitted under, or failed. Its
// shard's slot recycles it once resolved.
type replOp struct {
	epoch    uint64
	key, val uint64
	slot     *shardSlot  // indexes the op and takes it back once resolved
	stream   *replStream // the admitting map's backup set's stream
	reply    *core.Reply // the put's answer, sent by whoever resolves it

	// Guarded by the slot's gateMu: the next unresolved put on the same key,
	// and the reads gated on this one.
	nextKey *replOp
	gets    []*gatedGet
}

// gatedGet is a read that observed a key with unresolved puts: it is
// answered when the last of them resolves, with the value it read if all
// committed and a NACK if any failed, and then recycled by the slot. waiting
// and failed are guarded by the slot's gateMu.
type gatedGet struct {
	reply   *core.Reply
	epoch   uint64
	val     uint64
	found   bool
	failed  bool
	waiting int
}

// replStream is one backup set's replication stream on a primary: the queue
// of puts not yet cut into a frame, from every shard this member serves
// under that set, and the forwarder that drains it.
type replStream struct {
	svc     *Service
	backups []fabric.NodeID // the set, as the first map that used it lists it

	mu      sync.Mutex
	queue   []*replOp
	firstAt time.Time // enqueue time of queue[0] (flush-deadline anchor)
	stopped bool

	kick chan struct{} // cap 1: queue went from empty/waiting to work
	stop chan struct{}

	// Forwarder-owned: its thread to each backup, and frame records whose
	// slices the next frame reuses.
	threads *peerThreads
	spare   []*replFrame
}

// streamFor returns the stream to the backup set backups, creating it and
// starting its forwarder on first use; once the service is closed, a stream
// that was never started and resolves every op at once.
func (s *Service) streamFor(backups []fabric.NodeID) *replStream {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	if s.replClosed {
		return &s.closedStream
	}
	for _, st := range s.streams {
		if sameSet(st.backups, backups) {
			return st
		}
	}
	st := &replStream{
		svc:     s,
		backups: backups,
		threads: s.peers.newThreads(),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.streams = append(s.streams, st)
	s.fwdWG.Add(1)
	go st.run()
	return st
}

// sameSet reports whether a and b hold the same members, in any order.
func sameSet(a, b []fabric.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for _, id := range a {
		if !slices.Contains(b, id) {
			return false
		}
	}
	return true
}

// cutBatch decides the flush: given the queued ops, it returns how many at
// the head flush now (0 = none), and when to re-evaluate if the policy says
// wait. A frame carries one epoch, so the batch is the longest same-epoch
// prefix up to maxEntries; it flushes immediately when full, when an epoch
// boundary queues behind it (the boundary put would otherwise wait a full
// delay for a frame it can never join), or when the first waiter has aged
// past delay. delay <= 0 flushes whatever is there — natural batching.
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

// stage returns the record of a put answered through r and puts it in the
// shard's per-key index of unresolved puts. The handler stages before it
// applies locally, which is what makes the read gate sound: any read that
// observes the applied value finds the op in the index. The op rides the
// stream of backups, the set the admitting map (epoch) gives the shard; the
// slot keeps that stream for the epoch, so a put looks it up without
// allocating.
func (sl *shardSlot) stage(s *Service, epoch, key, val uint64, backups []fabric.NodeID, r *core.Reply) *replOp {
	sl.gateMu.Lock()
	if sl.stream == nil || sl.streamEpoch != epoch {
		sl.stream, sl.streamEpoch = s.streamFor(backups), epoch
	}
	var op *replOp
	if n := len(sl.freeOps); n > 0 {
		op, sl.freeOps = sl.freeOps[n-1], sl.freeOps[:n-1]
	} else {
		op = new(replOp)
	}
	op.epoch, op.key, op.val, op.slot, op.stream, op.reply = epoch, key, val, sl, sl.stream, r
	op.nextKey = sl.pend[key]
	sl.pend[key] = op
	sl.gateMu.Unlock()
	return op
}

// enqueue appends a staged, locally applied op to the stream; from here the
// stream resolves it. On a stopped stream the op is resolved at once.
func (st *replStream) enqueue(op *replOp) {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		op.slot.resolve(op, errReplStopped)
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

// gate is the read side of the commit gate: if key has unresolved puts, the
// get is registered on every one of them and gate reports true — the reply
// is now owed by whoever resolves the last. A put staged after this call is
// not waited on: the read linearizes at its observation point.
func (sl *shardSlot) gate(key uint64, r *core.Reply, epoch, val uint64, found bool) bool {
	sl.gateMu.Lock()
	defer sl.gateMu.Unlock()
	op := sl.pend[key]
	if op == nil {
		return false
	}
	var g *gatedGet
	if n := len(sl.freeGets); n > 0 {
		g, sl.freeGets = sl.freeGets[n-1], sl.freeGets[:n-1]
	} else {
		g = new(gatedGet)
	}
	*g = gatedGet{reply: r, epoch: epoch, val: val, found: found}
	for ; op != nil; op = op.nextKey {
		op.gets = append(op.gets, g)
		g.waiting++
	}
	return true
}

// resolve ends op's life: it leaves the index, its put is answered — OK
// under the epoch that admitted it, or the retryable NACK — and so is every
// gated get for which it was the last unresolved put. Each answer releases
// the shard lock its request has held since admission. The records go back
// to the slot's freelists before the answers go out, so what is answered is
// copied out of them first.
func (sl *shardSlot) resolve(op *replOp, err error) {
	var buf [4]gatedGet
	ready := buf[:0]
	sl.gateMu.Lock()
	if head := sl.pend[op.key]; head == op {
		if op.nextKey == nil {
			delete(sl.pend, op.key)
		} else {
			sl.pend[op.key] = op.nextKey
		}
	} else {
		for ; head.nextKey != op; head = head.nextKey {
		}
		head.nextKey = op.nextKey
	}
	for _, g := range op.gets {
		g.failed = g.failed || err != nil
		if g.waiting--; g.waiting == 0 {
			ready = append(ready, *g)
			sl.freeGets = append(sl.freeGets, g)
		}
	}
	reply, epoch := op.reply, op.epoch
	clear(op.gets)
	op.gets = op.gets[:0]
	sl.freeOps = append(sl.freeOps, op)
	sl.gateMu.Unlock()
	switch {
	case ackedEarly(reply): // a premature-ack mutant has answered it
	case err != nil:
		sl.answer(reply, nil, core.StatusOverloaded)
	default:
		sl.answer(reply, appendEpoch(reply.Buf(), epoch), core.StatusOK)
	}
	for _, g := range ready {
		if g.failed { // the observed value's durability is unknown: retry
			sl.answer(g.reply, nil, core.StatusOverloaded)
		} else {
			sl.answer(g.reply, appendGetReply(g.reply.Buf(), g.epoch, g.val, g.found), core.StatusOK)
		}
	}
}

// close stops the stream; the forwarder NACKs what is queued and completes
// what is in flight on its way out.
func (st *replStream) close() {
	st.mu.Lock()
	if !st.stopped {
		st.stopped = true
		close(st.stop)
	}
	st.mu.Unlock()
}

// replFrame is one in-flight frame: the leased wire image (the Pendings
// retain the payload for retries, so the lease lives until the last Wait
// returns), the ops it carries, and one call per backup.
type replFrame struct {
	frame wireFrame
	ops   []*replOp
	calls []replCall
	start time.Time
	err   error // a backup the frame could not even be submitted to
}

type replCall struct {
	to fabric.NodeID
	p  *core.Pending
}

// frameFor returns a frame record carrying ops, reusing a retired one's
// slices when there is one.
func (st *replStream) frameFor(ops []*replOp) *replFrame {
	var f *replFrame
	if n := len(st.spare); n > 0 {
		f, st.spare = st.spare[n-1], st.spare[:n-1]
	} else {
		f = new(replFrame)
	}
	f.ops = append(f.ops[:0], ops...)
	return f
}

// submit builds the wire frame of f's ops (one epoch, of any shards of the
// stream's backup set) once and issues it to every backup of the set.
func (st *replStream) submit(f *replFrame) {
	s := st.svc
	f.start = time.Now()
	f.frame.lease(f.ops[0].epoch, len(f.ops))
	for _, op := range f.ops {
		f.frame.add(op.key, op.val)
	}
	for _, to := range st.backups {
		th, err := st.threads.thread(to)
		if err != nil {
			f.err = &ReplError{Backup: to, Err: err}
			break
		}
		p, err := th.CallAsync(RPCReplicate, f.frame.payload(), core.CallOptions{
			Budget:      s.fwdBudget,
			MaxAttempts: replBatchAttempts,
		})
		if err != nil {
			st.threads.noteErr(to, err)
			f.err = &ReplError{Backup: to, Err: err}
			break
		}
		f.calls = append(f.calls, replCall{to: to, p: p})
	}
	if mutantOn(mutAckBeforeBatchDurable) && f.err == nil {
		for _, op := range f.ops {
			op.slot.ackEarly(op)
		}
	}
}

// landed polls the frame's calls without blocking (which is also what
// drives their retries).
func (f *replFrame) landed() bool {
	for _, c := range f.calls {
		if !c.p.Done() {
			return false
		}
	}
	return true
}

// await waits out every backup's answer to the frame and returns the first
// refusal, nil when all of them acked.
func (st *replStream) await(f *replFrame) error {
	s := st.svc
	err := f.err
	for _, c := range f.calls {
		resp, werr := c.p.Wait()
		st.threads.noteErr(c.to, werr)
		if cerr := s.classifyReplicaResp(c.to, resp, werr); cerr != nil {
			if err == nil {
				err = cerr
			}
			continue
		}
		s.batches.Inc()
		s.batchEntries.Observe(uint64(len(f.ops)))
		s.flushNS.Observe(uint64(time.Since(f.start).Nanoseconds()))
		s.replFwds.Add(uint64(len(f.ops)))
	}
	f.frame.release()
	return err
}

// complete is the batch-ack arm: it waits the frame out and answers every
// put it carried, and the gets gated on them.
func (st *replStream) complete(f *replFrame) {
	err := st.await(f)
	for _, op := range f.ops {
		op.slot.resolve(op, err)
	}
	clear(f.ops)
	clear(f.calls)
	f.calls, f.err = f.calls[:0], nil
	st.spare = append(st.spare, f)
}

// run is the forwarder loop. Invariant: it never parks unboundedly while
// frames are in flight — a leased frame is always either being completed
// (Wait resolves within its budget) or waiting behind a bounded flush timer —
// so the package leak gate can't be wedged by an idle stream holding pool
// memory.
func (st *replStream) run() {
	s := st.svc
	defer s.fwdWG.Done()
	var fly []*replFrame
	retire := func() {
		st.complete(fly[0])
		fly = append(fly[:0], fly[1:]...)
	}
	for {
		// Harvest finished frames without blocking so acks don't wait on
		// the next flush decision.
		for len(fly) > 0 && fly[0].landed() {
			retire()
		}

		maxEntries, delay := s.replTuning()
		st.mu.Lock()
		if st.stopped {
			queued := st.queue
			st.queue = nil
			st.mu.Unlock()
			s.logPending.Add(-int64(len(queued)))
			for _, op := range queued {
				op.slot.resolve(op, errReplStopped)
			}
			for len(fly) > 0 {
				retire()
			}
			return
		}
		n, wake := cutBatch(st.queue, maxEntries, delay, st.firstAt, time.Now())
		var next *replFrame
		if n > 0 {
			next = st.frameFor(st.queue[:n])
			rem := copy(st.queue, st.queue[n:])
			clear(st.queue[rem:])
			st.queue = st.queue[:rem]
			if rem > 0 {
				st.firstAt = time.Now()
			}
		}
		st.mu.Unlock()

		switch {
		case n > 0:
			s.logPending.Add(-int64(n))
			if len(fly) >= replPipeDepth {
				retire() // pipeline full: the oldest frame goes first
			}
			st.submit(next)
			fly = append(fly, next)
		case !wake.IsZero():
			// Waiting out a flush deadline (tests only): bounded park, so
			// any leased in-flight frames are revisited promptly.
			t := time.NewTimer(time.Until(wake))
			select {
			case <-st.kick:
			case <-t.C:
			case <-st.stop:
			}
			t.Stop()
		case len(fly) > 0:
			// Empty queue, frames in flight: block on the oldest rather
			// than parking with pool leases held. New puts just append to
			// the queue meanwhile — that is the natural batching window.
			retire()
		default:
			select {
			case <-st.kick:
			case <-st.stop:
			}
		}
	}
}
