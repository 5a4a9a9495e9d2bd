package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/stats"
	"flock/internal/telemetry"
)

// Thread is a per-application-thread handle on a connection. FLock
// multiplexes threads onto the connection's QP set; the thread scheduler
// (§5.2) periodically reassigns them. All RPC and memory APIs of Table 2
// hang off Thread.
//
// A Thread must be used by one goroutine at a time (it models an OS
// thread); create one per worker goroutine with Conn.RegisterThread.
type Thread struct {
	conn *Conn
	id   uint32
	rng  *stats.RNG

	idemSeq uint64 // idempotency-key counter for plans of more than one attempt
	leads   uint32 // leaderships run, for the tenure sample (see lead)
	// pend is the thread's pending-call table: one completion slot per
	// submitted operation, resolved directly by call ID (see pending.go).
	pend pendingTable
	// unreceived holds the SendRPC calls RecvRes has not returned yet,
	// oldest first.
	unreceived []*Pending
	// stint is how many polls of its attempt's QP the thread makes before it
	// parks, adapted to its own round trips (see awaitAttempt).
	stint stint
	// A thread runs one memory operation at a time: memWR is its work
	// request, written once per operation by Read/Write/FetchAdd/CompareSwap
	// and read in place by the leader that posts it (the queue node points
	// here), and scratch is the local region its data lands in.
	memWR   rnic.SendWR
	scratch *rnic.MemRegion

	assigned atomic.Int32 // scheduler-written QP index
	curQP    atomic.Int32 // QP in current use (recovery paths read it)
	avoidQP  int32        // thread-local: QP to sidestep after a follower timeout

	// Request statistics consumed by the thread scheduler; guarded by
	// statMu because the scheduler reads-and-resets them.
	statMu  sync.Mutex
	median  *stats.RunningMedian
	reqs    uint64
	bytes   uint64
	pending bool // stats present since last scheduling
}

// Response is one RPC response delivered to a thread (fl_recv_res).
type Response struct {
	// Seq echoes the sequence ID returned by SendRPC, mapping the
	// response to its outstanding request (§4.1).
	Seq uint64
	// RPCID echoes the handler ID.
	RPCID uint32
	// Status is StatusOK, StatusNoHandler or StatusHandlerPanic.
	Status uint32
	// Data is the response payload. It views a pooled buffer leased to
	// this Response: it stays valid until Release is called, and forever
	// for callers that never Release (the garbage collector reclaims the
	// lease instead of the pool recycling it).
	Data []byte

	// buf is the pool lease backing Data; nil for poison responses and
	// responses whose payload was copied.
	buf *mem.Buf

	// trace, when non-nil, is the owning node's lifecycle ring; Release
	// records the final EvRelease event on it. Set where the response is
	// delivered.
	trace *telemetry.TraceRing

	// err marks a poison response injected by recovery paths (ErrQPBroken,
	// ErrConnClosed) rather than a response off the wire, or carries a
	// memory operation's unsuccessful completion status (see statusError).
	err error
}

// Release returns the response's payload buffer to the pool. Call it once
// the Data has been consumed (or copied out); after Release the Data slice
// must not be touched. Release is idempotent on the same Response value
// and a no-op for responses without a pooled payload, so callers that never
// Release — and code handling poison responses — stay correct; they merely
// forgo buffer recycling.
func (r *Response) Release() {
	if b := r.buf; b != nil {
		r.buf = nil
		r.Data = nil
		b.Release()
		if r.trace != nil {
			r.trace.Record(telemetry.EvRelease, -1, 0, r.Seq, 0)
		}
	}
}

// RegisterThread creates a thread handle. The initial QP assignment is
// round-robin; the thread scheduler refines it from observed behaviour. A
// memory op's work-request ID has room for 12 bits of thread ID, so a
// connection holds at most 4 096 threads, and RegisterThread panics past
// that.
func (c *Conn) RegisterThread() *Thread {
	scratch, err := c.node.dev.RegisterMR(max(c.node.opts.test.maxPayload, 64), 0)
	if err != nil {
		scratch = nil // node closing; ops will fail with ErrClosed
	}
	c.threadMu.Lock()
	defer c.threadMu.Unlock()
	old := c.snapshotThreads()
	id := uint32(len(old))
	if id > memThreadMask {
		panic("flock: a connection holds at most 4096 threads")
	}
	t := &Thread{
		conn:    c,
		id:      id,
		rng:     stats.NewRNG(uint64(id) + uint64(c.remote)<<32 + 1),
		scratch: scratch,
		median:  stats.NewRunningMedian(32),
		stint:   stintMax,
	}
	t.assigned.Store(int32(int(id) % len(c.qps)))
	t.curQP.Store(t.assigned.Load())
	t.avoidQP = -1
	next := append(old[:len(old):len(old)], t)
	c.threads.Store(&next)
	return t
}

// ID returns the thread's identifier within the connection.
func (t *Thread) ID() uint32 { return t.id }

// Conn returns the owning connection handle.
func (t *Thread) Conn() *Conn { return t.conn }

// Outstanding reports requests sent but not yet completed: the depth of
// the thread's pending-call table.
func (t *Thread) Outstanding() int { return t.pend.depth() }

// pickQP selects the QP for the next placing operations: the scheduler's
// assignment, deferred while responses are outstanding on a still-active
// previous QP (§5.2 migration rule), with a fallback scan when the choice
// is deactivated.
func (t *Thread) pickQP(placing int) *connQP {
	c := t.conn
	idx := t.assigned.Load()
	if idx < 0 || int(idx) >= len(c.qps) {
		idx = 0
	}
	cur := t.curQP.Load()
	if cur != idx && t.pend.depth() > placing && c.qps[cur].active() {
		// Finish in-flight traffic on the old QP before migrating. placing
		// is how many of the in-flight operations are the caller's own, so
		// only a count above theirs means earlier responses are still due.
		idx = cur
	}
	q := c.qps[idx]
	// Scan away from a deactivated choice, and from a QP whose leader just
	// stalled on us (avoidQP) when an alternative exists — that sidestep is
	// the re-election onto a live QP.
	if !q.active() || (idx == t.avoidQP && len(c.qps) > 1) {
		for off := 1; off <= len(c.qps); off++ {
			cand := c.qps[(int(idx)+off)%len(c.qps)]
			if cand.active() && int32(cand.idx) != t.avoidQP {
				q = cand
				idx = int32(cand.idx)
				break
			}
		}
		if !q.active() && t.avoidQP >= 0 && int(t.avoidQP) < len(c.qps) &&
			c.qps[t.avoidQP].active() {
			// The avoided QP is the only active one left; use it.
			q = c.qps[t.avoidQP]
			idx = t.avoidQP
		}
	}
	if cur != idx {
		c.node.metrics.migrs.Add(1)
	}
	t.curQP.Store(idx)
	return q
}

// recordStat feeds the thread scheduler's inputs (§5.2): median request
// size, request count, and bytes since the last scheduling interval.
func (t *Thread) recordStat(size int) {
	t.statMu.Lock()
	t.median.Add(uint64(size))
	t.reqs++
	t.bytes += uint64(size)
	t.pending = true
	t.statMu.Unlock()
	if !t.conn.statDirty.Load() {
		t.conn.statDirty.Store(true)
	}
}

// takeStat snapshots and resets the scheduler inputs.
func (t *Thread) takeStat() (ThreadStat, bool) {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	if !t.pending {
		return ThreadStat{ID: t.id}, false
	}
	s := ThreadStat{
		ID:        t.id,
		MedianReq: t.median.Median(),
		Reqs:      t.reqs,
		Bytes:     t.bytes,
	}
	t.reqs, t.bytes, t.pending = 0, 0, false
	return s, true
}

// SendRPC submits an RPC request (fl_send_rpc) and returns its sequence
// ID; the response arrives through RecvRes with the same ID in
// Response.Seq. The request is coalesced with concurrent threads' requests
// via FLock synchronization. The pair is a thin adapter over the Pending
// engine: SendRPC submits the default plan — one attempt, so the returned ID
// is the ID on the wire, bounded by Options.RPCTimeout when that is set —
// and queues it for RecvRes. At most DefaultPipelineDepth calls
// wait there; one more cancels the oldest, whose late response is dropped
// as stale. Table-routed calls (Call, CallAsync, SendBatch) and memory
// operations interleave freely on the same thread.
func (t *Thread) SendRPC(rpcID uint32, payload []byte) (uint64, error) {
	p := new(Pending)
	if err := t.newPending(p, rpcID, payload, CallOptions{}); err != nil {
		return 0, err
	}
	p.startAttempt(true)
	if p.phase == pendDone {
		return 0, p.err
	}
	if len(t.unreceived) >= t.conn.node.opts.test.pipelineDepth {
		t.popUnreceived().Cancel()
	}
	t.unreceived = append(t.unreceived, p)
	return p.rec.seq, nil
}

// popUnreceived removes and returns the oldest SendRPC call RecvRes has
// not returned. The queue is shifted down in place, so steady-state
// SendRPC/RecvRes traffic never reallocates it.
func (t *Thread) popUnreceived() *Pending {
	p := t.unreceived[0]
	last := copy(t.unreceived, t.unreceived[1:])
	t.unreceived[last] = nil
	t.unreceived = t.unreceived[:last]
	return p
}

// submit is the only way onto a combining queue (§4.2): every operation a
// thread issues — one call through Pending.startAttempt, a whole batch through
// SendBatch, an RPC carrying its idemKey in the wire metadata (a nonzero key
// marks the request dedup-safe on the server) or the thread's parked memWR as
// a one-sided memory operation — enters as a chain of nodes pushed with one
// tail swap, and a single call is a chain of one. pends share one plan.
//
// submit chooses a QP and registers a record per call riding it, then runs
// rounds: link one fresh node per call still unsent (a consumed node's state
// and link are dirty), push the chain, drive it to verdicts, and go round
// again, on a QP chosen anew, with the calls told to migrate or abandoned by
// a stalled leader. The plan's deadline, when set, bounds the rounds. Every
// call leaves resolved — failed, its record removed again (or, if a
// completer raced the failing submit, its response lease recycled), so no
// error path leaks a table entry — or posted and armed. The error return is
// for a submission refused whole, before anything was registered.
func (t *Thread) submit(pends []*Pending) error {
	c := t.conn
	if c.node.draining.Load() {
		return ErrDraining
	}
	if c.isClosed() {
		return c.closedErr()
	}
	// One clock read serves the latency probe, the budget and the attempt
	// deadline, and a call that needs none of them makes none. The probe
	// times RPCs only: a memory operation is over in a few microseconds, and
	// two clock reads are a tenth of that.
	var now time.Time
	if p := pends[0]; p.attempt == 0 && p.kind == opRPC || p.attemptWait > 0 {
		now = c.node.clock()
	}
	// The first round's QP is chosen before the records count as in
	// flight, so each is registered riding it.
	q := t.pickQP(0)
	for _, p := range pends {
		var live int
		p.rec, live = t.pend.register(int32(q.idx))
		c.node.pipeDepth.Observe(uint64(live))
		p.verdict = stateWaiting
		if p.attempt == 0 {
			p.started = now
			if p.budget > 0 {
				p.deadline = now.Add(p.budget)
			}
		}
	}
	for round, unsent := 0, len(pends); ; round++ {
		if round > 0 {
			q = t.pickQP(unsent)
		}
		var first, last *tcqNode
		for _, p := range pends {
			if p.verdict != stateWaiting {
				continue // posted or failed in an earlier round
			}
			if qp := int32(q.idx); p.rec.qp() != qp {
				p.rec.setQP(qp)
			}
			c.node.trace.Record(telemetry.EvEnqueue, q.idx, t.id, p.rec.seq, uint64(p.size))
			p.node = &tcqNode{
				kind:     p.kind,
				rpcID:    p.rpcID,
				seqID:    p.rec.seq,
				threadID: t.id,
				idemKey:  p.idemKey,
				payload:  p.payload,
				// This goroutine polls the whole chain at once, and a node of
				// it promoted to leader claims its siblings: waiting for itself
				// to copy would deadlock, so a chain's payloads are the
				// leader's to copy. A chain of one runs the §4.2 handshake.
				leaderCopies: unsent > 1,
			}
			if p.kind == opMem {
				p.node.wr = &t.memWR
			}
			if last == nil {
				first = p.node
			} else {
				last.next.Store(p.node)
			}
			last = p.node
		}
		q.tcq.pushChain(first, last)
		t.awaitChain(q, pends, unsent)

		sent, timedOut := false, false
		unsent = 0
		for _, p := range pends {
			if p.node == nil {
				continue
			}
			p.node = nil
			switch p.verdict {
			case stateSent:
				sent = true
				t.recordStat(p.size)
			case stateTimedOut:
				timedOut = true
				fallthrough
			case stateMigrate:
				p.verdict = stateWaiting // re-read the assignment and go again (§5.2)
				unsent++
			default: // stateAborted
				err := c.closedErr()
				p.abandonAttempt()
				p.fail(err)
			}
		}
		// A leader that stalled before claiming us means re-elect on another
		// QP if one exists; a clean round clears the grudge.
		if timedOut {
			t.avoidQP = int32(q.idx)
		} else if sent {
			t.avoidQP = -1
		}
		if unsent == 0 {
			break
		}
		if d := pends[0].deadline; !d.IsZero() && c.node.clock().After(d) {
			for _, p := range pends {
				if p.verdict == stateWaiting {
					p.abandonAttempt()
					p.fail(ErrTimeout)
				}
			}
			break
		}
		pause(round)
	}
	for _, p := range pends {
		if p.phase != pendDone {
			p.armAttempt(now) // made it onto the wire
		}
	}
	return nil
}

// awaitChain drives the chain just pushed on q — the node of each of the
// waiting calls in pends that has one — to a final verdict, left in the call:
// stateSent, stateMigrate, stateAborted or stateTimedOut. A node promoted to
// leadership runs the leader protocol right here, and its claimed siblings
// (ours included) get their verdicts from that run; a node told to copy (only
// a chain of one is) writes its payload into staging, raises the
// copy-completion flag and keeps waiting. The stall guard: a node no leader
// has claimed within StallTimeout of the chain's last progress is abandoned
// through the waiting→timedOut CAS, and the caller re-submits a fresh one,
// preferably on another QP — leader re-election around a stalled or
// descheduled leader. The clock is read for that only once a node has been
// seen waiting, and then on one pass in 256.
func (t *Thread) awaitChain(q *connQP, pends []*Pending, waiting int) {
	c := t.conn
	var deadline time.Time
	for spins := 0; waiting > 0; {
		expired := !deadline.IsZero() && spins%256 == 255 && c.node.clock().After(deadline)
		progressed := false
		for _, p := range pends {
			if p.verdict != stateWaiting {
				continue
			}
			n := p.node
			v := n.state.Load()
			switch v {
			case stateLeader:
				v = c.lead(t, q, n)
			case stateCopy:
				// Leader assigned our slot and sized it.
				if len(n.payload) > 0 {
					q.prod.staging.WriteAt(n.payload, n.bufOff) //nolint:errcheck // leader sized the slot
				}
				n.copied.Store(1)
				n.state.CompareAndSwap(stateCopy, stateClaimed)
				continue
			case stateWaiting:
				if deadline.IsZero() {
					deadline = c.node.clock().Add(c.node.opts.StallTimeout)
				}
				if !expired || !n.state.CompareAndSwap(stateWaiting, stateTimedOut) {
					continue
				}
				v = stateTimedOut
			case stateClaimed:
				// A leader owns the node; its waits are stall-bounded, so a
				// verdict is coming. The timeout no longer applies.
				continue
			}
			p.verdict = v
			waiting--
			progressed = true
		}
		if progressed {
			spins, deadline = 0, time.Time{}
		} else {
			spins++
			runtime.Gosched()
		}
	}
}

// closedErr picks the error matching why the connection is unusable: the
// recorded failure cause when the handle died (so callers can tell "give
// up" closure from retryable causes), ErrClosed when the node is merely
// shutting down.
func (c *Conn) closedErr() error {
	if c.failed.Load() {
		if p := c.failErr.Load(); p != nil {
			return *p
		}
		return ErrConnClosed
	}
	return ErrClosed
}

// pushbackErr maps server rejection statuses to their typed errors, nil
// for anything that is not a pushback.
func pushbackErr(status uint32) error {
	switch status {
	case StatusOverloaded:
		return ErrOverloaded
	case StatusDraining:
		return ErrDraining
	}
	return nil
}

// RecvRes returns the response to the oldest SendRPC call not yet received
// (fl_recv_res), blocking until it completes. Responses therefore come back
// in submission order, each carrying its request's sequence ID in
// Response.Seq, and a failure is the failure of that particular request,
// typed as Pending.Wait types it: ErrQPBroken for a request lost to a
// broken QP (retry at the caller's discretion), ErrOverloaded / ErrDraining
// for server pushback, ErrConnClosed when the handle failed. Callers that
// want responses in completion order use CallAsync and poll Pending.Done.
// With nothing outstanding RecvRes blocks until the handle fails or is
// closed, or its node closes, and reports why.
func (t *Thread) RecvRes() (Response, error) {
	if len(t.unreceived) == 0 {
		select {
		case <-t.conn.dead:
		case <-t.conn.closedCh():
		}
		return Response{}, t.conn.closedErr()
	}
	return t.popUnreceived().Wait()
}

// CallOpts is the synchronous call, and the function Call and
// CallWithDeadline are spellings of: it builds the plan opts describe on the
// caller's stack — MaxAttempts attempts inside Budget, see CallOptions for
// the delivery contract of each — and waits it out. It may be freely
// interleaved with outstanding CallAsync/SendBatch requests on the same
// thread: every request owns a completion record resolved by call ID, so
// responses can never be misdelivered between waiters.
func (t *Thread) CallOpts(rpcID uint32, payload []byte, opts CallOptions) (Response, error) {
	var p Pending
	if err := t.newPending(&p, rpcID, payload, opts); err != nil {
		return Response{}, err
	}
	return p.Wait()
}

// Call is CallOpts with the default plan: one attempt, bounded by
// Options.RPCTimeout when that is set and unbounded otherwise.
func (t *Thread) Call(rpcID uint32, payload []byte) (Response, error) {
	return t.CallOpts(rpcID, payload, CallOptions{})
}

// CallWithDeadline is Call bounded by budget: one attempt that waits the
// whole budget for its response and then fails with ErrTimeout, which leaves
// the outcome unknown — the request may have executed, or may yet. If the
// QP the attempt rode routed no response at all during the wait, the expiry
// is a strike against it, and enough strikes in a row break it and trigger
// the background recycle (the server end of a QP failing is invisible to
// the client NIC — silence is the detection signal); an expiry on a QP that
// keeps answering is a slow server and strikes nothing. A late response
// lands on a completion record the waiter has already walked away from and
// is dropped.
func (t *Thread) CallWithDeadline(rpcID uint32, payload []byte, budget time.Duration) (Response, error) {
	return t.CallOpts(rpcID, payload, CallOptions{Budget: max(budget, 0)})
}

// memOp runs the one-sided operation in t.memWR through FLock
// synchronization and waits for its completion (§6): the default plan over
// the same record, submit loop and wait as an RPC — one attempt, since an
// atomic that timed out may still have executed, bounded by
// Options.RPCTimeout when that is set. size is the byte count the thread
// scheduler sees.
func (t *Thread) memOp(size int) error {
	var p Pending
	t.newPending(&p, 0, nil, CallOptions{}) //nolint:errcheck // no payload to be too large
	p.kind, p.size = opMem, size
	_, err := p.Wait()
	return err
}

// memWRFor clears the thread's work request for an op on r at off and
// returns it for the caller to fill in.
func (t *Thread) memWRFor(op rnic.Opcode, r *RemoteRegion, off int) *rnic.SendWR {
	wr := &t.memWR
	*wr = rnic.SendWR{}
	wr.Op, wr.RKey, wr.RemoteOff = op, r.rkey, off
	return wr
}

// Read performs a one-sided RDMA read of len(dst) bytes from the remote
// region at off (fl_read).
func (t *Thread) Read(r *RemoteRegion, off int, dst []byte) error {
	if t.scratch == nil || len(dst) > t.scratch.Len() {
		return ErrReadTooLarge
	}
	wr := t.memWRFor(rnic.OpRead, r, off)
	wr.LocalMR, wr.LocalLen = t.scratch, len(dst)
	if err := t.memOp(len(dst)); err != nil {
		return err
	}
	return t.scratch.ReadAt(dst, 0)
}

// Write performs a one-sided RDMA write of src to the remote region at
// off (fl_write).
func (t *Thread) Write(r *RemoteRegion, off int, src []byte) error {
	t.memWRFor(rnic.OpWrite, r, off).Inline = src
	return t.memOp(len(src))
}

// FetchAdd atomically adds delta to the 64-bit word at off in the remote
// region and returns its previous value (fl_fetch_and_add).
func (t *Thread) FetchAdd(r *RemoteRegion, off int, delta uint64) (uint64, error) {
	if t.scratch == nil {
		return 0, ErrClosed
	}
	wr := t.memWRFor(rnic.OpFetchAdd, r, off)
	wr.LocalMR, wr.CompareAdd = t.scratch, delta
	if err := t.memOp(8); err != nil {
		return 0, err
	}
	return t.scratch.Load64(0), nil
}

// CompareSwap atomically replaces the 64-bit word at off with swap when it
// equals expect, returning the previous value (fl_cmp_and_swap). The swap
// took effect iff the returned value equals expect.
func (t *Thread) CompareSwap(r *RemoteRegion, off int, expect, swap uint64) (uint64, error) {
	if t.scratch == nil {
		return 0, ErrClosed
	}
	wr := t.memWRFor(rnic.OpCmpSwap, r, off)
	wr.LocalMR, wr.CompareAdd, wr.Swap = t.scratch, expect, swap
	if err := t.memOp(8); err != nil {
		return 0, err
	}
	return t.scratch.Load64(0), nil
}

// statusError converts a memory operation's completion status to the
// error its waiter returns, nil for success. QP-failure statuses map to
// ErrQPBroken — the operation was lost to a broken QP (now recycling in
// the background) and may be retried; other statuses are protocol errors
// wrapped in OpError.
func statusError(st rnic.Status) error {
	switch {
	case st == rnic.StatusOK:
		return nil
	case qpFailureStatus(st):
		return ErrQPBroken
	}
	return &OpError{Status: st}
}

// OpError reports a memory operation that completed unsuccessfully.
type OpError struct {
	// Status is the RNIC completion status.
	Status rnic.Status
}

// Error implements error.
func (e *OpError) Error() string { return "flock: operation failed: " + e.Status.String() }
