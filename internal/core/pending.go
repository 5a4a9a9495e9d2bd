package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/resilience"
)

// This file is the client completion path, the only one: a per-thread
// pending-call table in which every submitted operation — RPC or one-sided
// memory op — owns a completion record that whoever drains its QP (the
// waiter itself, another thread's waiter, the node's loop; see
// pollQP) completes directly by sequence ID, and one attempt engine
// (Pending) that every entry point — Call, CallWithDeadline, CallOpts,
// CallAsync, SendBatch, SendRPC/RecvRes, Read/Write/FetchAdd/CompareSwap —
// parameterizes instead of reimplementing. Completions are routed to their exact caller, so
// synchronous, asynchronous and memory operations interleave freely on one
// thread, stale completions are dropped where they are drained (no
// per-caller drop heuristics), and recovery poisons exactly the records
// riding a broken QP.
//
// Ownership protocol. A record lives in the table from registration until
// exactly one party removes it, and its state word says where it is:
// pending, parked (its waiter blocked on the token channel), done (response
// stored, unclaimed), or drained (released by the close-time drain).
//
//   - A completer (a poller's delivery, QP poisoning, connection failure,
//     the deadline sweep) that finds the record in the table and not done
//     stores the response and swaps the state to done, under the table
//     lock. Only when the swap finds the waiter parked does it send the
//     record's token, so completing a call nobody blocks on is a store.
//   - The waiter reads the state without the lock. To block it moves the
//     state from pending to parked by CAS; to stop blocking (shutdown) it
//     moves it back, and if that CAS fails a completer got there first and
//     its token is in the channel, which the waiter receives. Outside a park
//     the channel is empty, so no other party touches it.
//   - The waiter that sees done removes the record and takes the response
//     under the lock; abandoning a wait (cancel, failed submit, shutdown)
//     removes the record too, releasing the response's pooled lease if a
//     completer already stored one.
//   - Close-time draining marks the done records no waiter has removed
//     drained and releases their leases, so leases held by unwaited Pendings
//     never outlive the node. A waiter that finds its record drained owns
//     nothing and walks away.

// callRec is one entry in a thread's pending-call table: the completion
// future for a single submitted attempt.
type callRec struct {
	seq uint64
	// qp is the QP index the attempt was last pushed on (-1 before the
	// first push). The submitter stores it outside the table lock while
	// recovery reads it under the lock, hence atomic.
	qp atomic.Int32
	// state is the completion word (recPending, recParked, recDone,
	// recDrained). Completers and the drain write it under the table lock;
	// the waiter reads it without the lock and parks and unparks by CAS.
	state atomic.Uint32
	resp  Response
	// deadline is when the attempt expires, zero for an unbounded wait
	// (guarded by table mu). The waiter arms no timer for it: the deadline
	// sweep completes an overdue record with an expiry poison.
	deadline time.Time
	// ch carries the completion token to a parked waiter. Capacity one and
	// reused across recycles: a completer sends only on finding the state
	// parked, at most once per table residence, and the waiter receives it
	// before it leaves the park.
	ch   chan struct{}
	next *callRec // freelist link
}

// Record states; a record is resolved from recDone on.
const (
	recPending uint32 = iota
	recParked
	recDone
	recDrained
)

// resolved reports whether a completer or the drain has finished with rec,
// so its waiter neither polls nor parks for it any more.
func (rec *callRec) resolved() bool { return rec.state.Load() >= recDone }

// pendingTable is the per-thread pending-call table plus its record
// freelist. One table is owned by one application thread, but completers
// (pollers, recovery, connection failure) reach into it concurrently, hence
// the lock. The map is insert/delete-heavy at a
// steady-state size of the pipeline depth, so it never grows past warmup
// and the hot path stays allocation-free.
type pendingTable struct {
	mu   sync.Mutex
	recs map[uint64]*callRec
	free *callRec
	// seq is the newest sequence ID handed out. The table assigns them, in
	// order and under mu, so a completer holding only an ID's low bits (a
	// memory-op WRID) can recover the full ID from it.
	seq uint64
	// inflight counts registered-but-not-completed records. It is the
	// successor of the old per-thread outstanding counter: pickQP's
	// migration rule, Drain quiescence, and the pipeline-depth gate all
	// read it, and unlike the counter it can never drift from the table —
	// every mutation happens under mu alongside the map it mirrors, the
	// atomic only making lock-free reads possible.
	inflight atomic.Int32
	// bounded counts the records in the table that carry a deadline, so the
	// sweep passes a table with none at the cost of one atomic load. Mutated
	// under mu like inflight.
	bounded atomic.Int32
	// signals counts the tokens completers sent to parked waiters (guarded
	// by mu): the one channel send a call can cost.
	signals uint64
}

// register publishes a record (recycled from the freelist) under the next
// sequence ID and returns it with the table depth after insertion (the
// pipeline-depth sample).
func (p *pendingTable) register() (*callRec, int) {
	p.mu.Lock()
	r := p.free
	if r != nil {
		p.free = r.next
		r.next = nil
	} else {
		r = &callRec{ch: make(chan struct{}, 1)}
	}
	r.qp.Store(-1)
	if r.state.Load() == recParked || len(r.ch) != 0 {
		panic("flock: recycled callRec holds a stale completion token")
	}
	r.state.Store(recPending)
	p.seq++
	r.seq = p.seq
	p.recs[r.seq] = r
	d := p.inflight.Add(1)
	p.mu.Unlock()
	return r, int(d)
}

// depth reports the number of in-flight (uncompleted) records.
func (p *pendingTable) depth() int { return int(p.inflight.Load()) }

// wholeSeq is complete's mask for a sequence ID that arrived untruncated.
const wholeSeq = ^uint64(0)

// removeLocked takes rec out of the table and pushes it onto the freelist;
// caller holds mu.
func (p *pendingTable) removeLocked(rec *callRec) {
	delete(p.recs, rec.seq)
	p.disarmLocked(rec)
	rec.resp = Response{}
	rec.next = p.free
	p.free = rec
}

// disarmLocked clears rec's deadline as it leaves the table; caller holds mu.
func (p *pendingTable) disarmLocked(rec *callRec) {
	if !rec.deadline.IsZero() {
		rec.deadline = time.Time{}
		p.bounded.Add(-1)
	}
}

// completeLocked is the one completion step every completer shares: the
// response is stored, then the state swapped to done, and a waiter the swap
// finds parked is sent its token — all under mu.
func (p *pendingTable) completeLocked(rec *callRec, r Response) {
	p.inflight.Add(-1)
	rec.resp = r
	if rec.state.Swap(recDone) == recParked {
		p.signals++
		rec.ch <- struct{}{}
	}
}

// arm gives rec, the attempt its caller just submitted, a deadline. A record
// the close-time drain already removed stays unarmed.
func (p *pendingTable) arm(rec *callRec, deadline time.Time) {
	p.mu.Lock()
	if rec.state.Load() != recDrained {
		rec.deadline = deadline
		p.bounded.Add(1)
	}
	p.mu.Unlock()
}

// expire is the deadline sweep's visit to one table: every uncompleted
// record whose deadline has passed is completed with the expiry poison, so
// expiry reaches the waiter as a token exactly like QP poison and connection
// failure do. An expiry is late by at most the sweep period, never early.
func (p *pendingTable) expire(now time.Time) {
	if p.bounded.Load() == 0 {
		return
	}
	p.mu.Lock()
	for _, rec := range p.recs {
		if !rec.resolved() && !rec.deadline.IsZero() && !now.Before(rec.deadline) {
			p.completeLocked(rec, Response{err: ErrTimeout})
		}
	}
	p.mu.Unlock()
}

// complete resolves the record registered under seq with r. It reports
// whether a record was found (a miss means the completion is stale — its
// attempt was abandoned — and the caller drops it).
//
// mask says how many low bits of seq the caller actually has: wholeSeq for
// a response off the wire, memSeqMask for a memory-op WRID. IDs are
// assigned in order and the table is shallow, so the ID meant is the
// newest assigned one ending in those bits.
func (p *pendingTable) complete(seq, mask uint64, r Response) bool {
	p.mu.Lock()
	seq = p.seq - (p.seq-seq)&mask
	if mutantOn(mutPipelineMisroute) && mask == wholeSeq {
		seq = p.newestOutstanding(seq)
	}
	rec := p.recs[seq]
	if rec == nil || rec.resolved() {
		p.mu.Unlock()
		return false
	}
	p.completeLocked(rec, r)
	p.mu.Unlock()
	return true
}

// takeDone removes a record its waiter saw done and returns its response.
// Only the waiter removes a done record, except the close-time drain, which
// marks it drained instead: then the response is gone and takeDone reports
// false.
func (p *pendingTable) takeDone(rec *callRec) (Response, bool) {
	p.mu.Lock()
	if rec.state.Load() == recDrained {
		p.mu.Unlock()
		return Response{}, false
	}
	r := rec.resp
	p.removeLocked(rec)
	p.mu.Unlock()
	return r, true
}

// abandon removes a record the waiter no longer wants (cancel, submit
// failure, shutdown mid-wait), outside any park. If a completer got there
// first its response lease is recycled; if the close-time drain got there
// even earlier the record is simply gone and must not be recycled (the
// drain may still hold it).
func (p *pendingTable) abandon(rec *callRec) {
	p.mu.Lock()
	switch rec.state.Load() {
	case recDrained:
		p.mu.Unlock()
		return
	case recDone:
		rec.resp.Release()
	default:
		p.inflight.Add(-1)
	}
	p.removeLocked(rec)
	p.mu.Unlock()
}

// failMatching completes every record riding QP qp (all records when qp is
// negative) with the poison response r. This is how recovery's poison burst
// is sized from the table: exactly the in-flight attempts on the broken
// QP, not a thread-wide counter that may have drifted.
func (p *pendingTable) failMatching(qp int32, r Response) {
	p.mu.Lock()
	for _, rec := range p.recs {
		if rec.resolved() || (qp >= 0 && rec.qp.Load() != qp) {
			continue
		}
		p.completeLocked(rec, r)
	}
	p.mu.Unlock()
}

// drain releases the pooled leases of completed records no waiter has
// claimed. It runs at node close, after the node's loop and pollers are
// gone; a waiter racing it either removes its record first (and owns the
// response) or finds it drained and walks away. Drained records are not
// recycled — their waiter may still hold the pointer.
func (p *pendingTable) drain() {
	p.mu.Lock()
	for seq, rec := range p.recs {
		if rec.state.Load() != recDone {
			continue
		}
		rec.state.Store(recDrained)
		rec.resp.Release()
		rec.resp = Response{}
		delete(p.recs, seq)
		p.disarmLocked(rec)
	}
	p.mu.Unlock()
}

// Pending is one in-flight operation: the future returned by CallAsync and
// SendBatch, and the engine every synchronous wrapper — the memory
// operations included — drives to completion on its own stack. A Pending
// is owned by the goroutine that created it; Wait, Done and Cancel must not
// be called concurrently.
//
// A call's plan is (attempts, budget) and nothing else (see newPending). The
// engine runs the attempt loop — attempt deadlines and, for a plan with an
// attempt to spare, full-jitter backoff spent against the connection retry
// budget and idempotency-keyed dedup — one attempt in flight at a time, at
// Wait time, in the waiting goroutine. Submitting is cheap and immediate;
// every retry decision happens when someone asks for the result, so
// asynchronous callers get exactly the plan synchronous ones do without a
// goroutine per call.
type Pending struct {
	t       *Thread
	rpcID   uint32
	payload []byte
	kind    opKind // opMem: the work request waits in the thread's memWR slot
	size    int    // bytes moved, for the thread scheduler's statistics

	// Plan (fixed at creation).
	attempts int           // total attempt cap, at least 1
	budget   time.Duration // whole-call budget; zero = unbounded
	idemKey  uint64        // nonzero iff attempts > 1: copies are dedup-safe on the server

	// Engine state.
	deadline    time.Time // end of the budget, from the first submission; zero = unbounded
	phase       uint8
	heard       uint32 // the attempt's QP's heard stamp when a bounded attempt was armed
	attempt     int
	attemptWait time.Duration // current per-attempt wait; zero = unbounded
	retryAt     time.Time     // backoff gate before the next attempt
	rec         *callRec      // the in-flight attempt
	node        *tcqNode      // its combining-queue node, while Thread.submit has one pushed
	verdict     uint32        // what the queue said of it: stateWaiting until posted or refused
	started     time.Time     // submission time of an RPC's attempt zero (latency probe)
	resp        Response
	err         error
}

// Pending phases: submit the next attempt, wait for the in-flight one,
// finished.
const (
	pendStart uint8 = iota
	pendInflight
	pendDone
)

// newPending builds a call's plan, the same way for every entry point:
// opts.MaxAttempts attempts (one when unset) inside opts.Budget
// (Options.RPCTimeout when unset, unbounded when both are).
//
// A one-attempt plan has nothing to resubmit, so it waits its whole budget
// for the one response (without a budget only a completion, QP poison or
// connection failure resolves it), goes keyless, and costs the server's
// dedup window and the connection's retry budget nothing. A plan that can
// put a second copy of the request on the wire is keyed, so the dedup window
// recognises the copies, is backed off and charged to the retry budget
// between attempts, and starts at a quarter of its budget — 4 ×
// DefaultStallTimeout without one — doubling: the bounded wait is what
// drives resubmission and strikes a dead server end. The budget runs from the
// first submission, whose one clock read it shares (see Thread.submit).
func (t *Thread) newPending(p *Pending, rpcID uint32, payload []byte, opts CallOptions) error {
	o := &t.conn.node.opts
	*p = Pending{t: t, rpcID: rpcID, payload: payload, size: len(payload), attempts: max(opts.MaxAttempts, 1)}
	if len(payload) > o.test.maxPayload {
		p.fail(ErrPayloadTooLarge)
		return ErrPayloadTooLarge
	}
	budget := opts.Budget
	if budget == 0 {
		budget = o.RPCTimeout
	}
	if budget > 0 {
		p.budget = budget
		p.attemptWait = budget
	}
	if p.attempts > 1 {
		t.idemSeq++
		p.idemKey = t.idemSeq
		p.attemptWait = 4 * DefaultStallTimeout
		if budget > 0 {
			p.attemptWait = max(budget/4, time.Millisecond)
		}
	}
	return nil
}

// fail finishes the call with err.
func (p *Pending) fail(err error) {
	p.err = err
	p.phase = pendDone
}

// finish finishes the call successfully with r.
func (p *Pending) finish(r Response) {
	p.resp = r
	p.phase = pendDone
}

// Wait blocks until the call completes and returns its response or error.
// It is where retries and backoff actually run; a Pending that is
// never waited still completes (the node's loop resolves its record)
// but never retries. Wait may be called again after it returns; it keeps
// returning the same outcome.
func (p *Pending) Wait() (Response, error) {
	for p.phase != pendDone {
		switch p.phase {
		case pendStart:
			p.startAttempt(true)
		case pendInflight:
			p.awaitAttempt(true)
		}
	}
	return p.resp, p.err
}

// Done polls the call without blocking, advancing any engine step that is
// ready (consuming a completion or an expiry the sweep delivered, submitting
// a backed-off retry). It reports whether Wait would return immediately.
func (p *Pending) Done() bool {
	for p.phase != pendDone {
		var progressed bool
		switch p.phase {
		case pendStart:
			progressed = p.startAttempt(false)
		case pendInflight:
			progressed = p.awaitAttempt(false)
		}
		if !progressed {
			return false
		}
	}
	return true
}

// Cancel abandons the call: the in-flight attempt's record is removed from
// the table (a late response becomes a stale drop) and any already-completed
// response lease is released. After Cancel, Wait returns ErrClosed-free
// best effort: the canceled error. Cancel of a finished call releases
// nothing and keeps the outcome.
func (p *Pending) Cancel() {
	if p.phase == pendDone {
		return
	}
	p.abandonAttempt()
	p.fail(ErrCanceled)
}

// abandonAttempt removes the in-flight attempt's record, if there is one.
func (p *Pending) abandonAttempt() {
	if p.rec != nil {
		p.t.pend.abandon(p.rec)
		p.rec = nil
	}
}

// startAttempt submits the next attempt once the backoff gate opens. It
// returns false when non-blocking progress is impossible (backoff still
// pending).
func (p *Pending) startAttempt(block bool) bool {
	if !p.retryAt.IsZero() {
		if d := p.retryAt.Sub(p.t.conn.node.clock()); d > 0 {
			if !block {
				return false
			}
			time.Sleep(d)
		}
		p.retryAt = time.Time{}
	}
	// Submission failures are terminal: draining/closed are fatal by
	// definition, and a submit that outlived the whole-call deadline has no
	// budget left to retry in.
	one := [1]*Pending{p}
	if err := p.t.submit(one[:]); err != nil {
		p.fail(err)
	}
	return true
}

// armAttempt starts the clock of the attempt just submitted as p.rec at now,
// submit's one clock read: its response deadline goes on the record, where
// the deadline sweep finds it.
func (p *Pending) armAttempt(now time.Time) {
	if c := p.t.conn; c.failed.Load() {
		// The handle failed while this attempt was being submitted. Its
		// poison burst may have walked the table before the record was in
		// it, and a closed handle is off the dispatch and sweep sets, so
		// nothing would ever complete the record: give up here. A failure
		// after this load finds the record registered.
		p.abandonAttempt()
		p.fail(c.closedErr())
		return
	}
	if p.attemptWait > 0 {
		p.heard = p.t.conn.qps[p.rec.qp.Load()].heard.Load()
		d := now.Add(p.attemptWait)
		if !p.deadline.IsZero() && d.After(p.deadline) {
			d = p.deadline
		}
		p.t.pend.arm(p.rec, d)
	}
	p.phase = pendInflight
}

// awaitAttempt waits for the in-flight attempt to resolve: its record's
// state turning done, whichever completer does it — the attempt's deadline
// included, which the sweep delivers as an expiry poison. The waiter is the
// poller: before it parks it drains the QP its attempt rode for a stint,
// completing its own record and any other thread's it finds there, and then
// arms the QP for the node's loop (see stint) and blocks on the record's
// token; Done makes one such pass. It returns false when nothing is ready
// and block is false.
func (p *Pending) awaitAttempt(block bool) bool {
	t := p.t
	c := t.conn
	rec := p.rec
	if rec.resolved() {
		return p.onDone()
	}
	q := c.qps[rec.qp.Load()]
	if !block {
		c.pollQP(q, &c.node.metrics.waiterCompletions, false)
		if rec.resolved() {
			return p.onDone()
		}
		// The sweep stops with the node, so a poll must see the shutdown
		// itself or a bounded call would never resolve.
		if c.node.closing() {
			return p.onClosed()
		}
		return false
	}
	for range t.stint {
		c.pollQP(q, &c.node.metrics.waiterCompletions, false)
		if rec.resolved() {
			t.stint.found()
			return p.onDone()
		}
		runtime.Gosched()
	}
	t.stint.ranOut()
	// Park: the parked count makes the QP the node's loop's, and the last
	// poll arms it, so a completion that lands later wakes the loop. The
	// CAS to parked is what makes the completer send the token.
	q.parked.Add(1)
	defer q.parked.Add(-1)
	c.pollQP(q, &c.node.metrics.waiterCompletions, true)
	if !rec.state.CompareAndSwap(recPending, recParked) {
		return p.onDone()
	}
	select {
	case <-rec.ch:
	case <-c.closedCh():
		if rec.state.CompareAndSwap(recParked, recPending) {
			return p.onClosed()
		}
		// A completer swapped the state first; its token is sent under the
		// same lock hold.
		<-rec.ch
	}
	return p.onDone()
}

// onClosed resolves the call when the node shut down mid-wait: a
// completion that raced the shutdown still wins, otherwise the attempt is
// abandoned and the closure surfaced.
func (p *Pending) onClosed() bool {
	if p.rec.resolved() {
		return p.onDone()
	}
	p.abandonAttempt()
	p.fail(p.t.conn.closedErr())
	return true
}

// onDone takes the in-flight attempt's completion, once its record is
// resolved.
func (p *Pending) onDone() bool {
	t := p.t
	c := t.conn
	// The QP the attempt rode, read before takeDone recycles the record: the
	// thread may have moved to another QP since.
	q := c.qps[p.rec.qp.Load()]
	r, ok := t.pend.takeDone(p.rec)
	p.rec = nil
	if !ok {
		p.fail(c.closedErr()) // drained: the node is closed
		return true
	}
	if r.err != nil {
		if r.err == ErrTimeout {
			// Attempt expired (a late response becomes a stale drop): strike
			// the QP it rode if it stayed silent all the while — silence is
			// the only signal a dead server end gives.
			c.noteTimeout(q, p.heard)
			return p.attemptFailed(ErrTimeout)
		}
		if r.err == ErrQPBroken {
			return p.attemptFailed(ErrQPBroken)
		}
		if r.Status == StatusConnClosed {
			p.fail(ErrConnClosed)
			return true
		}
		p.fail(r.err)
		return true
	}
	if perr := pushbackErr(r.Status); perr != nil {
		r.Release()
		if perr == ErrOverloaded {
			// Admission pushback is retryable while an attempt is left.
			return p.attemptFailed(ErrOverloaded)
		}
		p.fail(perr)
		return true
	}
	if p.attempts > 1 && p.attempt == 0 {
		// Only clean first attempts of plans that may retry earn budget:
		// retries paying for retries would defeat the self-extinguishing
		// property, and a one-attempt call has no business with it.
		c.retryBudget.OnSuccess()
	}
	if p.kind == opRPC {
		c.node.completionNS.Observe(uint64(c.node.clock().Sub(p.started)))
	}
	p.finish(r)
	return true
}

// attemptFailed records a retryable attempt outcome and decides whether
// another attempt runs: the attempt cap, the whole-call deadline and the
// retry budget all gate it, with full-jitter backoff pacing the next
// submission.
func (p *Pending) attemptFailed(err error) bool {
	t := p.t
	c := t.conn
	now := c.node.clock()
	if p.attempt+1 >= p.attempts || (!p.deadline.IsZero() && !now.Before(p.deadline)) {
		p.fail(err)
		return true
	}
	if !c.retryBudget.TryRetry() {
		c.node.metrics.budgetExhausted.Add(1)
		p.fail(err)
		return true
	}
	c.node.metrics.retries.Add(1)
	backoff := resilience.Backoff{Base: DefaultRetryBaseBackoff, Cap: DefaultRetryMaxBackoff}
	if d := backoff.Delay(p.attempt, t.rng); d > 0 {
		if !p.deadline.IsZero() {
			d = min(d, p.deadline.Sub(now))
		}
		if d > 0 {
			p.retryAt = now.Add(d)
		}
	}
	p.attempt++
	p.attemptWait *= 2
	p.phase = pendStart
	return true
}
