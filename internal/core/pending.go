package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"flock/internal/resilience"
)

// This file is the client completion path, the only one: a per-thread
// pending-call table in which every submitted operation — RPC or one-sided
// memory op — owns a completion record that whoever drains its QP (the
// waiter itself, another thread's waiter, the node's loop; see
// pollQP) completes directly by call ID, and one attempt engine
// (Pending) that every entry point — Call, CallWithDeadline, CallOpts,
// CallAsync, SendBatch, SendRPC/RecvRes, Read/Write/FetchAdd/CompareSwap —
// parameterizes instead of reimplementing. Completions are routed to their exact caller, so
// synchronous, asynchronous and memory operations interleave freely on one
// thread, stale completions are dropped where they are drained (no
// per-caller drop heuristics), and recovery poisons exactly the records
// riding a broken QP.
//
// A record is a slot (§4.1: a response echoes its request's ID, and the ID
// indexes the slot). The table is pages of slots under a fixed directory;
// pages are added by the owning thread as its window grows and never move,
// so a completer indexes a slot with no lock. A call's ID is
// generation<<slotBits | slot, and each slot's word packs its generation
// with the QP the call rides and its state, so a completion meant for an
// earlier occupant of the slot fails the same compare-and-swap that claims
// a live one.
//
// Ownership protocol. A slot's word says where its record is: free, pending,
// parked (its waiter blocked on the token channel), claimed (a completer is
// storing the response), done (response stored, unclaimed) or drained
// (released by the close-time drain). Every move but the owner's store
// publishing a free slot, which nobody else touches, is a CAS on the word,
// so each record has exactly one completer and, once done, exactly one
// consumer.
//
//   - A completer (a poller's delivery, QP poisoning, connection failure,
//     the deadline sweep) claims the record by CAS from pending or parked —
//     only if the word carries the generation of the ID it holds — stores
//     the response and publishes done; a response with nothing to store is
//     claimed straight to done. Only when it claimed from parked does it
//     send the record's token, so completing a call nobody blocks on is one
//     or two atomic writes.
//   - The waiter reads the word. To block it moves it from pending to parked
//     by CAS; to stop blocking (shutdown) it moves it back, and if that CAS
//     fails a completer got there first and its token is coming, which the
//     waiter receives. Outside a park the channel is empty, so no other party
//     touches it. A claimed record is done a few instructions later: the
//     waiter yields until it is.
//   - The waiter that sees done frees the slot by CAS and takes the
//     response; abandoning a wait (cancel, failed submit, shutdown) frees it
//     from pending, or from done releasing the response's pooled lease. Only
//     the owning thread frees slots and reuses them, so its free-slot stack
//     and page count need no lock.
//   - Close-time draining moves done records no waiter has freed to drained
//     and releases their leases, so leases held by unwaited Pendings never
//     outlive the node. A waiter that finds its record drained owns nothing
//     and walks away; a drained slot is never reused.

// Table geometry. A thread holds at most 1<<slotBits records at once —
// calls submitted and not yet waited out or canceled — in pages of
// pageSlots; register panics past that, since only a caller that never
// waits its calls gets there.
const (
	slotBits  = 16
	pageBits  = 6
	pageSlots = 1 << pageBits
	slotMask  = 1<<slotBits - 1
)

// A slot's word is generation<<genShift | qp<<stateBits | state: the
// generation of the slot's call (its ID's bits above the slot), the QP
// index the call was last pushed on, and one of the states below.
const (
	recFree uint64 = iota
	recPending
	recParked
	recClaimed
	recDone
	recDrained

	stateBits = 3
	stateMask = 1<<stateBits - 1
	qpBits    = 16 // Options.validate bounds QPsPerConn by it
	qpMask    = 1<<qpBits - 1
	genShift  = stateBits + qpBits
	genMask   = 1<<(64-genShift) - 1
)

// callRec is one slot of a thread's pending-call table: the completion
// future for a single submitted attempt.
type callRec struct {
	// word is the slot's generation, QP and state; every change is a CAS,
	// or the owner's store as it publishes a registration.
	word atomic.Uint64
	// deadline is when the attempt expires, in nanoseconds of the node's
	// clock since the node started; zero for an unbounded wait. Only the
	// owner writes it. The waiter arms no timer for it: the deadline sweep
	// completes an overdue record with an expiry poison.
	deadline atomic.Int64
	// seq is the call's ID, the owner's copy (completers read the word).
	seq  uint64
	resp Response
	// ch carries the completion token to a parked waiter, made by its first
	// park. Capacity one and reused by the slot's later calls: a completer
	// sends only on claiming the record from parked, and the waiter receives
	// the token before it leaves the park.
	ch chan struct{}
}

// recPage is one page of slots.
type recPage [pageSlots]callRec

// state is the record's state.
func (rec *callRec) state() uint64 { return rec.word.Load() & stateMask }

// resolved reports whether a completer or the drain has finished with rec,
// so its waiter neither polls nor parks for it any more.
func (rec *callRec) resolved() bool { return rec.state() >= recDone }

// qp is the QP index the call was last pushed on.
func (rec *callRec) qp() int32 { return qpOf(rec.word.Load()) }

// qpOf is the QP index in a slot word.
func qpOf(w uint64) int32 { return int32((w >> stateBits) & qpMask) }

// setQP records that the owner pushes the call on QP qp.
func (rec *callRec) setQP(qp int32) {
	for {
		w := rec.word.Load()
		if rec.word.CompareAndSwap(w, w&^(qpMask<<stateBits)|uint64(qp)<<stateBits) {
			return
		}
	}
}

// move changes rec's state from from to to, leaving the rest of the word,
// and reports whether rec was in from.
func (rec *callRec) move(from, to uint64) bool {
	w := rec.word.Load()
	return w&stateMask == from && rec.word.CompareAndSwap(w, w&^stateMask|to)
}

// park moves rec from pending to parked, its waiter's word that it blocks
// on the token; false means a completer claimed the record first.
func (rec *callRec) park() bool {
	if rec.ch == nil {
		rec.ch = make(chan struct{}, 1)
	}
	return rec.move(recPending, recParked)
}

// unpark moves rec back from parked to pending; false means a completer
// claimed the record first, and its token follows done.
func (rec *callRec) unpark() bool { return rec.move(recParked, recPending) }

// claim is a completer's right to rec: the CAS from pending or parked to
// to (claimed, or done for a response with nothing to store), made only
// while the word's generation, under gmask, is gen. It reports whether it
// won and whether it found the waiter parked.
func (rec *callRec) claim(gen, gmask, to uint64) (won, parked bool) {
	for {
		w := rec.word.Load()
		st := w & stateMask
		if (st != recPending && st != recParked) || (w>>genShift)&gmask != gen {
			return false, false
		}
		if rec.word.CompareAndSwap(w, w&^stateMask|to) {
			return true, st == recParked
		}
	}
}

// pendingTable is the per-thread pending-call table. One table is owned by
// one application thread, which alone registers and frees records (so
// pages and free are its own); completers — pollers, recovery, connection
// failure, the sweep, the drain — reach in through the directory and the
// slot words.
type pendingTable struct {
	dir   [1 << (slotBits - pageBits)]atomic.Pointer[recPage]
	pages int      // pages in dir, the owner's
	free  []uint32 // free slots, the owner's; the last freed on top
	// live counts the records registered and not yet freed, the owner's:
	// the pipeline-depth sample, and an upper bound on depth that costs the
	// pipeline gate no walk.
	live int
	// bounded counts the records that carry a deadline, so the sweep passes
	// a table with none at the cost of one atomic load.
	bounded atomic.Int32
	// signals counts the tokens completers sent to parked waiters: the one
	// channel send a call can cost.
	signals atomic.Uint64
}

// register takes the slot freed last — from a new page when none is free —
// and publishes it pending under the slot's next generation, riding QP qp.
// It returns the record and the number of live records with it (the
// pipeline-depth sample).
func (p *pendingTable) register(qp int32) (*callRec, int) {
	if len(p.free) == 0 {
		p.grow()
	}
	s := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	rec := &p.dir[s>>pageBits].Load()[s&(pageSlots-1)]
	w := rec.word.Load()
	if w&stateMask != recFree || rec.ch != nil && len(rec.ch) != 0 {
		panic("flock: reused call slot is not free or holds a stale completion token")
	}
	gen := (w>>genShift + 1) & genMask
	if gen == 0 {
		gen = 1 // generation 0 is a slot never used, which no ID names
	}
	rec.seq = gen<<slotBits | uint64(s)
	rec.word.Store(gen<<genShift | uint64(qp)<<stateBits | recPending)
	p.live++
	return rec, p.live
}

// grow adds a page of free slots.
func (p *pendingTable) grow() {
	if p.pages == len(p.dir) {
		panic("flock: a thread holds 65536 calls nobody waited out or canceled")
	}
	base := uint32(p.pages * pageSlots)
	for i := pageSlots - 1; i >= 0; i-- {
		p.free = append(p.free, base+uint32(i))
	}
	p.dir[p.pages].Store(new(recPage))
	p.pages++
}

// slot returns the record of the slot id names, nil when its page was
// never allocated.
func (p *pendingTable) slot(id uint64) *callRec {
	s := id & slotMask
	page := p.dir[s>>pageBits].Load()
	if page == nil {
		return nil
	}
	return &page[s&(pageSlots-1)]
}

// each calls f on every slot of the table. Pages are added in order and
// never move, so the walk needs no lock beside a growing owner.
func (p *pendingTable) each(f func(*callRec)) {
	for i := range p.dir {
		page := p.dir[i].Load()
		if page == nil {
			return
		}
		for j := range page {
			f(&page[j])
		}
	}
}

// release puts the slot of a record its owner freed back on the stack.
func (p *pendingTable) release(rec *callRec) {
	rec.resp = Response{}
	p.free = append(p.free, uint32(rec.seq&slotMask))
	p.live--
}

// depth reports the number of in-flight records, those no completer has
// finished with: pickQP's migration rule, the pipeline gate and Drain
// quiescence read it. It walks the table, so no completion pays for a
// counter; the pipeline gate reads live first.
func (p *pendingTable) depth() int {
	n := 0
	p.each(func(rec *callRec) {
		if st := rec.state(); st >= recPending && st <= recClaimed {
			n++
		}
	})
	return n
}

// wholeSeq is complete's mask for a call ID that arrived untruncated.
const wholeSeq = genMask<<slotBits | slotMask

// resolve is the one completion step every completer shares: it claims
// rec if the word still carries generation gen (under gmask) and a waiting
// record, stores r and publishes done, and sends the token to a waiter the
// claim found parked. A response with nothing in it — a memory op that
// succeeded — has nothing to store over a freed slot's zero response, so
// its claim publishes done at once. It reports whether it claimed rec.
func (p *pendingTable) resolve(rec *callRec, gen, gmask uint64, r *Response) bool {
	bare := r.buf == nil && r.err == nil && r.Data == nil && r.trace == nil &&
		r.Seq == 0 && r.RPCID == 0 && r.Status == 0
	to := recClaimed
	if bare {
		to = recDone
	}
	won, parked := rec.claim(gen, gmask, to)
	if !won {
		return false
	}
	if !bare {
		rec.resp = *r
		for !rec.move(recClaimed, recDone) {
			// The owner's setQP moved the word; nothing else can.
		}
	}
	if parked {
		p.signals.Add(1)
		rec.ch <- struct{}{}
	}
	return true
}

// arm gives rec, the attempt its caller just submitted, a deadline in
// nanoseconds since the node started.
func (p *pendingTable) arm(rec *callRec, deadline int64) {
	rec.deadline.Store(max(deadline, 1))
	p.bounded.Add(1)
}

// disarm clears rec's deadline as its owner takes it out of the table.
func (p *pendingTable) disarm(rec *callRec) {
	if rec.deadline.Load() != 0 {
		rec.deadline.Store(0)
		p.bounded.Add(-1)
	}
}

// expire is the deadline sweep's visit to one table: every uncompleted
// record whose deadline (nanoseconds since the node started) has passed by
// now is completed with the expiry poison, so expiry reaches the waiter as
// a token exactly like QP poison and connection failure do. An expiry is
// late by at most the sweep period, never early. The deadline read belongs
// to the generation the claim names: a slot the owner reused since has
// moved its word on, and the claim fails.
func (p *pendingTable) expire(now int64) {
	if p.bounded.Load() == 0 {
		return
	}
	p.each(func(rec *callRec) {
		w := rec.word.Load()
		if st := w & stateMask; st != recPending && st != recParked {
			return
		}
		if d := rec.deadline.Load(); d != 0 && now >= d {
			p.resolve(rec, w>>genShift, genMask, &Response{err: ErrTimeout})
		}
	})
}

// complete resolves the record registered under id with r. It reports
// whether the record was live (a miss means the completion is stale — its
// attempt was abandoned and the slot freed or reused — or misrouted, and
// the caller drops it).
//
// mask says which bits of id the caller actually has: wholeSeq for a
// response off the wire, memSeqMask for a memory-op WRID, which carries
// the slot and the generation's low bits.
func (p *pendingTable) complete(id, mask uint64, r *Response) bool {
	if mutantOn(mutPipelineMisroute) && mask == wholeSeq {
		id = p.lastOutstanding(id)
	}
	rec := p.slot(id)
	return rec != nil && p.resolve(rec, (id&mask)>>slotBits, mask>>slotBits, r)
}

// takeDone frees a record its waiter saw resolved and returns its
// response. Only the waiter frees a done record, except the close-time
// drain, which marks it drained instead: then the response is gone and
// takeDone reports false.
func (p *pendingTable) takeDone(rec *callRec) (Response, bool) {
	p.disarm(rec)
	w := rec.word.Load()
	if w&stateMask != recDone || !rec.word.CompareAndSwap(w, w&^stateMask|recFree) {
		return Response{}, false // drained
	}
	r := rec.resp
	p.release(rec)
	return r, true
}

// abandon frees a record the waiter no longer wants (cancel, submit
// failure, shutdown mid-wait), outside any park: from pending, or from done
// recycling the response lease a completer stored, once a completer that
// has claimed it is done. If the close-time drain got there first the
// record is simply gone and its slot is not reused (the drain may still
// hold it).
func (p *pendingTable) abandon(rec *callRec) {
	p.disarm(rec)
	for {
		w := rec.word.Load()
		switch st := w & stateMask; st {
		case recDrained:
			return
		case recClaimed:
			runtime.Gosched() // the completer publishes done next
		default: // pending or done
			if !rec.word.CompareAndSwap(w, w&^stateMask|recFree) {
				continue
			}
			if st == recDone {
				rec.resp.Release()
			}
			p.release(rec)
			return
		}
	}
}

// failMatching completes every record riding QP qp (all records when qp is
// negative) with the poison response r. This is how recovery's poison burst
// is sized from the table: exactly the in-flight attempts on the broken
// QP, not a thread-wide counter that may have drifted.
func (p *pendingTable) failMatching(qp int32, r *Response) {
	p.each(func(rec *callRec) {
		w := rec.word.Load()
		if st := w & stateMask; (st == recPending || st == recParked) && (qp < 0 || qpOf(w) == qp) {
			p.resolve(rec, w>>genShift, genMask, r)
		}
	})
}

// drain releases the pooled leases of completed records no waiter has
// claimed. It runs at node close, after the node's loop and pollers are
// gone; a waiter racing it either frees its record first (and owns the
// response) or finds it drained and walks away.
func (p *pendingTable) drain() {
	p.each(func(rec *callRec) {
		w := rec.word.Load()
		if w&stateMask == recDone && rec.word.CompareAndSwap(w, w&^stateMask|recDrained) {
			rec.resp.Release()
			rec.resp = Response{}
		}
	})
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
	kind    opKind // opMem: the work request waits in the thread's memWR
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
	*p = Pending{}
	p.t, p.rpcID, p.payload, p.size, p.attempts = t, rpcID, payload, len(payload), max(opts.MaxAttempts, 1)
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
		p.heard = p.t.conn.qps[p.rec.qp()].heard.Load()
		d := now.Add(p.attemptWait)
		if !p.deadline.IsZero() && d.After(p.deadline) {
			d = p.deadline
		}
		p.t.pend.arm(p.rec, p.t.conn.node.sinceStart(d))
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
	q := c.qps[rec.qp()]
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
	if !rec.park() {
		// A completer claimed the record: it publishes done at once.
		for !rec.resolved() {
			runtime.Gosched()
		}
		return p.onDone()
	}
	select {
	case <-rec.ch:
	case <-c.closedCh():
		if rec.unpark() {
			return p.onClosed()
		}
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
	q := c.qps[p.rec.qp()]
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
