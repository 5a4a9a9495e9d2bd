package core

import (
	"runtime"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

// This file is QP fault recovery. A connection detects that one of its
// shared QPs broke — retry-budget exhaustion, flushed work requests, or a
// stall-guard trip — fails the in-flight operations on it with typed
// errors, and recycles the QP in the background: the rnic queue pairs on
// both ends are destroyed (flushing any straggling work requests still
// queued on the devices) and re-created, the rings are zeroed, and the
// credit state is re-bootstrapped. The memory regions and rkeys survive the
// recycle; only the queue pairs and the ring positions are new.
//
// A QP is judged on evidence pollQP stamps as it drains it — heard (a
// response arrived) and sent (a send completed OK) — never on the caller's
// patience. Three rules:
//
//   - Strike on silence. A deadline expiry strikes its QP only if the QP
//     routed no response during the attempt's wait, and timeoutStrikes
//     silent strikes in a row break it: a dead server end (its QP errored,
//     responses lost) is invisible to the client NIC, and an RDMA write
//     completes OK whatever state the responder is in, so only the silence
//     of the response ring tells. An expiry on a QP that keeps answering is
//     a slow server, and only counts in rpc_timeouts.
//   - Quarantine on the QP's own fault. A QP that breaks more than
//     DefaultFlapThreshold times in a row with no send of its own landing,
//     while its siblings' sends landed, is permanently retired so the
//     thread scheduler and the receiver-side QP scheduler redistribute its
//     load (graceful degradation). When every QP breaks together the fault
//     is the link's, and recycling rides it out (see flapping).
//   - A cut link fails the handshake. The recycle handshake stands in for
//     an out-of-band exchange, so when the fabric reports the peer cut for
//     good it fails, and with it the connection (ErrConnClosed).
//
// Exclusion protocol, client end: markBroken wins the broken flag, then
// the recycler waits for the leaders counter to drain and the QP's poll
// role to be free. From then on every leader bails out via active() and
// whoever takes the poll role — a waiter, a starved leader, the node's loop —
// sees broken under it and leaves without touching the ring or the CQ, so
// the recycler owns all of the QP's state; clearing broken is the release
// edge that republishes it. Server end: recycleAccept sets the
// server QP's broken flag, waits out the inuse counter — the pumps,
// redistribute, and every pulled message whose handlers may still read it on
// the request ring — and holds respMu against response flushers.

// leaderStallHook, when non-nil, runs at every leader-path entry. It
// exists so tests can wedge a leader in place and exercise the follower
// timeout / re-election path; production leaves it nil.
var leaderStallHook func(c *Conn, q *connQP)

// qpFailureStatus reports whether a completion status means the QP itself
// broke, as opposed to a per-operation protocol error.
func qpFailureStatus(st rnic.Status) bool {
	switch st {
	case rnic.StatusRetryExceeded, rnic.StatusWRFlush, rnic.StatusQPError, rnic.StatusRNRExceeded:
		return true
	}
	return false
}

// markBroken transitions a QP into the broken state exactly once: fails
// the in-flight operations of threads parked on it and starts the
// background recycle.
func (c *Conn) markBroken(q *connQP) {
	if q.disabled.Load() || q.broken.Swap(true) {
		return
	}
	c.failInflight(q, ErrQPBroken)
	n := c.node
	// Spawn under connMu so the Add cannot race Node.Close's final Wait
	// (Close closes done while holding connMu).
	n.connMu.Lock()
	if n.closing() {
		n.connMu.Unlock()
		return
	}
	n.wg.Add(1)
	n.connMu.Unlock()
	go c.recycleQP(q)
}

// failInflight releases threads whose operations were riding the broken
// QP: every pending-call record whose attempt — RPC or memory operation —
// was pushed on it is completed with a poison response carrying err. The
// poison burst is sized from the table itself, so it hits exactly the
// in-flight attempts on this QP and nothing else.
func (c *Conn) failInflight(q *connQP, err error) {
	if mutantOn(mutRecycleAckInflight) {
		err = nil // an empty OK, as if the server had answered
	}
	for _, t := range c.snapshotThreads() {
		t.pend.failMatching(int32(q.idx), &Response{err: err})
	}
}

// noteTimeout records one per-attempt RPC deadline expiry on the QP the
// attempt rode; heard is the QP's stamp when the attempt was armed. The
// expiry strikes the QP only if the stamp has not moved since, and
// timeoutStrikes strikes sharing one stamp break it.
func (c *Conn) noteTimeout(q *connQP, heard uint32) {
	c.node.metrics.timeouts.Add(1)
	if q.broken.Load() || q.disabled.Load() || q.heard.Load() != heard {
		return
	}
	q.strikeMu.Lock()
	if q.strikeHeard != heard {
		q.strikeHeard, q.strikes = heard, 0
	}
	q.strikes++
	strikeOut := q.strikes >= timeoutStrikes
	if strikeOut {
		q.strikes = 0
	}
	q.strikeMu.Unlock()
	if strikeOut {
		c.markBroken(q)
	}
}

// recycleQP is the background recovery goroutine for one broken QP.
func (c *Conn) recycleQP(q *connQP) {
	n := c.node
	defer n.wg.Done()
	if c.flapping(q) {
		c.quarantine(q)
		return
	}
	// Wait for straggler leaders and the poll role's holder to leave the QP;
	// they all observe broken and exit promptly.
	for q.leaders.Load() != 0 || q.polling.Load() {
		if c.isClosed() {
			return
		}
		runtime.Gosched()
	}
	oldQPN := q.qp.QPN()
	_, peerQPN := q.qp.Peer()
	// Destroy before zeroing: the old QP's WRs still queued in the device
	// flush as errors instead of landing, so no stale write can hit the
	// rings after the reset below.
	n.dev.DestroyQP(oldQPN)

	qp, err := n.dev.CreateQP(rnic.RC, n.dev.CreateCQ(), n.dev.CreateCQ())
	if err != nil {
		c.fail(ErrConnClosed)
		return
	}
	rnode := n.net.node(c.remote)
	if rnode == nil || n.net.fab.Cut(n.id, c.remote) {
		c.fail(ErrConnClosed)
		return
	}
	reply, err := rnode.recycleAccept(recycleArgs{
		clientNode:   n.id,
		oldServerQPN: peerQPN,
		newClientQPN: qp.QPN(),
	})
	if err != nil {
		c.fail(ErrConnClosed)
		return
	}
	if err := qp.Connect(int(c.remote), reply.serverQPN); err != nil {
		c.fail(ErrConnClosed)
		return
	}

	// Re-bootstrap the client end: empty rings, position zero, C credits,
	// QP active. MRs and rkeys are stable across the recycle.
	q.prod.reset()
	q.respCons.reset()
	q.consumed, q.askMark, q.askOut, q.askSnapshot = 0, 0, false, 0
	q.strikeMu.Lock()
	q.strikes = 0
	q.strikeMu.Unlock()
	q.ctrl.Store64(ctrlGrantedOff, uint64(n.opts.Credits))
	q.ctrl.Store64(ctrlActiveOff, 1)
	q.qp = qp
	n.metrics.recycles.Add(1)
	// Only now may the server end write again: a response (or a scheduler
	// control write) that landed before the zeroing above would have been
	// wiped with the server's ring tail already past it, and every later
	// response on this QP would sit where the consumer never looks.
	rnode.recycleResume(reply.serverQPN)
	// Release edge: republish the recycled state to leaders and pollers.
	q.broken.Store(false)
}

// flapping counts one more break of q and reports whether it earns
// quarantine: more than DefaultFlapThreshold breaks in a row with q's sent
// unmoved, while its siblings' sends landed before the previous break — so q
// went on breaking on a link that carried them. A send of q's own that
// landed since its last break starts a new streak. A link-wide outage
// breaks every QP together; it can end between two breaks of q, but then
// the life q is recycled into begins after it and lands its sends.
func (c *Conn) flapping(q *connQP) bool {
	if s := q.sent.Load(); q.streak == 0 || s != q.sentMark {
		q.streak, q.sentMark = 0, s
		q.siblingsMark = c.siblingsSent(q)
		q.siblingsLast = q.siblingsMark
	}
	q.streak++
	condemned := q.streak > DefaultFlapThreshold && q.siblingsLast != q.siblingsMark
	q.siblingsLast = c.siblingsSent(q)
	return condemned
}

// siblingsSent sums the sent stamps of q's sibling QPs.
func (c *Conn) siblingsSent(q *connQP) uint32 {
	var sum uint32
	for _, o := range c.qps {
		if o != q {
			sum += o.sent.Load()
		}
	}
	return sum
}

// quarantine permanently retires a QP that flapping condemned. The broken
// flag stays set (pollers keep skipping it) and disabled makes the
// retirement stick through active(). The server end is told so its
// scheduler stops granting and redistributes the active-QP budget. If no
// usable QP remains the connection is failed.
func (c *Conn) quarantine(q *connQP) {
	q.disabled.Store(true)
	c.node.metrics.quarantines.Add(1)
	_, peerQPN := q.qp.Peer()
	if rnode := c.node.net.node(c.remote); rnode != nil {
		rnode.quarantineServerQP(peerQPN)
	}
	for _, o := range c.qps {
		if !o.disabled.Load() {
			return
		}
	}
	c.fail(ErrConnClosed)
}

// recycleArgs is the client half of the out-of-band recycle handshake; it
// identifies the server QP by the number the client was connected to.
type recycleArgs struct {
	clientNode   fabric.NodeID
	oldServerQPN int
	newClientQPN int
}

// recycleReply carries the replacement server QP number. Ring rkeys are
// unchanged — the regions survive the recycle.
type recycleReply struct {
	serverQPN int
}

// recycleAccept is the server side of a QP recycle: destroy the broken
// server QP, build a fresh one on the old one's receive CQ (whose leftover
// completions drainRenewals ignores), zero the request ring, rewind both
// ring positions, and restore the credit bootstrap. The rebuilt end stays
// quiet until recycleResume. Runs on the
// client's recycle goroutine (the in-process stand-in for an out-of-band
// reconnect exchange).
func (n *Node) recycleAccept(a recycleArgs) (recycleReply, error) {
	if !n.Serving() {
		return recycleReply{}, ErrNotServing
	}
	sqp := n.byQPN.Load().(map[int]*serverQP)[a.oldServerQPN]
	if sqp == nil || sqp.sc.sender != a.clientNode {
		return recycleReply{}, ErrNoSuchNode
	}
	sqp.broken.Store(true)
	for sqp.inuse.Load() != 0 {
		if n.closing() {
			return recycleReply{}, ErrClosed
		}
		runtime.Gosched()
	}
	// respMu excludes response flushers (workers and inline dispatch);
	// broken+inuse excluded the pumps, redistribute's control writes and the
	// handlers of every message pulled off the request ring above.
	sqp.respMu.Lock()
	defer sqp.respMu.Unlock()
	sqp.life.Add(1) // replies still owed to the old life's requests are dropped

	n.dev.DestroyQP(a.oldServerQPN) // flush stragglers before ring zeroing
	qp, err := n.newServerQP(sqp.recvCQ, a.clientNode, a.newClientQPN)
	if err != nil {
		return recycleReply{}, err
	}
	sqp.reqCons.reset()
	sqp.respProd.reset()
	sqp.granted = uint64(n.opts.Credits)
	sqp.active.Store(true)
	n.sconnMu.Lock()
	sqp.qp = qp
	n.rebuildQPNIndexLocked()
	n.sconnMu.Unlock()
	n.metrics.recycles.Add(1)
	// The server end stays broken — its ring not polled, responses of the
	// QP's previous life dropped, no control writes — until the client has
	// rebuilt its own end and calls recycleResume.
	return recycleReply{serverQPN: qp.QPN()}, nil
}

// recycleResume is the second half of the recycle handshake: the client's
// end is rebuilt, so the server end built by recycleAccept goes live.
func (n *Node) recycleResume(serverQPN int) {
	if sqp := n.byQPN.Load().(map[int]*serverQP)[serverQPN]; sqp != nil {
		sqp.broken.Store(false)
		n.kick() // the rebuilt ring is the pumps' again: a parked loop looks
	}
}

// quarantineServerQP retires the server end of a client-quarantined QP so
// the pumps stop granting credits on it and redistribute excludes it.
func (n *Node) quarantineServerQP(qpn int) {
	sqp := n.byQPN.Load().(map[int]*serverQP)[qpn]
	if sqp == nil {
		return
	}
	sqp.quarantined.Store(true)
	sqp.active.Store(false)
	n.metrics.quarantines.Add(1)
}
