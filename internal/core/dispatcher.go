package core

import (
	"runtime"
	"time"

	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// This file is the client-side completion drain (§4.3) — pollQP, the one
// function that empties a QP's response ring and send CQ, routing responses
// by their tagged thread ID and memory-operation completions by wr_id — and
// the idle rule every poller of a node follows.
//
// The waiter is the poller. A thread waiting on a completion polls the QP its
// attempt rode (Pending.awaitAttempt), and a leader starved of ring space
// polls its own QP for the head refresh (awaitSpace). Each QP has a poll role
// taken with one CAS, as the software RNIC's processing unit is: the holder
// drains the QP for everyone, and a caller that loses the CAS leaves.
//
// Idle is a wait, as on a verbs completion channel: a poller that finds
// nothing — a waiter, a pool goroutine (pool.go), the node's loop (run) —
// polls on for its stint, then arms what it reads, polls once more and
// blocks. An armed ring or CQ signals its device's channel (rnic.Device.Wake)
// when the NIC next lands something there, and the node's loop, parked on it,
// drains or pumps what the parked waiter or pool goroutine left armed. Only
// what a parked poller reads is armed, so one-sided traffic into exported
// regions wakes nobody. A wait no landing ends pauses instead.

// Bounds of a poller's stint: a waiter's in polls of its attempt's QP, a pool
// goroutine's in rounds over the rings, the loop's in passes. A one-sided
// op's completion is usually there on the first poll and a loopback echo's a
// few dozen polls later (a poll and a yield cost about 0.15 us here), while a
// key-value call waits ~100 us behind a worker, so its caller parks after
// stintMin polls.
const (
	stintMin = 4
	stintMax = 256
)

// stint is a poller's budget of empty polls before it parks: doubled after a
// stint that found work, halved after one that ran out.
type stint int

func (s *stint) found()  { *s = min(2**s, stintMax) }
func (s *stint) ranOut() { *s = max(*s/2, stintMin) }

// idleNap is the package's one nap: a wait no landing ends (Drain, a pipeline
// slot, a re-election round, room on a full response ring) yields for
// stintMax rounds and then naps (pause), and the node's loop parks no longer
// while its hand-off backlog holds messages.
const idleNap = 20 * time.Microsecond

// pause is round i of a wait no landing ends.
func pause(i int) {
	if i < stintMax {
		runtime.Gosched()
	} else {
		time.Sleep(idleNap)
	}
}

// pollQP drains q under its poll role: the response ring into
// deliverResponse, the send CQ into routeSendCompletion. A pass that routed
// a response moves q.heard, one that routed an OK send completion q.sent:
// the evidence recovery.go judges the QP by. A broken QP belongs to its
// recycler, which waits for the role to be free and is excluded by the
// broken check made under it. It returns how many completions it routed and
// counts them in by — the waiter or the relief counter.
//
// A caller that loses the role's CAS leaves, since the holder is draining
// for it — unless it is about to block on q (arm): then it waits for the role,
// as the holder may have looked before the arm, and arms q's response ring
// and send CQ before it drains. A broken QP is not armed (its recycler
// poisons every record that rode it), nor a closing node's.
func (c *Conn) pollQP(q *connQP, by *telemetry.Counter, arm bool) int {
	for !q.polling.CompareAndSwap(false, true) {
		if !arm || c.node.closing() {
			return 0
		}
		runtime.Gosched()
	}
	n := 0
	if !q.broken.Load() {
		if arm {
			q.respCons.mr.Arm()
			q.qp.SendCQ().Arm()
		}
		// Response ring: the poll buffer is retained once per delivered
		// response and the poller's own reference dropped after the fan-out.
		for {
			h, items, mbuf, ok := q.respCons.poll()
			if !ok {
				break
			}
			q.prod.updateCached(h.piggyHead)
			c.node.trace.Record(telemetry.EvComplete, q.idx, 0, 0, uint64(len(items)))
			for i := range items {
				c.deliverResponse(&items[i], mbuf)
			}
			mbuf.Release()
			n += len(items)
		}
		if n > 0 {
			q.heard.Add(1) // recovery evidence: the server end answers
		}
		// Send CQ: memory-op and refresh completions, message-write errors.
		landed := false
		for k := q.qp.SendCQ().Poll(q.cqBuf[:]); k > 0; k = q.qp.SendCQ().Poll(q.cqBuf[:]) {
			for _, comp := range q.cqBuf[:k] {
				landed = landed || comp.Status == rnic.StatusOK
				c.routeSendCompletion(q, comp)
			}
			n += k
		}
		if landed {
			q.sent.Add(1) // recovery evidence: this QP's own sends land
		}
	}
	q.polling.Store(false)
	if n > 0 {
		by.Add(uint64(n))
	}
	return n
}

// relieveConns is run's client half. A QP is the loop's while a waiter is
// parked on it: relieveConns drains those, with arm set before the loop
// parks (one landing spends an arm, and the waiter may be waiting still),
// and every QP once the node is closing. The rest are their waiters', and
// the loop leaves them to the schedule's pass, which relieves the windows
// nobody waits on. It reports whether it drained something.
func (n *Node) relieveConns(all, arm bool) (busy bool) {
	for _, c := range n.snapshotConns() {
		for _, q := range c.qps {
			if (all || q.parked.Load() != 0) && c.pollQP(q, &n.metrics.reliefCompletions, arm) > 0 {
				busy = true
			}
		}
	}
	return busy
}

// deliverResponse routes one decoded response to its completion record in
// the owning thread's pending-call table, without copying: the Response's
// Data views the pooled message buffer, covered by a reference retained
// here. A table hit transfers that reference to the record's waiter (or
// the close-time drain); a miss means the attempt was abandoned — the
// response is stale and its reference dropped right here, which is the
// whole stale-response policy (no per-caller drop heuristics remain).
func (c *Conn) deliverResponse(it *decodedItem, mbuf *mem.Buf) {
	t := c.thread(it.meta.threadID)
	if t == nil {
		return // thread never registered; drop
	}
	mbuf.Retain()
	c.node.trace.Record(telemetry.EvDispatch, -1, it.meta.threadID, uint64(it.meta.seqID), uint64(len(it.data)))
	r := Response{
		Seq:    it.meta.seqID,
		RPCID:  it.meta.rpcID,
		Status: it.meta.status,
		Data:   it.data,
		buf:    mbuf,
		trace:  c.node.trace,
	}
	if !t.pend.complete(it.meta.seqID, wholeSeq, &r) {
		c.node.metrics.staleDrops.Add(1)
		r.Release()
	}
}

// routeSendCompletion demultiplexes one send-side completion by wr_id tag
// (§6): memory operations to their completion record, head refreshes to
// the request-ring producer. Any other failed send is classified by
// sendFailed.
func (c *Conn) routeSendCompletion(q *connQP, comp rnic.Completion) {
	switch comp.WRID & tagMask {
	case tagMem:
		// Resolve the record before breaking the QP, so the operation's
		// own completion is not counted stale behind the poison burst it
		// triggers. A miss is a completion for an operation whose waiter
		// gave up (deadline) or was already poisoned: dropped, like a
		// stale response. Any other error is the operation's own.
		if t := c.thread(memWRThread(comp.WRID)); t != nil &&
			!t.pend.complete(comp.WRID, memSeqMask, &Response{err: statusError(comp.Status)}) {
			c.node.metrics.staleDrops.Add(1)
		}
		if qpFailureStatus(comp.Status) {
			c.markBroken(q)
		}
		return
	case tagFresh:
		q.prod.applyRefresh(comp)
	}
	// Refreshes, message writes, markers, renewals: only errors matter.
	if comp.Status != rnic.StatusOK {
		c.sendFailed(q, qpFailureStatus(comp.Status))
	}
}
