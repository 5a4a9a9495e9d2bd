package core

import (
	"runtime"
	"time"

	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// This file is the client-side completion drain (§4.3): pollQP, the one
// function that empties a QP's response ring and send CQ — relaying
// responses to application threads by their tagged thread ID and
// demultiplexing memory-operation completions by wr_id — and relieveConns,
// the client half of the node's loop (run), which runs it for the QPs
// nobody else is draining.
//
// The waiter is the poller. A thread waiting on a completion polls the QP its
// attempt rode (Pending.awaitAttempt), and a leader starved of ring space
// polls its own QP for the head refresh (awaitSpace), so the common
// completion reaches its record on the goroutine that wants it, with no
// hand-off. Each QP has a poll role taken with one CAS, as the software
// RNIC's processing unit is (rnic.Device.unit): the holder drains the QP for
// everyone — other threads' records included, through the same table and
// token protocol — and a caller that loses the CAS leaves, because the holder
// is draining for it. The node's loop is relief: it skips a QP a waiter is
// serving and drains the rest — windows nobody waits on, QPs with a parked
// waiter, a leader's head refresh, everything at close.

// putLE64 writes v little-endian into b[:8].
func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// idleBackoff cooperatively de-schedules a polling loop that found no
// work: first yields, then sleeps briefly so idle nodes don't spin a core.
// The 2 us rung (about 8 us on this VM) stays: without it, eight quick
// sync-micro runs a side spread 246–308 K ops/s against 280–294 K with it,
// and echo_unloaded's median moved 4.9 → 5.3 us (EXPERIMENTS.md, PR 25).
func idleBackoff(idleRounds int) {
	switch {
	case idleRounds < 64:
		runtime.Gosched()
	case idleRounds < 1024:
		time.Sleep(2 * time.Microsecond)
	default:
		time.Sleep(50 * time.Microsecond)
	}
}

// pollQP drains q if its poll role is free: the response ring into
// deliverResponse, the send CQ into routeSendCompletion. A pass that routed
// a response moves q.heard, one that routed an OK send completion q.sent:
// the evidence recovery.go judges the QP by. A broken QP
// belongs to its recycler, which waits for the role to be free and is
// excluded by the broken check made under it. It returns how many
// completions it routed and counts them in by — the waiter or the relief
// counter.
func (c *Conn) pollQP(q *connQP, by *telemetry.Counter) int {
	if !q.polling.CompareAndSwap(false, true) {
		return 0 // the holder is draining for us
	}
	n := 0
	if !q.broken.Load() {
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
		for {
			k := q.qp.SendCQ().Poll(q.cqBuf[:])
			if k == 0 {
				break
			}
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

// reliefPeriod is how long the node's loop leaves a QP to the waiters after
// one of them was last seen polling it. Waiters mark themselves every few
// dozen polls, so a waiter that is still at it is never out of date; the
// period only decides how soon a window nobody waits on is relieved.
const reliefPeriod = 200 * time.Microsecond

// reliefNap is how long the node's loop sleeps after a pass that found
// nothing while pollers serve every QP it has: waiters theirs with none
// parked, the pool its rings.
const reliefNap = 50 * time.Microsecond

// leftToWaiter reports whether the node's loop may skip q this pass: no
// waiter is parked on it, no leader waits for a head refresh on it, and a
// waiter polled it within reliefPeriod. now is the loop's clock.
func (q *connQP) leftToWaiter(now time.Duration) bool {
	if q.parked.Load() != 0 || q.refreshPending.Load() {
		return false
	}
	if s := q.served.Load(); s != q.reliefMark {
		q.reliefMark, q.reliefAt = s, now
		return true
	}
	return q.reliefAt != 0 && now-q.reliefAt < reliefPeriod
}

// relieveConns is run's client half: it drains every outbound QP no waiter
// serves, and all of them when closing. busy reports that it drained
// something; left that it skipped a QP a waiter serves and found none
// parked on, or that the node has no outbound QP — either way a waiter is
// already polling, and spinning beside it would only take its processor.
func (n *Node) relieveConns(clk *passClock, closing bool) (busy, left bool) {
	conns := n.snapshotConns()
	parked, served := false, false
	for _, c := range conns {
		for _, q := range c.qps {
			if q.parked.Load() != 0 {
				parked = true
			} else if !closing && q.leftToWaiter(clk.since()) {
				served = true
				continue
			}
			if c.pollQP(q, &n.metrics.reliefCompletions) > 0 {
				busy = true
			}
		}
	}
	return busy, len(conns) == 0 || served && !parked
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
	if !t.pend.complete(it.meta.seqID, wholeSeq, r) {
		c.node.metrics.staleDrops.Add(1)
		r.Release()
	}
}

// routeSendCompletion demultiplexes one send-side completion by wr_id tag
// (§6): memory operations to their completion record, head refreshes to
// the producer cache. Error completions are classified: a QP failure (retry
// exhaustion, flush) triggers the recycle path, anything else — a
// protocol-level error that a fresh QP would just reproduce — fails the
// connection.
func (c *Conn) routeSendCompletion(q *connQP, comp rnic.Completion) {
	switch comp.WRID & tagMask {
	case tagMem:
		// Resolve the record before breaking the QP, so the operation's
		// own completion is not counted stale behind the poison burst it
		// triggers. A miss is a completion for an operation whose waiter
		// gave up (deadline) or was already poisoned: dropped, like a
		// stale response.
		if t := c.thread(memWRThread(comp.WRID)); t != nil &&
			!t.pend.complete(comp.WRID, memSeqMask, Response{err: statusError(comp.Status)}) {
			c.node.metrics.staleDrops.Add(1)
		}
		if qpFailureStatus(comp.Status) {
			c.markBroken(q)
		}
	case tagFresh:
		if comp.Status == rnic.StatusOK {
			q.prod.updateCached(q.readback.Load64(0))
			q.refreshPending.Store(false)
			return
		}
		q.refreshPending.Store(false)
		if qpFailureStatus(comp.Status) {
			c.markBroken(q)
		} else {
			c.fail(ErrConnClosed)
		}
	default:
		// Message writes, markers, renewals: only errors matter.
		if comp.Status == rnic.StatusOK {
			return
		}
		if qpFailureStatus(comp.Status) {
			c.markBroken(q)
		} else {
			c.fail(ErrConnClosed)
		}
	}
}
