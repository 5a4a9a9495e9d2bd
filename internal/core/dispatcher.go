package core

import (
	"runtime"
	"time"

	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// This file is the client-side response dispatcher (§4.3): a lightweight
// goroutine that polls every connection's response rings and send CQs,
// relaying responses to application threads by their tagged thread ID and
// demultiplexing memory-operation completions by wr_id. It never touches
// application logic, so one dispatcher comfortably covers many QPs.

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

// clientDispatch is the response dispatcher main loop.
func (n *Node) clientDispatch() {
	defer n.wg.Done()
	var cqBuf [64]rnic.Completion
	idle := 0
	for {
		select {
		case <-n.done:
			return
		default:
		}
		busy := false
		for _, c := range n.snapshotConns() {
			for _, q := range c.qps {
				// Broken QPs are owned by their recycler; the polling
				// counter tells it when the dispatcher has left.
				if q.broken.Load() {
					continue
				}
				q.polling.Add(1)
				if q.broken.Load() {
					q.polling.Add(-1)
					continue
				}
				// Response ring: deliver coalesced responses. The poll
				// buffer is retained once per delivered response and the
				// dispatcher's own reference dropped after the fan-out.
				for {
					h, items, mbuf, ok := q.respCons.poll()
					if !ok {
						break
					}
					busy = true
					q.prod.updateCached(h.piggyHead)
					n.trace.Record(telemetry.EvComplete, q.idx, 0, 0, uint64(len(items)))
					for i := range items {
						c.deliverResponse(&items[i], mbuf)
					}
					mbuf.Release()
				}
				// Send CQ: route memory-op and refresh completions.
				for {
					k := q.qp.SendCQ().Poll(cqBuf[:])
					if k == 0 {
						break
					}
					busy = true
					for _, comp := range cqBuf[:k] {
						c.routeSendCompletion(q, comp)
					}
				}
				q.polling.Add(-1)
			}
		}
		if busy {
			idle = 0
		} else {
			idle++
			idleBackoff(idle)
		}
	}
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
