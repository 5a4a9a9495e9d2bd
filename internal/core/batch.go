package core

import (
	"runtime"
	"time"

	"flock/internal/telemetry"
)

// This file is the batched submission path: SendBatch enqueues a thread's
// whole request batch into a QP's combining queue with one tail swap, so a
// single leader claims the lot and posts it under one doorbell — the
// combining win of §4.2 made available to one thread, not just to threads
// that happen to collide. Each request still gets its own completion
// record and Pending future; after submission the batch's calls are
// indistinguishable from CallAsync calls, with the same retry and dedup
// behaviour at Wait time.

// BatchOp is one request in a SendBatch submission.
type BatchOp struct {
	// RPCID selects the handler, as in Call.
	RPCID uint32
	// Payload is the request payload; it must stay untouched until the
	// op's Pending resolves (the combining leader may copy it late).
	Payload []byte
}

// SendBatch submits every op in one combining-queue entry and returns a
// Pending per op, index-aligned with ops. Every op runs the plan opts
// describe, exactly as CallAsync would. Ops that fail terminally during
// submission (node closing, submit deadline) come back as already-resolved
// Pendings — SendBatch itself errors only when nothing was submitted.
//
// The batch counts against the pipeline depth (DefaultPipelineDepth) in
// full: SendBatch blocks until the thread's pending-call table has room for
// len(ops) more. A batch larger than the depth itself is admitted once the
// table is empty — the depth bounds what is in flight ahead of a batch, not
// the size of one.
func (t *Thread) SendBatch(ops []BatchOp, opts CallOptions) ([]*Pending, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	c := t.conn
	o := &c.node.opts
	for _, op := range ops {
		if len(op.Payload) > o.test.maxPayload {
			return nil, ErrPayloadTooLarge
		}
	}
	if c.node.draining.Load() {
		return nil, ErrDraining
	}
	if c.isClosed() {
		return nil, c.closedErr()
	}
	if err := t.gatePipeline(len(ops)); err != nil {
		return nil, err
	}

	now := time.Now()
	pends := make([]*Pending, len(ops))
	nodes := make([]*tcqNode, len(ops))
	for i, op := range ops {
		p := new(Pending)
		t.newPending(p, op.RPCID, op.Payload, opts) //nolint:errcheck // payload validated above
		var depth int
		p.rec, depth = t.pend.register()
		c.node.pipeDepth.Observe(uint64(depth))
		p.started = now
		nodes[i] = t.batchNode(op, p)
		pends[i] = p
	}

	// Submit rounds: push the still-unsent subset as one pre-linked chain,
	// drive it to verdicts (running the leader protocol on any of our nodes
	// that gets promoted), and re-push migrated/timed-out ops on the next
	// QP choice with fresh nodes (a consumed node's state and link are
	// dirty).
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	deadline := pends[0].deadline
	for round := 0; len(idx) > 0; round++ {
		q := t.pickQP()
		chain := make([]*tcqNode, len(idx))
		var last *tcqNode
		for k, i := range idx {
			n := nodes[i]
			pends[i].rec.qp.Store(int32(q.idx))
			c.node.trace.Record(telemetry.EvEnqueue, q.idx, t.id, n.seqID, uint64(len(n.payload)))
			if last != nil {
				last.next.Store(n)
			}
			chain[k] = n
			last = n
		}
		q.tcq.pushChain(chain[0], last)
		verdicts := c.awaitBatch(t, q, chain)

		var redo []int
		sent, timedOut := false, false
		for k, v := range verdicts {
			i := idx[k]
			switch v {
			case stateSent:
				sent = true
				t.recordStat(len(ops[i].Payload))
			case stateTimedOut:
				timedOut = true
				fallthrough
			case stateMigrate:
				redo = append(redo, i)
			default: // stateAborted
				err := c.closedErr()
				t.pend.abandon(pends[i].rec)
				pends[i].rec = nil
				pends[i].fail(err)
			}
		}
		// The avoid rule of the single-submit path, batch-wide: a stalled
		// leader on this QP means re-elect elsewhere; a clean round clears
		// the grudge.
		if timedOut {
			t.avoidQP = int32(q.idx)
		} else if sent {
			t.avoidQP = -1
		}
		if len(redo) > 0 && !deadline.IsZero() && time.Now().After(deadline) {
			for _, i := range redo {
				t.pend.abandon(pends[i].rec)
				pends[i].rec = nil
				pends[i].fail(ErrTimeout)
			}
			redo = nil
		}
		for _, i := range redo {
			nodes[i] = t.batchNode(ops[i], pends[i])
		}
		if len(redo) > 0 {
			idleBackoff(round)
		}
		idx = redo
	}

	for _, p := range pends {
		if p.phase != pendDone {
			p.armAttempt() // made it onto the wire
		}
	}
	return pends, nil
}

// batchNode builds a fresh combining-queue node for one batch op. The node
// is flagged leaderCopies: the submitting thread polls the whole chain at
// once, so the copy handshake (which would ask this same goroutine to
// copy while it leads) is replaced by the leader writing the payload.
func (t *Thread) batchNode(op BatchOp, p *Pending) *tcqNode {
	return &tcqNode{
		kind:         opRPC,
		rpcID:        op.RPCID,
		seqID:        p.rec.seq,
		threadID:     t.id,
		idemKey:      p.idemKey,
		payload:      op.Payload,
		leaderCopies: true,
	}
}

// awaitBatch drives one pushed chain of batch nodes to final verdicts,
// index-aligned with chain. Any chain node promoted to leadership runs the
// leader protocol right here — its claimed siblings (ours included) get
// their verdicts from that run. The stall guard matches awaitVerdict: a
// node stuck waiting past StallTimeout with no progress anywhere in the
// chain is abandoned via the waiting→timedOut CAS. Batch nodes are
// leaderCopies, so no leader ever asks one to copy (stateCopy).
func (c *Conn) awaitBatch(th *Thread, q *connQP, chain []*tcqNode) []uint32 {
	verdicts := make([]uint32, len(chain))
	resolved := 0
	stall := c.node.opts.StallTimeout
	deadline := time.Now().Add(stall)
	spins := 0
	for resolved < len(chain) {
		progressed := false
		for i, n := range chain {
			if verdicts[i] != stateWaiting {
				continue
			}
			switch s := n.state.Load(); s {
			case stateSent, stateMigrate, stateAborted, stateTimedOut:
				verdicts[i] = s
				resolved++
				progressed = true
			case stateLeader:
				verdicts[i] = c.lead(th, q, n)
				resolved++
				progressed = true
			case stateWaiting:
				if spins%256 == 0 && time.Now().After(deadline) &&
					n.state.CompareAndSwap(stateWaiting, stateTimedOut) {
					verdicts[i] = stateTimedOut
					resolved++
					progressed = true
				}
			case stateClaimed:
				// A leader owns the node; its waits are stall-bounded, so a
				// verdict is coming.
			}
		}
		if progressed {
			deadline = time.Now().Add(stall)
		} else {
			spins++
			runtime.Gosched()
		}
	}
	return verdicts
}
