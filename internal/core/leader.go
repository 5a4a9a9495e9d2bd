package core

import (
	"errors"
	"runtime"
	"time"

	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// This file is the leader side of FLock synchronization: batch claiming,
// credit management, ring-space reservation, message staging, and the
// single linked post (§4.2, §6, §7).

// tenureEvery is the sampling period of the leader-tenure histogram: a
// thread times one leadership in tenureEvery, since a tenure is a few
// microseconds and its two clock reads would be a tenth of it.
const tenureEvery = 64

// lead executes the leader protocol for the batch headed by own. The
// leaders counter tells a QP recycler when straggling leaders have left;
// verdicts are only stored on nodes still owned by this leader (claimed
// during processBatch) — a node whose follower timed out and left is
// skipped.
func (c *Conn) lead(th *Thread, q *connQP, own *tcqNode) uint32 {
	q.leaders.Add(1)
	defer q.leaders.Add(-1)
	if leaderStallHook != nil {
		leaderStallHook(c, q)
	}
	var start time.Time
	timed := th.leads%tenureEvery == 0
	th.leads++
	if timed {
		start = c.node.clock()
	}
	batch := q.tcq.claimBatch(own, c.node.opts.MaxBatch)
	verdict := c.processBatch(th, q, batch)
	for _, n := range batch {
		if n != own && n.state.Load() != stateTimedOut {
			n.state.Store(verdict)
		}
	}
	q.tcq.handoff(batch[len(batch)-1])
	if timed {
		c.node.tenure.Observe(uint64(c.node.clock().Sub(start)))
	}
	return verdict
}

// leaderCopyMax is the largest follower payload the leader copies into
// staging itself. The copy handshake of §4.2 (assign the slot, wait for the
// follower to fill it) lets followers copy in parallel, which pays for
// payloads that take longer to copy than two cache lines take to change
// hands; below that the handshake is the cost, and where threads outnumber
// processors each half of it is a trip through the scheduler. 256 bytes is
// about where RDMA stacks stop inlining a payload into the work request.
const leaderCopyMax = 256

// processBatch coalesces the batch into one message plus linked memory
// work requests and posts everything with a single doorbell. It returns
// the verdict that applies to every node in the batch.
func (c *Conn) processBatch(th *Thread, q *connQP, batch []*tcqNode) uint32 {
	if c.isClosed() {
		return stateAborted
	}
	// The control words, read at most once a batch unless a wait below
	// needs them again.
	granted, active := q.leaderView()
	if !active {
		return stateMigrate
	}

	// Claim every follower node before using it: the CAS from waiting is
	// the race with the follower's stall timeout, and whoever wins owns
	// the node. A node the leader fails to claim was abandoned — its
	// follower already left to retry elsewhere — and must not be staged.
	rpc, mem := q.rpcScratch[:0], q.memScratch[:0]
	for _, n := range batch {
		if n != batch[0] && !n.state.CompareAndSwap(stateWaiting, stateClaimed) {
			if !mutantOn(mutClaimTimedOut) || n.state.Load() != stateTimedOut {
				continue // timed out and gone
			}
		}
		if n.kind == opRPC {
			rpc = append(rpc, n)
		} else {
			mem = append(mem, n)
		}
	}
	q.rpcScratch, q.memScratch = rpc[:0], mem[:0]

	opts := &c.node.opts
	wrs := q.wrScratch[:0]
	defer func() { q.wrScratch = wrs[:0] }()

	// Memory operations: link each thread's prepared work request (§6),
	// stamped on the batch's copy.
	for _, n := range mem {
		wrs = append(wrs, *n.wr)
		wr := &wrs[len(wrs)-1]
		wr.WRID = memWRID(n.threadID, n.seqID)
		wr.Signaled = true
	}

	if len(rpc) > 0 {
		// Credits gate RPC load on the server (§5.1); memory operations
		// bypass them since they consume no server CPU.
		var v uint32
		if granted, v = c.awaitCredits(q, len(rpc), granted); v != stateSent {
			return v
		}

		msgLen := 0
		for _, n := range rpc {
			msgLen += itemSpace(len(n.payload))
		}
		msgLen += headerBytes + trailerBytes

		res, v := c.awaitSpace(q, msgLen)
		if v != stateSent {
			return v
		}

		// Stage metadata and hand payload slots to followers; copy our
		// own payload directly.
		cursor := res.msgOff + headerBytes
		var metaBuf [itemMetaBytes]byte
		for _, n := range rpc {
			putItemMeta(metaBuf[:], itemMeta{
				size:     uint32(len(n.payload)),
				threadID: n.threadID,
				seqID:    n.seqID,
				rpcID:    n.rpcID,
				idemKey:  n.idemKey,
			})
			q.prod.staging.WriteAt(metaBuf[:], cursor) //nolint:errcheck // reserved span
			n.bufOff = cursor + itemMetaBytes
			cursor += itemSpace(len(n.payload))
			if mutantOn(mutBatchDropTail) && len(rpc) > 1 && n == rpc[len(rpc)-1] {
				n.copied.Store(1) // marked copied, never staged
			} else if n == batch[0] || n.leaderCopies || len(n.payload) <= leaderCopyMax {
				// Our own node, or a batch-submission node whose submitter
				// polls a whole chain at once: the leader copies the payload
				// itself — asking such a node's owner to copy could be asking
				// this very goroutine, which is busy leading. A small payload
				// it copies too: see leaderCopyMax.
				if len(n.payload) > 0 {
					q.prod.staging.WriteAt(n.payload, n.bufOff) //nolint:errcheck
				}
				n.copied.Store(1)
			} else {
				n.state.Store(stateCopy) // claimed above; follower copies
			}
		}

		// Poll the copy-completion flags (§4.2).
		for _, n := range rpc {
			for n.copied.Load() == 0 {
				runtime.Gosched()
			}
			n.copied.Store(0)
		}

		wrs = q.prod.seal(wrs, res, len(rpc), th.rng.Uint64(), q.respCons.consumed(), opts.SignalEvery)

		q.consumed += uint64(len(rpc))
		q.degrees.Add(uint64(len(rpc)))
		q.degHist.Observe(uint64(len(rpc)))
		c.node.degOut.Observe(uint64(len(rpc)))
		c.node.metrics.msgsOut.Add(1)
		c.node.metrics.itemsOut.Add(uint64(len(rpc)))
		c.node.trace.Record(telemetry.EvCombine, q.idx, th.id, 0, uint64(len(rpc)))
	}

	// Proactive renewal: ask for C more after consuming half (§5.1).
	if wr, ok := c.maybeRenew(q, granted); ok {
		wrs = append(wrs, wr)
	}

	if len(wrs) == 0 {
		return stateSent
	}
	if err := q.qp.PostSend(wrs...); err != nil {
		return c.postFailure(q, err)
	}
	c.node.trace.Record(telemetry.EvPost, q.idx, th.id, 0, uint64(len(wrs)))
	return stateSent
}

// postFailure classifies a PostSend error: a QP in (or entering) the error
// state is a QP failure (see sendFailed).
func (c *Conn) postFailure(q *connQP, err error) uint32 {
	return c.sendFailed(q, errors.Is(err, rnic.ErrQPErrorState) || errors.Is(err, rnic.ErrQPNotReady))
}

// sendFailed is the one verdict on a failed send, posted or completed: a
// failure of the QP itself (qpFailure) is recoverable by recycle, so the QP
// breaks and the batch migrates; anything else — a protocol-level error a
// fresh QP would just reproduce — is fatal to the connection.
func (c *Conn) sendFailed(q *connQP, qpFailure bool) uint32 {
	if qpFailure {
		c.markBroken(q)
		return stateMigrate
	}
	c.fail(ErrConnClosed)
	return stateAborted
}

// awaitCredits blocks (spinning) until the QP has `need` credits,
// requesting renewal as required, starting from granted, the batch's read
// of the control region. It returns the credits granted as it last saw
// them and stateSent on success, or a failure verdict. The wait is bounded
// by StallTimeout, counted from its first miss: a server whose QP end died
// stops granting, and the only way out is breaking the QP so the recycle
// re-bootstraps credits on both ends.
func (c *Conn) awaitCredits(q *connQP, need int, granted uint64) (uint64, uint32) {
	var deadline time.Time
	for spins := 0; ; spins++ {
		if granted-q.consumed >= uint64(need) {
			return granted, stateSent
		}
		if c.isClosed() {
			return granted, stateAborted
		}
		if !q.askOut {
			// No message to piggyback the ask on: post it alone.
			if err := q.qp.PostSend(q.renewalWR(granted)); err != nil {
				return granted, c.postFailure(q, err)
			}
		}
		if c.stalled(q, &deadline, spins) {
			return granted, stateMigrate
		}
		runtime.Gosched()
		var active bool
		if granted, active = q.leaderView(); !active {
			return granted, stateMigrate // credit request declined / QP deactivated
		}
	}
}

// stalled is the stall guard of a leader's wait on q, asked once per spin:
// the first ask reads the clock to set the deadline StallTimeout away, and
// after that one spin in 256 reads it against the deadline. A wait past it
// means credits or ring-head updates stopped flowing, which a recycle
// resolves by re-bootstrapping both ends: stalled counts it and breaks q.
func (c *Conn) stalled(q *connQP, deadline *time.Time, spins int) bool {
	if deadline.IsZero() {
		*deadline = c.node.clock().Add(c.node.opts.StallTimeout)
		return false
	}
	if spins%256 != 255 || !c.node.clock().After(*deadline) {
		return false
	}
	c.node.metrics.stalls.Add(1)
	c.markBroken(q)
	return true
}

// awaitSpace reserves ring space, refreshing the cached head with a
// one-sided read while the ring is full (reserveOrRefresh). Like
// awaitCredits the wait is stall-bounded: a flushed message write leaves a
// hole the strictly-in-order server consumer can never pass, so a full
// ring that never drains means the QP needs a recycle.
func (c *Conn) awaitSpace(q *connQP, msgLen int) (reservation, uint32) {
	var deadline time.Time
	for spins := 0; ; spins++ {
		res, ok, err := q.prod.reserveOrRefresh(q.qp, msgLen)
		switch {
		case ok:
			return res, stateSent
		case err != nil:
			return res, c.postFailure(q, err)
		case c.isClosed():
			return res, stateAborted
		case !q.active():
			return res, stateMigrate
		}
		// The refresh completes on our own QP's send CQ: poll it here rather
		// than wait for another goroutine to be scheduled. The poll role is
		// not the leader role, so holding q.leaders cannot deadlock it.
		c.pollQP(q, &c.node.metrics.waiterCompletions, false)
		if c.stalled(q, &deadline, spins) {
			return res, stateMigrate
		}
		runtime.Gosched()
	}
}

// maybeRenew builds a credit-renewal write-imm (§7) when the leader has
// consumed C/2 since the last ask and headroom, by the batch's read of
// granted, is shrinking. A leader that has not consumed C/2 since has
// nothing to ask.
func (c *Conn) maybeRenew(q *connQP, granted uint64) (rnic.SendWR, bool) {
	credits := uint64(c.node.opts.Credits)
	if q.consumed-q.askMark < credits/2 || q.askOut || granted-q.consumed >= credits {
		return rnic.SendWR{}, false
	}
	return q.renewalWR(granted), true
}

// renewalWR marks a renewal outstanding as of granted and builds its
// write-imm: piggybacked on a message by maybeRenew, posted alone by a leader
// starved of credits. The immediate carries the median coalescing degree
// since the last renewal — the QP contention metric of §5.1.
func (q *connQP) renewalWR(granted uint64) rnic.SendWR {
	q.askMark = q.consumed
	q.askOut = true
	q.askSnapshot = granted
	degree := min(max(q.degrees.Median(), 1), 0xFFFFFFFF)
	return rnic.SendWR{
		WRID: tagRenew, Op: rnic.OpWriteImm,
		RKey: q.prod.rkey, RemoteOff: 0,
		Imm: uint32(degree), ImmValid: true,
	}
}
