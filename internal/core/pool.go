package core

import (
	"runtime"

	"flock/internal/rnic"
)

// This file is the server's receive loop: pumpQP, the one function that pulls
// a message off a request ring and grants the QP's credit renewals, run by
// the server half of the node's loop (§4.3) and by its worker pool (§4.3's
// "application-managed pool of RPC workers") as Leader/Followers (Schmidt et
// al., POSA2) — the server half of the client's waiter-is-the-poller
// (dispatcher.go).
//
// The worker is the poller. A pool goroutine with nothing to execute polls
// the node's request rings for a stint (see stint). When it wins a QP's poll
// role it pulls one message, runs admission control and the inline lane,
// releases the role so a sibling can pull the next message, and executes the
// message's worker-lane handlers itself (runUnit) — no channel, no wake-up,
// and reply handles it reuses. The node's loop pumps the same way
// (relieveRings). Without a pool (Workers 0) it is the only pump and runs
// each message itself. With one it is relief: while a pool goroutine polls
// the rings it leaves them alone, and otherwise — every goroutine busy in a
// handler or parked — it pumps them and hands each worker-lane message to a
// parked goroutine through workCh, the one hand-off left, which it never
// blocks on. The last pool goroutine to stop polling arms the rings, so what
// lands after it wakes the loop.

// pumpQP grants the credit renewals on sqp's receive CQ, pulls at most one
// message off its request ring (its worker-lane reply handles built in
// *scratch's block, see repliesFor) and drains its send CQ, under the QP's
// poll role, taken inside enter/exit so recycleAccept's broken/inuse
// exclusion covers its holder. found is false when the QP is idle, under
// recycle, another goroutine holds the role (it is pumping for us), or the
// ring is empty. An idle QP — an idle ring and an empty receive CQ, since a
// leader out of credits posts its renewal alone — costs three loads and no
// role: the send CQ of a QP nobody writes to waits for its next message,
// and holds at most a sixteenth of the responses sent since the last one.
func (n *Node) pumpQP(sqp *serverQP, scratch **replyBlock, cqBuf []rnic.Completion) (u workUnit, found bool) {
	if sqp.reqCons.idle() && sqp.recvCQ.Len() == 0 || !sqp.enter() {
		return workUnit{}, false
	}
	if sqp.pumping.CompareAndSwap(false, true) {
		n.drainRenewals(sqp, cqBuf)
		u, found = n.pumpOne(sqp, scratch)
		sqp.drainSendCQ(cqBuf)
		sqp.pumping.Store(false)
	}
	sqp.exit()
	return u, found
}

// pumpOne pulls one message off sqp's request ring, runs its inline lane and
// returns its worker-lane requests as a unit whose reply handles are built in
// *scratch's block (see repliesFor). The caller holds the poll role inside
// enter/exit. found reports whether there was a message.
func (n *Node) pumpOne(sqp *serverQP, scratch **replyBlock) (u workUnit, found bool) {
	life := sqp.life.Load() // stable: the caller is inside enter/exit
	admit, end, ok := n.pull(sqp, life)
	if !ok {
		return workUnit{}, false
	}
	answered := 0
	if tab := n.handlerTable(); tab.anyInline {
		// Inline-lane RPCs execute here, before the rest of the message
		// reaches a worker: a replication apply or a ping never waits behind
		// workers whose handlers block.
		lane, keep := sqp.laneScratch[:0], admit[:0]
		for _, it := range admit {
			if tab.byID[it.meta.rpcID].inline {
				lane = append(lane, it)
			} else {
				keep = append(keep, it)
			}
		}
		answered = n.runInline(sqp, life, lane)
		clear(lane)
		sqp.laneScratch, admit = lane[:0], keep
	}
	if len(admit) == 0 {
		sqp.reqCons.finish(end)
		n.inflight.Add(-int64(answered))
		return workUnit{}, true
	}
	n.inflight.Add(-int64(answered))
	// The payloads stay views over the ring, finished by whoever executes the
	// unit after its flush; the unit's inuse count keeps a recycle from
	// zeroing the ring under them until then.
	sqp.inuse.Add(1)
	return workUnit{sqp: sqp, blk: n.repliesFor(scratch, sqp, life, admit), end: end}, true
}

// runUnit executes u's handlers on the calling goroutine, flushes the replies
// sent by the time each returned as one response message — an echo's reply
// views its request, so the flush comes first — finishes the message and
// drops the holds on u's reply block of the executor and of the replies it
// flushed. It reports whether those were the last, which leaves the block
// free for reuse; while a handler that kept its handle owes its reply, the
// block is theirs, and the Send that drops the last hold returns it to the
// node's freelist.
func (n *Node) runUnit(u workUnit, out *[]respOut) bool {
	o := n.executeAll(u.sqp, u.blk.replies, *out)
	u.finish()
	n.inflight.Add(-int64(len(o)))
	settled := len(o)
	clear(o) // drop the payload references until the next unit
	*out = o[:0]
	return u.blk.release(1 + settled)
}

// finish gives u's message's ring space back and drops the unit's inuse
// count on its QP.
func (u workUnit) finish() {
	u.sqp.reqCons.finish(u.end)
	u.sqp.exit()
}

// pumper is one pool goroutine's reusable state.
type pumper struct {
	id    int         // rotates where its rounds start within a connection
	stint stint       // rounds of the next stint
	blk   *replyBlock // the reply handles of the messages it pulls
	out   []respOut
	cqBuf [16]rnic.Completion
}

// worker is one pool goroutine. It pumps for a stint, executing what it
// pulls, and parks on workCh when a stint ends without a message: relief
// handed one off (which it then takes at once), the stint ran out, or enough
// siblings are polling.
func (n *Node) worker(id int) {
	defer n.wg.Done()
	w := &pumper{id: id, stint: stintMin}
	for {
		if u, ok := n.pumpStint(w); ok {
			if !n.runUnit(u, &w.out) {
				w.blk = nil
			}
			continue
		}
		select {
		case <-n.done:
			return
		case u := <-n.workCh:
			n.runHandedOff(u, &w.out)
		}
	}
}

// runHandedOff executes a message relief pumped and returns its reply
// handles to the node's freelist when the executor's hold was the last.
func (n *Node) runHandedOff(u workUnit, out *[]respOut) {
	if n.runUnit(u, out) {
		n.freeReplies(u.blk)
	}
}

// maxPollers is how many pool goroutines of a node may poll at once; the
// rest park. Two, so that one polls while the other executes what it pulled.
// On a 2-vCPU VM running kv_r0 (40 workers a member), one and two read the
// same throughput, but with one the rings went unpolled during every handler
// and relief pumped 7 % of the requests (0.5 % with two); with no bound,
// about seven goroutines a member polled at once and the run lost 6 % of its
// ops/s at 5 % more CPU per op (EXPERIMENTS.md, "Bounding the pollers").
const maxPollers = 2

// pumpStint polls every server QP, round after round, until it pulls a
// message with worker-lane requests, which it returns for the caller to
// execute. It gives up at once when maxPollers siblings are polling, when
// relief has handed a message off or when the node closes, and after
// w.stint rounds in a row that found no message.
func (n *Node) pumpStint(w *pumper) (workUnit, bool) {
	defer n.leaveRings()
	if n.pumpers.Add(1) > maxPollers {
		return workUnit{}, false
	}
	for idle := 0; idle < int(w.stint); {
		if n.closing() {
			return workUnit{}, false
		}
		if len(n.workCh) > 0 {
			return workUnit{}, false // relief handed a message off: take it
		}
		idle++
		for _, sc := range n.snapshotSconns() {
			for j := range sc.qps {
				u, found := n.pumpQP(sc.qps[(j+w.id)%len(sc.qps)], &w.blk, w.cqBuf[:])
				if !found {
					continue
				}
				if u.blk != nil {
					n.metrics.workerPumped.Add(uint64(len(u.blk.replies)))
					w.stint.found()
					return u, true
				}
				idle = 0 // a message with nothing left for a worker is still work
			}
		}
		runtime.Gosched()
	}
	w.stint.ranOut()
	return workUnit{}, false
}

// leaveRings ends a pool goroutine's stint. The last one to leave hands the
// rings to the node's loop: it arms them, and kicks the loop itself if one
// already holds something, which nobody may be polling for.
func (n *Node) leaveRings() {
	if n.pumpers.Add(-1) == 0 && n.armRings() {
		n.kick()
	}
}

// armRings arms every request ring and receive CQ for the node's loop and
// then looks once more, without the poll role: it reports whether one of
// them (of a QP not under recycle) has something a pump has not seen.
func (n *Node) armRings() (ready bool) {
	for _, sc := range n.snapshotSconns() {
		for _, sqp := range sc.qps {
			sqp.reqCons.mr.Arm()
			sqp.recvCQ.Arm()
			if !sqp.broken.Load() && (!sqp.reqCons.idle() || sqp.recvCQ.Len() > 0) {
				ready = true
			}
		}
	}
	return ready
}

// ringRelief is what run's server half keeps from pass to pass: the pump's
// scratch, the reply handles it builds the next message's in, and the
// hand-off backlog.
type ringRelief struct {
	cqBuf   [64]rnic.Completion
	out     []respOut
	backlog []workUnit
	spare   *replyBlock
}

// pumpBurst bounds the messages a pass of the node's loop pulls off one ring.
// A busy ring is best drained back to back: at one message a ring a pass,
// echo_contended's p50 read 10 % worse in 5 of 5 pairs on a 2-vCPU VM. A
// bound still ends the pass however steadily clients keep a ring full, so
// the loop gets round to the node's outbound QPs and its schedule.
const pumpBurst = 16

// relieveRings is run's server half. Without a pool it pumps every ring, up
// to pumpBurst messages each, and runs each message itself, in reply handles
// it reuses. With a pool it is relief for the rings no pool goroutine polls:
// while the pool serves them it leaves them; otherwise it pumps them and
// hands each worker-lane message to a parked pool goroutine, in reply
// handles taken from the node's freelist. A message workCh has no room for
// waits in r's backlog, oldest first, offered again before every pass, so
// the pump — and the inline lane with it — never stops behind a blocked
// pool. What clients have outstanding bounds the backlog, and so does
// AdmissionLimit when set; Close drops what is left. It returns how many
// messages it pulled.
func (n *Node) relieveRings(r *ringRelief) (pumped int) {
	r.backlog = n.handOff(r.backlog)
	if n.pumpers.Load() > 0 {
		return 0 // a pool goroutine is polling them
	}
	for _, sc := range n.snapshotSconns() {
		for _, sqp := range sc.qps {
			for range pumpBurst {
				u, found := n.pumpQP(sqp, &r.spare, r.cqBuf[:])
				if !found {
					break
				}
				pumped++
				switch {
				case u.blk == nil:
				case n.workCh == nil:
					if !n.runUnit(u, &r.out) {
						r.spare = nil
					}
				default:
					n.metrics.reliefPumped.Add(uint64(len(u.blk.replies)))
					r.spare = nil // the unit took it
					r.backlog = n.handOff(append(r.backlog, u))
				}
			}
		}
	}
	return pumped
}

// handOff offers backlog to parked pool goroutines, oldest first, without
// blocking, and returns what workCh had no room for, in backlog's storage.
func (n *Node) handOff(backlog []workUnit) []workUnit {
	for i, u := range backlog {
		select {
		case n.workCh <- u:
		default:
			rest := copy(backlog, backlog[i:])
			clear(backlog[rest:])
			return backlog[:rest]
		}
	}
	clear(backlog)
	return backlog[:0]
}

// dropUnit finishes a unit nobody will execute because the node closed and
// takes its requests off the admission count.
func (n *Node) dropUnit(u workUnit) {
	u.finish()
	n.inflight.Add(-int64(len(u.blk.replies)))
}
