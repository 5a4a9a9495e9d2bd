package core

import (
	"runtime"
	"sync/atomic"

	"flock/internal/rnic"
)

// This file implements FLock synchronization (§4.2): the thread combining
// queue (TCQ). Threads that want to use a shared QP enqueue themselves
// with an atomic swap on the queue tail, exactly like an MCS lock. The
// thread that finds a nil predecessor is the leader; it claims a bounded
// batch of queued requests, coalesces them into one message (RPC items)
// and one linked work-request chain (memory operations), posts the lot
// with a single doorbell, and hands leadership to the first unclaimed
// node.
//
// Compared to a spinlock around the QP (the FaRM-style baseline in
// internal/baseline/lockshare), every thread still "waits its turn", but
// the turn produces one combined network operation instead of N serialized
// ones — the entire point of the paper.

// opKind distinguishes what a TCQ node carries.
type opKind uint8

const (
	// opRPC is a coalescible RPC request (§4.2).
	opRPC opKind = iota
	// opMem is a one-sided memory or atomic operation; the leader links
	// these work requests into its single post (§6).
	opMem
)

// Node states / verdicts. waiting→leader, or
// waiting→claimed{→copy→claimed}→sent/migrate, or waiting→timedout.
//
// The claimed/timedout pair is the stall-guard protocol: a leader must win
// a CAS from waiting before touching a follower's node, and a follower
// gives up waiting only by winning the same CAS. Whoever wins owns the
// node; the loser walks away. A follower whose node was claimed can no
// longer time out — the leader's own waits are stall-bounded, so a verdict
// is guaranteed — and a leader never stages or posts a node it failed to
// claim.
const (
	stateWaiting  uint32 = iota
	stateLeader          // promoted: this thread must run the leader path
	stateClaimed         // leader owns the node; follower timeout disabled
	stateCopy            // follower: buffer assigned, copy payload now
	stateSent            // verdict: operation posted on the QP
	stateMigrate         // verdict: QP deactivated, re-submit on another QP
	stateAborted         // verdict: connection closing
	stateTimedOut        // follower abandoned the node after a stall timeout
)

// tcqNode is one thread's slot in the combining queue.
type tcqNode struct {
	next   atomic.Pointer[tcqNode]
	state  atomic.Uint32
	copied atomic.Uint32

	kind opKind

	// leaderCopies marks a node whose payload the leader writes into
	// staging itself instead of running the copy handshake: a node of a
	// chain longer than one (see Thread.submit).
	leaderCopies bool

	// opRPC fields.
	rpcID    uint32
	seqID    uint64
	threadID uint32
	idemKey  uint64 // nonzero marks the request idempotent (dedup-safe retry)
	payload  []byte
	bufOff   int // absolute staging offset assigned by the leader

	// opMem fields: the submitting thread's memWR, which it does not touch
	// again until the node's verdict, so the leader reads it in place.
	wr *rnic.SendWR
}

// tcq is the per-QP combining queue; Flock Tail in Figure 5.
type tcq struct {
	tail atomic.Pointer[tcqNode]
	// batch is claimBatch's scratch, owned by the leader from its claim to
	// its handoff — leadership hand-offs order access, as for the connQP's
	// other leader-owned scratch.
	batch []*tcqNode
}

// pushChain enqueues a pre-linked chain of nodes (first..last, next
// pointers already stored; one node is a chain with first == last) with the
// queue's one tail swap — the whole chain enters atomically, so a single
// leader claim can take all of it under one doorbell. Reports whether first
// became the leader.
func (q *tcq) pushChain(first, last *tcqNode) (leader bool) {
	prev := q.tail.Swap(last)
	if prev == nil {
		first.state.Store(stateLeader)
		return true
	}
	prev.next.Store(first)
	return false
}

// claimBatch collects up to max nodes starting at head (the leader's own
// node), following next pointers. A successor that has swapped the tail
// but not yet linked itself is awaited, as in MCS. The returned slice
// always starts with head and is the queue's scratch: the caller must be
// done with it by its handoff.
func (q *tcq) claimBatch(head *tcqNode, max int) []*tcqNode {
	if cap(q.batch) < max {
		q.batch = make([]*tcqNode, 0, max)
	}
	batch := append(q.batch[:0], head)
	cur := head
	for len(batch) < max {
		next := cur.next.Load()
		if next == nil {
			if q.tail.Load() == cur {
				break // genuinely last
			}
			// A successor is between swap and link; wait for it.
			for next == nil {
				runtime.Gosched()
				next = cur.next.Load()
			}
		}
		batch = append(batch, next)
		cur = next
	}
	return batch
}

// handoff passes leadership after the leader finished with batch. The
// first successor still waiting is promoted by CAS; successors that timed
// out and left are skipped (their abandoned nodes stay linked in the chain
// purely as stepping stones). If no live successor exists, the queue is
// closed out.
func (q *tcq) handoff(last *tcqNode) {
	cur := last
	for {
		next := cur.next.Load()
		if next == nil {
			if q.tail.CompareAndSwap(cur, nil) {
				return // queue empty
			}
			// A successor swapped the tail; wait for the link.
			for next == nil {
				runtime.Gosched()
				next = cur.next.Load()
			}
		}
		if next.state.CompareAndSwap(stateWaiting, stateLeader) {
			return
		}
		// The successor abandoned its node (timed out); keep walking.
		cur = next
	}
}
