package check

import (
	"fmt"

	"flock/internal/sim"
	"flock/internal/stats"
)

// This file is a step-level model of FLock's combining path — the MCS
// thread combining queue, transient-leader batching, credit gating, and QP
// break/recycle recovery of internal/core — rebuilt as an explicit state
// machine on internal/sim virtual time. Running it under the schedule
// explorer gives what the real goroutine implementation cannot: the SAME
// seed replays the SAME interleaving, every interesting race (leader
// handoff vs follower timeout, recycle vs in-flight batch, renewal vs
// starvation) is a scheduling decision the explorer controls, and a
// failing schedule shrinks to a minimal reproducer.
//
// Protocol fidelity notes, keyed to internal/core:
//
//   - push/claim/handoff mirror tcq.go: the first enqueuer on an idle
//     queue leads; a leader claims followers with a CAS-equivalent state
//     check that races the follower stall timeout; handoff skips
//     abandoned nodes (tcq.go handoff).
//   - credits gate posting as in leader.go awaitCredits, with renewal
//     grants arriving as scheduled events.
//   - a QP break fails queued nodes with a migrate verdict (safe retry:
//     nothing was sent) and turns posted-but-unresponded batches into
//     ambiguous outcomes, exactly the at-least-once window recovery.go
//     documents; a recycle event restores the QP and its credit bootstrap.
//   - with Pipeline > 1 each thread keeps a window of ops in flight, the
//     way a client drives CallAsync against the pending-call table: ops
//     are issued while the window has room and each completion refills it.
//     Every op carries its own generation and idempotency key, so retries
//     of one op interleave freely with its window-mates — the exact
//     completion-matching surface the per-call table exists to get right.
//
// The `flockmut` mutants (mutants_on.go) each break one of these rules
// the way a plausible implementation bug would.

// Workload selects the operation mix the simulated threads run, and
// thereby the model the history is checked against.
type Workload int

const (
	// WorkloadCounter: every thread fetch-adds a shared counter, then
	// reads it; checked with CounterModel. The most sensitive workload:
	// any duplicated or lost apply is visible.
	WorkloadCounter Workload = iota
	// WorkloadEcho: unique payloads echoed back; checked with EchoModel.
	WorkloadEcho
	// WorkloadKV: per-thread keys, monotonic put values, interleaved
	// gets; checked with RegisterModel (the sim applies puts exactly once
	// or marks them pending, so the exact register applies).
	WorkloadKV
)

func (w Workload) String() string {
	switch w {
	case WorkloadCounter:
		return "counter"
	case WorkloadEcho:
		return "echo"
	case WorkloadKV:
		return "kv"
	}
	return fmt.Sprintf("workload(%d)", int(w))
}

// Model returns the checker model matching the workload.
func (w Workload) Model() Model {
	switch w {
	case WorkloadEcho:
		return EchoModel()
	case WorkloadKV:
		return RegisterModel()
	default:
		return CounterModel()
	}
}

// SimConfig sizes one simulated run.
type SimConfig struct {
	Threads      int
	OpsPerThread int
	QPs          int
	MaxBatch     int
	Credits      int
	Workload     Workload
	// StallTimeout is the follower verdict wait bound (virtual time);
	// zero uses 10µs.
	StallTimeout sim.Time
	// AttemptTimeout, when nonzero, arms a per-attempt response deadline
	// (core's CallOpts attemptWait): a claimed op whose response has not
	// arrived by then is abandoned and resubmitted under the same
	// idempotency key. Zero disables attempt-level retries.
	AttemptTimeout sim.Time
	// Dedup models the server's dedup window (core.DefaultDedupWindow): each
	// op's first apply is memoized by idempotency key, and every later
	// copy — a retry racing its original, or a retry after an ambiguous
	// outcome — is answered from the memo without re-executing. With
	// Dedup set, ambiguous outcomes are retried to a definite result
	// instead of going pending, so the checker demands exactly-once.
	Dedup bool
	// Pipeline is the per-thread async window (core's CallAsync driven to
	// a fixed depth): each thread keeps up to Pipeline ops in flight and
	// issues a new one as soon as a completion frees a slot. Zero or one
	// is the classic synchronous client — one op at a time — and leaves
	// the frozen schedule pools' behavior untouched.
	Pipeline int
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 6
	}
	if c.QPs <= 0 {
		c.QPs = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.Credits <= 0 {
		c.Credits = 4
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 10 * sim.Microsecond
	}
	return c
}

// Virtual-time constants for the simulated pipeline.
const (
	simClaimDelay   = 200 * sim.Nanosecond
	simWireLatency  = 2 * sim.Microsecond
	simRenewDelay   = 1 * sim.Microsecond
	simRecycleDelay = 5 * sim.Microsecond
	simMaxJitter    = 1 * sim.Microsecond
	// simMaxRetries bounds per-op resubmissions under hostile schedules;
	// past it the op is recorded pending (ambiguous), never dropped.
	simMaxRetries = 64
)

// Node states, mirroring tcq.go's waiting/claimed/timedout protocol.
const (
	snWaiting = iota
	snClaimed
	snTimedOut
)

// simOp is one client operation: the unit the recorder sees. With
// pipelining a thread owns several live simOps at once, so everything the
// classic sim kept per-thread — the attempt generation, the retry count,
// the idempotency key, the recorder call token — lives here. A simNode is
// one enqueue attempt of one simOp; stale attempts are recognized by
// generation mismatch exactly as before.
type simOp struct {
	th      *simThread
	idx     int    // op number within the thread
	call    int64  // recorder invocation token
	gen     int    // attempt generation; stale responses are ignored
	key     uint64 // idempotency key, stable across retries of this op
	slot    int    // pipeline slot, for the recorded client identity
	retries int
	done    bool
}

type simNode struct {
	sop   *simOp
	state int
	gen   int // sop.gen captured at enqueue; stale attempts are skipped
}

type simMsg struct {
	qp    *simQP
	nodes []*simNode
	// dropped are nodes a mutant staged out of the message (acked but
	// never applied); empty in correct runs.
	dropped []*simNode
	// poisoned marks the message lost to a QP break before delivery.
	poisoned bool
	// outs are the per-node results captured at server apply time.
	outs []interface{}
}

type simQP struct {
	idx        int
	queue      []*simNode // arrival order; leaderNode at front when leading
	leading    bool
	leaderNode *simNode
	credits    int
	broken     bool
	stallUntil sim.Time // leader-stall window: claims defer past it
	starveTill sim.Time // credit-starvation window: grants defer past it
	delayTill  sim.Time // delivery-delay window: posts get extra latency
	delayExtra sim.Time
	inflight   []*simMsg
}

type simThread struct {
	id       int
	issued   int // ops handed to the pipeline so far (next op index)
	inflight int // live ops in the window
	qp       int
	done     bool
	slots    []int // free pipeline slots, reused as completions land
}

func (th *simThread) popSlot() int {
	s := th.slots[len(th.slots)-1]
	th.slots = th.slots[:len(th.slots)-1]
	return s
}

func (th *simThread) pushSlot(s int) { th.slots = append(th.slots, s) }

type simWorld struct {
	cfg   SimConfig
	depth int // per-thread issue window; 1 = synchronous
	eng   *sim.Engine
	rng   *stats.RNG
	rec   *Recorder
	mut   Mutation
	qps   []*simQP
	thr   []*simThread
	kv    map[uint64]uint64
	count uint64
	alive int
	// memo is the dedup window: first-apply output by idempotency key.
	memo      map[uint64]interface{}
	dedupHits int
	retried   int
	// pipelined counts ops issued while the same thread already had one in
	// flight — the vacuity signal for the pipelining suite.
	pipelined int
	// Service-time inflation window (the overload perturbation): responses
	// computed while now < inflateTill take inflateExtra longer.
	inflateTill  sim.Time
	inflateExtra sim.Time
}

func newSimWorld(cfg SimConfig, seed uint64, mut Mutation) *simWorld {
	cfg = cfg.withDefaults()
	depth := cfg.Pipeline
	if depth < 1 {
		depth = 1
	}
	w := &simWorld{
		cfg:   cfg,
		depth: depth,
		eng:   sim.New(),
		rng:   stats.NewRNG(seed*0x9E3779B97F4A7C15 + 0x1234567),
		rec:   NewRecorder(),
		mut:   mut,
		kv:    make(map[uint64]uint64),
		memo:  make(map[uint64]interface{}),
		alive: cfg.Threads,
	}
	for i := 0; i < cfg.QPs; i++ {
		w.qps = append(w.qps, &simQP{idx: i, credits: cfg.Credits})
	}
	for i := 0; i < cfg.Threads; i++ {
		th := &simThread{id: i, qp: i % cfg.QPs}
		for s := depth - 1; s >= 0; s-- {
			th.slots = append(th.slots, s) // pop order: slot 0 first
		}
		w.thr = append(w.thr, th)
	}
	return w
}

func (w *simWorld) jitter() sim.Time {
	return sim.Time(w.rng.Uint64n(uint64(simMaxJitter) + 1))
}

// clientID is the recorded process identity of one op. Synchronous threads
// keep their thread id; pipelined ops are keyed by (thread, slot) so two
// ops that genuinely overlap in time are distinct clients to the checker —
// the same way each pending-call-table entry is its own completion.
func (w *simWorld) clientID(op *simOp) int {
	if w.depth <= 1 {
		return op.th.id
	}
	return op.th.id*w.depth + op.slot
}

// opInput builds thread th's op number k. The last op of every thread is a
// read/get observer, which is what makes lost or duplicated applies
// visible to the checker.
func (w *simWorld) opInput(th *simThread, k int) interface{} {
	last := k == w.cfg.OpsPerThread-1
	switch w.cfg.Workload {
	case WorkloadEcho:
		return EchoIn{Payload: fmt.Sprintf("t%d-op%d", th.id, k)}
	case WorkloadKV:
		key := uint64(th.id % 2) // shared keys: cross-thread visibility
		if last || (k > 0 && k%3 == 0) {
			return KVIn{Key: key}
		}
		return KVIn{Key: key, Put: true, Val: uint64(th.id+1)<<32 | uint64(k+1)}
	default:
		if last {
			return CounterIn{}
		}
		return CounterIn{Add: true, Delta: 1}
	}
}

// apply executes one op against the server state, returning its output.
func (w *simWorld) apply(in interface{}) interface{} {
	switch op := in.(type) {
	case EchoIn:
		return EchoOut{Payload: op.Payload}
	case KVIn:
		if op.Put {
			w.kv[op.Key] = op.Val
			return KVOut{}
		}
		v, ok := w.kv[op.Key]
		return KVOut{Val: v, Found: ok}
	case CounterIn:
		if op.Add {
			old := w.count
			w.count += op.Delta
			return CounterOut{Val: old}
		}
		return CounterOut{Val: w.count}
	}
	return nil
}

// startOp refills thread th's issue window (or finishes the thread). At
// depth 1 this is the classic one-op-at-a-time loop; deeper windows issue
// until full, and every completion calls back here to top the window up.
func (w *simWorld) startOp(th *simThread) {
	for !th.done && th.inflight < w.depth && th.issued < w.cfg.OpsPerThread {
		op := &simOp{
			th:   th,
			idx:  th.issued,
			key:  uint64(th.id+1)<<32 | uint64(th.issued+1),
			slot: th.popSlot(),
		}
		op.call = w.rec.Begin()
		th.issued++
		th.inflight++
		if th.inflight > 1 {
			w.pipelined++
		}
		w.enqueueOp(op)
	}
	if !th.done && th.inflight == 0 && th.issued >= w.cfg.OpsPerThread {
		th.done = true
		w.alive--
	}
}

// finishOp records the op's outcome, frees its window slot, and refills.
func (w *simWorld) finishOp(op *simOp, out interface{}, pending bool) {
	th := op.th
	in := w.opInput(th, op.idx)
	if pending {
		w.rec.EndPending(w.clientID(op), op.call, in)
	} else {
		w.rec.End(w.clientID(op), op.call, in, out)
	}
	op.done = true
	op.gen++ // belt and braces: no in-flight attempt can match again
	th.pushSlot(op.slot)
	th.inflight--
	w.eng.After(w.jitter(), func() { w.startOp(th) })
}

// resubmit retries the op's current attempt on another QP (migrate /
// follower re-election). Past the retry bound the op goes pending.
func (w *simWorld) resubmit(op *simOp, avoid int) {
	op.gen++
	op.retries++
	if op.retries > simMaxRetries {
		w.finishOp(op, nil, true)
		return
	}
	if len(w.qps) > 1 {
		next := (avoid + 1 + w.rng.Intn(len(w.qps)-1)) % len(w.qps)
		op.th.qp = next
	}
	w.eng.After(w.jitter(), func() { w.enqueueOp(op) })
}

// enqueueOp pushes one op attempt onto its thread's QP's combining queue —
// tcq.pushChain with a chain of one. The first enqueuer on an idle queue leads.
func (w *simWorld) enqueueOp(op *simOp) {
	if op.done || op.th.done {
		return
	}
	q := w.qps[op.th.qp]
	n := &simNode{
		sop:   op,
		state: snWaiting,
		gen:   op.gen,
	}
	q.queue = append(q.queue, n)
	if w.cfg.AttemptTimeout > 0 {
		gen := op.gen
		w.eng.After(w.cfg.AttemptTimeout, func() { w.attemptExpire(op, gen) })
	}
	if !q.leading {
		q.leading = true
		q.leaderNode = n
		n.state = snClaimed // the leader's own node cannot time out
		w.scheduleClaim(q)
		return
	}
	// Follower: arm the stall timeout (awaitChain's deadline).
	w.eng.After(w.cfg.StallTimeout, func() { w.followerTimeout(q, n) })
}

// followerTimeout is awaitChain's stall path: if no leader claimed the
// node, abandon it and re-elect on another QP.
func (w *simWorld) followerTimeout(q *simQP, n *simNode) {
	if n.state != snWaiting {
		return // claimed (or already resolved): the timeout no longer applies
	}
	if n.gen != n.sop.gen || n.sop.done {
		// The op already abandoned this attempt (attempt deadline) or
		// completed; just mark the node so the handoff chain skips it.
		n.state = snTimedOut
		return
	}
	n.state = snTimedOut
	w.resubmit(n.sop, q.idx)
}

// attemptExpire is the per-attempt response deadline (CallOpts's
// attemptWait): if the op attempt armed at generation gen is still the
// op's current one, abandon it and resubmit under the same idempotency
// key. The stale copy may still be claimed, posted, and applied — exactly
// the duplication window the dedup memo absorbs.
func (w *simWorld) attemptExpire(op *simOp, gen int) {
	if op.done || op.gen != gen {
		return
	}
	w.retried++
	w.resubmit(op, op.th.qp)
}

func (w *simWorld) scheduleClaim(q *simQP) {
	w.eng.After(simClaimDelay, func() { w.leadClaim(q) })
}

// leadClaim is the leader path: claim a batch, gate on credits, stage,
// post, hand off. Mirrors leader.go processBatch.
func (w *simWorld) leadClaim(q *simQP) {
	now := w.eng.Now()
	if now < q.stallUntil {
		// Leader-stall perturbation: the leader is descheduled; its
		// followers' timeouts keep running — the re-election race window.
		w.eng.At(q.stallUntil, func() { w.leadClaim(q) })
		return
	}
	if q.broken {
		w.failQueue(q)
		return
	}
	if q.leaderNode == nil {
		q.leading = len(q.queue) > 0
		if !q.leading {
			return
		}
		q.leaderNode = q.queue[0]
		q.leaderNode.state = snClaimed
	}

	// Claim up to MaxBatch nodes from the queue front. The leader's own
	// node is first; followers are claimed only if still waiting — unless
	// the claim mutant skips the CAS and stages abandoned nodes too.
	var batch []*simNode
	rest := q.queue
	for len(batch) < w.cfg.MaxBatch && len(rest) > 0 {
		n := rest[0]
		if n == q.leaderNode || n.state == snWaiting || mutantOn(w.mut, MutClaimTimedOut) {
			if n.state == snWaiting {
				n.state = snClaimed
			}
			batch = append(batch, n)
			rest = rest[1:]
			continue
		}
		if n.state == snTimedOut {
			rest = rest[1:] // abandoned node: skip, drop from the chain
			continue
		}
		break
	}
	q.queue = rest

	// Credit gate (awaitCredits): wait for a renewal grant when short.
	if q.credits < len(batch) {
		grantAt := now + simRenewDelay
		if grantAt < q.starveTill {
			grantAt = q.starveTill // starvation perturbation defers grants
		}
		// Put the batch back and retry the claim at grant time.
		q.queue = append(batch, q.queue...)
		w.eng.At(grantAt, func() {
			q.credits += w.cfg.Credits
			w.leadClaim(q)
		})
		return
	}
	q.credits -= len(batch)

	// Stage and post. The drop-tail mutant stages all but the last item
	// of a multi-item batch while still acking the whole batch.
	msg := &simMsg{qp: q, nodes: batch}
	if mutantOn(w.mut, MutBatchDropTail) && len(batch) > 1 {
		msg.dropped = batch[len(batch)-1:]
		msg.nodes = batch[:len(batch)-1]
	}
	q.inflight = append(q.inflight, msg)
	delay := simWireLatency
	if now < q.delayTill {
		delay += q.delayExtra
	}
	w.eng.After(delay, func() { w.deliver(msg) })

	// Handoff (tcq.handoff): promote the first still-waiting successor,
	// skipping abandoned nodes.
	q.leaderNode = nil
	for len(q.queue) > 0 && q.queue[0].state == snTimedOut {
		q.queue = q.queue[1:]
	}
	if len(q.queue) == 0 {
		q.leading = false
		return
	}
	q.leaderNode = q.queue[0]
	q.leaderNode.state = snClaimed
	w.scheduleClaim(q)
}

// failQueue gives every queued node a migrate verdict — the batch was
// never posted, so resubmitting elsewhere is an exact retry.
func (w *simWorld) failQueue(q *simQP) {
	nodes := q.queue
	q.queue = nil
	q.leading = false
	q.leaderNode = nil
	for _, n := range nodes {
		if n.state == snTimedOut || n.gen != n.sop.gen || n.sop.done {
			// Abandoned attempts resubmitted themselves already; migrating
			// them again would double-enqueue the op.
			continue
		}
		n.state = snClaimed
		w.resubmit(n.sop, q.idx)
	}
}

// deliver is the message landing in the server's ring: apply each item and
// schedule the response. With Dedup, each item consults the memo first —
// a retried copy of an already-applied op is answered from the cache, the
// exactly-once guarantee server.go's execute gives idempotency-keyed
// requests. Service-time inflation (the overload perturbation) stretches
// the apply-to-respond latency, which is what pushes attempts past their
// deadline and manufactures retries.
func (w *simWorld) deliver(msg *simMsg) {
	if msg.poisoned {
		return // lost to a QP break before reaching the server
	}
	msg.outs = make([]interface{}, len(msg.nodes))
	for i, n := range msg.nodes {
		if w.cfg.Dedup && !mutantOn(w.mut, MutDedupSkip) {
			if out, ok := w.memo[n.sop.key]; ok {
				w.dedupHits++
				msg.outs[i] = out
				continue
			}
		}
		out := w.apply(w.opInput(n.sop.th, n.sop.idx))
		if w.cfg.Dedup {
			// The mutant forgets to *check* the window, not to fill it.
			w.memo[n.sop.key] = out
		}
		msg.outs[i] = out
	}
	delay := simWireLatency
	if w.eng.Now() < w.inflateTill {
		delay += w.inflateExtra
	}
	w.eng.After(delay, func() { w.respond(msg) })
}

// respond delivers verdicts and outputs back to the batch's threads.
func (w *simWorld) respond(msg *simMsg) {
	q := msg.qp
	for i := range q.inflight {
		if q.inflight[i] == msg {
			q.inflight = append(q.inflight[:i], q.inflight[i+1:]...)
			break
		}
	}
	if msg.poisoned {
		return
	}
	if q.broken {
		// Responses lost with the QP: outcomes are ambiguous (the server
		// did apply); threads see the break via failInflight.
		w.ambiguous(msg)
		return
	}
	if mutantOn(w.mut, MutPipelineMisroute) {
		w.misroutePair(msg)
	}
	for i, n := range msg.nodes {
		w.respondNode(n, msg.outs[i])
	}
	// Drop-tail mutant: the dropped item was never applied, but the
	// leader acks it anyway with whatever its unstaged slot held.
	for _, n := range msg.dropped {
		w.respondNode(n, w.fabricatedOut(n))
	}
}

// misroutePair is the pipelining mutant: when a response message carries
// two ops of the SAME thread — only possible once a thread pipelines, a
// synchronous thread never has two live ops in one batch — the completion
// path swaps their outputs. This is precisely the bug a per-call
// completion table exists to prevent: matching a response to whichever of
// the thread's outstanding calls happens to be waiting, instead of to the
// call whose sequence number it carries.
func (w *simWorld) misroutePair(msg *simMsg) {
	for i := 0; i < len(msg.nodes); i++ {
		for j := i + 1; j < len(msg.nodes); j++ {
			if msg.nodes[i].sop.th == msg.nodes[j].sop.th {
				msg.outs[i], msg.outs[j] = msg.outs[j], msg.outs[i]
				return
			}
		}
	}
}

// respondNode completes one node's op, ignoring stale generations (the op
// already timed out and resubmitted this attempt) and completed ops.
func (w *simWorld) respondNode(n *simNode, out interface{}) {
	op := n.sop
	if n.gen != op.gen || op.done {
		return
	}
	w.finishOp(op, out, false)
}

// ambiguous handles ops whose outcome was lost with their QP. Without
// dedup the op may or may not have taken effect, so it is recorded
// pending. With dedup the client retries under the same key instead: if
// the apply landed, the retry replays the memoized result; if not, it
// executes fresh — either way the outcome becomes definite, which is the
// whole point of idempotency-keyed retries.
func (w *simWorld) ambiguous(msg *simMsg) {
	for _, n := range append(append([]*simNode{}, msg.nodes...), msg.dropped...) {
		op := n.sop
		if n.gen != op.gen || op.done {
			continue
		}
		if w.cfg.Dedup {
			w.retried++
			w.resubmit(op, msg.qp.idx)
			continue
		}
		w.finishOp(op, nil, true)
	}
}

// fabricatedOut is what an unstaged response slot reads as: the zero
// value — a stale buffer in the real system.
func (w *simWorld) fabricatedOut(n *simNode) interface{} {
	switch w.cfg.Workload {
	case WorkloadEcho:
		return EchoOut{}
	case WorkloadKV:
		return KVOut{}
	default:
		return CounterOut{}
	}
}

// breakQP is the QP-break perturbation: in-flight messages become
// poisoned or ambiguous, queued nodes migrate, and a recycle event
// restores the QP after a delay — recovery.go's markBroken/recycleQP.
func (w *simWorld) breakQP(q *simQP, recycleAfter sim.Time) {
	if q.broken {
		return
	}
	q.broken = true
	inflight := q.inflight
	q.inflight = nil
	for _, msg := range inflight {
		if mutantOn(w.mut, MutRecycleAckInflight) {
			// Recovery mutant: recycle acks the in-flight batch as sent
			// instead of failing it — fabricated results for messages the
			// server may never have seen.
			m := msg
			m.poisoned = true
			for _, n := range m.nodes {
				w.respondNode(n, w.fabricatedOut(n))
			}
			continue
		}
		if msg.outs == nil {
			// Not yet delivered: the write flushes with the QP; the
			// client cannot know that, so the outcome is ambiguous.
			msg.poisoned = true
		}
		w.ambiguous(msg)
	}
	w.failQueue(q)
	if recycleAfter <= 0 {
		recycleAfter = simRecycleDelay
	}
	w.eng.After(recycleAfter, func() {
		q.broken = false
		q.credits = w.cfg.Credits
		q.stallUntil, q.starveTill = 0, 0
	})
}

// redistribute is the QP-redistribution perturbation: rotate every
// thread's assignment, as the receiver-side scheduler shuffling the
// active set would.
func (w *simWorld) redistribute() {
	for _, th := range w.thr {
		th.qp = (th.qp + 1) % len(w.qps)
	}
}

// run executes the whole simulation and returns the recorded history plus
// whether every thread completed (false = the harness deadlocked, itself
// a protocol bug).
func (w *simWorld) run(sched Schedule) (history []Operation, completed bool) {
	for _, p := range sched.Perturbs {
		p := p
		w.eng.At(p.At, func() { w.applyPerturb(p) })
	}
	for _, th := range w.thr {
		th := th
		w.eng.After(w.jitter(), func() { w.startOp(th) })
	}
	w.eng.Drain()
	return w.rec.History(), w.alive == 0
}

func (w *simWorld) applyPerturb(p Perturbation) {
	if p.QP >= len(w.qps) {
		p.QP = 0
	}
	q := w.qps[p.QP]
	switch p.Kind {
	case PerturbLeaderStall:
		q.stallUntil = w.eng.Now() + p.Dur
	case PerturbQPBreak:
		w.breakQP(q, p.Dur)
	case PerturbDeliveryDelay:
		q.delayTill = w.eng.Now() + 4*p.Dur
		q.delayExtra = p.Dur
	case PerturbCreditStarve:
		q.starveTill = w.eng.Now() + p.Dur
	case PerturbRedistribute:
		w.redistribute()
	case PerturbServiceInflate:
		// Overload: the server's service time inflates for a window (the
		// QP field is ignored — handler execution is shared). Responses
		// slip past attempt deadlines, manufacturing retries.
		w.inflateTill = w.eng.Now() + 4*p.Dur
		w.inflateExtra = p.Dur
	}
}
