package core

import (
	"sync"
	"sync/atomic"

	"flock/internal/fabric"
	"flock/internal/resilience"
	"flock/internal/rnic"
	"flock/internal/stats"
)

// This file is the server side: connection acceptance, request admission,
// handler execution and coalesced response flushing. The receive loop — the
// node loop's server half (§4.3) and the RPC worker pool — lives in pool.go
// and the receiver-side QP scheduler in qpsched.go.

// recvDepth is how many receive WQEs the server keeps posted per QP to
// absorb credit-renewal write-imms between two pumps of the QP.
const recvDepth = 16

// serverConn is the server end of one client's connection handle.
type serverConn struct {
	node   *Node
	sender fabric.NodeID
	qps    []*serverQP
	// dedup is the idempotent-response cache for this client: retried
	// requests carrying a nonzero idempotency key whose original already
	// executed are answered from here.
	dedup *resilience.DedupWindow
}

// serverQP is the server end of one shared queue pair.
type serverQP struct {
	sc *serverConn
	qp *rnic.QP

	reqCons  *ringConsumer // clients RDMA-write coalesced requests into its ring
	respProd *ringProducer // writes responses into the client's ring

	respMu sync.Mutex // guards respProd (geometry, message count) and rng
	rng    *stats.RNG
	// life counts the QP's recycles (recycleAccept bumps it under respMu). A
	// request remembers the life it arrived in, and a reply that comes after
	// the QP was rebuilt is dropped: its client already failed the call.
	life atomic.Uint32

	// recvCQ takes the QP's credit-renewal write-imms (§7). It is the QP's
	// own and outlives recycles (recycleAccept builds the new rnic.QP on it),
	// so a pump reads it outside enter/exit, as it reads reqCons.
	recvCQ *rnic.CQ

	// Scheduler state (§5.1). The pumps grant renewals, reading active and
	// adding each reported coalescing degree to util; redistribute writes active
	// and swaps util out. granted is the pumps', under the poll role
	// (recycleAccept resets it under exclusion).
	active  atomic.Bool
	util    atomic.Uint64
	granted uint64

	// Fault state: broken excludes the pumps (the node's loop, pool
	// goroutines) and redistribute's control writes while recycleAccept
	// rebuilds the QP (inuse counts them in their critical sections, and
	// each pulled worker-lane message until it is finished, since its
	// handlers read it on the request ring); quarantined permanently retires
	// the QP from scheduling.
	broken      atomic.Bool
	inuse       atomic.Int32
	quarantined atomic.Bool

	// pumping is the QP's poll role (see pumpQP): true while a pool goroutine
	// or the node's loop pulls a message off the request ring. It is taken
	// inside enter/exit, and only its holder touches reqCons, recvCQ's
	// entries, granted or the pump scratch.
	pumping atomic.Bool

	// outScratch is the inline-lane response batch and replyScratch the reply
	// handles its handlers answer through, both reused across messages;
	// laneScratch holds a message's inline-lane requests and nackScratch
	// batches admission-control pushbacks the same way outScratch batches
	// responses. All four are the pump's. wrScratch stages the flush work
	// requests under respMu (PostSend copies WRs, so reuse after it returns
	// is safe).
	outScratch   []respOut
	replyScratch *replyBlock
	laneScratch  []decodedItem
	wrScratch    []rnic.SendWR
	nackScratch  []respOut
}

// enter begins a pump or control-write critical section on the QP. It
// returns false when the QP is broken (under recycle) and must be skipped;
// a true return must be paired with exit.
func (sqp *serverQP) enter() bool {
	if sqp.broken.Load() {
		return false
	}
	sqp.inuse.Add(1)
	if sqp.broken.Load() {
		sqp.inuse.Add(-1)
		return false
	}
	return true
}

// exit ends a critical section begun by enter.
func (sqp *serverQP) exit() { sqp.inuse.Add(-1) }

// workUnit is one inbound coalesced message's worker-lane requests, each as
// the reply handle its handler will answer through; whoever executes it — the
// goroutine that pulled it, or the pool goroutine relief handed it to — runs
// every handler, flushes the replies that were sent by then as one coalesced
// response, and finishes the message: every request payload views sqp's
// request ring, and the span ending at end is not given back to the client
// until then. The unit holds one of sqp's inuse counts from the pump that
// pulled it until that finish, so a recycle cannot zero the ring under a
// running handler. A unit without a block has nothing left to execute.
type workUnit struct {
	sqp *serverQP
	blk *replyBlock // the reply handles, held by the unit's executor
	end uint64      // the message's end position on sqp's request ring
}

// replyBlock is the reply-handle storage of one message's requests. holds
// counts who may still touch it: one per handle, from before its handler runs
// until its reply is settled, and one for the goroutine executing the
// message. The executor drops its own and those of the replies its message
// carried in one step once it has flushed them; a reply still owed when its
// handler returned keeps its hold until its Send has flushed it. Whoever
// drops the count to zero owns the block again: it keeps it as its scratch or
// returns it to the node's freelist, so a reply-later handler costs no reply
// storage either.
type replyBlock struct {
	replies []Reply
	holds   atomic.Int32
}

// release drops k holds on b and reports whether they were the last.
func (b *replyBlock) release(k int) bool { return b.holds.Add(-int32(k)) == 0 }

// Reply is the handle a ReplyHandler answers its request through. Send may
// be called once, from any goroutine, before or after the handler returns; a
// handler that returns without sending owes the reply later — the request
// stays admitted (Drain waits for it, a keyed retry is pushed back) until it
// is sent. A Reply must not be copied, and a handle whose reply was sent
// after its handler returned goes back to the server for reuse: nothing may
// touch it once that Send returns.
type Reply struct {
	blk  *replyBlock // the storage the handle lives in
	sqp  *serverQP
	life uint32 // sqp.life when the request arrived
	// state holds the reply* flags; their read-modify-writes order the
	// sender against the executor, so exactly one of them flushes the reply.
	state atomic.Uint32
	req   []byte  // the request payload, until the handler returns
	out   respOut // the response: request identity echoed, then status and payload
	small [replyBufBytes]byte
}

// replyBufBytes is the capacity of Reply.Buf. Its callers size it: the
// cluster's acks are 8, 12 and 17 bytes (TestRepliesFitReplyBuf there holds
// them under it), and every admitted request carries it, so it is no larger.
const replyBufBytes = 24

// Buf returns an empty slice over replyBufBytes of the handle's own storage:
// a reply appended into it and passed to Send costs no allocation; one that
// outgrows it moves to the heap like any append.
func (r *Reply) Buf() []byte { return r.small[:0] }

const (
	replyClaimed  uint32 = 1 << iota // a Send has begun: later ones are no-ops
	replyReady                       // out is complete
	replyReturned                    // the handler has returned
)

// mark sets flag in r.state and returns the flags that were set before.
func (r *Reply) mark(flag uint32) uint32 {
	for {
		old := r.state.Load()
		if r.state.CompareAndSwap(old, old|flag) {
			return old
		}
	}
}

// Send answers the request with data and status. Sent before the handler
// returns, the reply rides the one response message of the requests that
// arrived together, as a returned value would; sent afterwards, it is
// flushed by the calling goroutine. data must stay untouched until then —
// for a reply sent inside the handler, until the handler returns. A second
// Send inside the handler is a no-op; so is the flush of a reply whose QP
// broke or whose node closed in the meantime (the client has already failed
// the call).
//
// Everything a request owes at completion happens here: the idempotency
// window commits (it keeps a copy of its own, detached from the request
// ring and the reply storage data may view), an oversized payload
// is cut to the ring's geometry and surfaced as StatusHandlerPanic, and —
// for a late reply — the admission count drops once the response is on the
// wire, and the handle's hold on its block is dropped last.
func (r *Reply) Send(data []byte, status uint32) {
	if r.mark(replyClaimed)&replyClaimed != 0 {
		return
	}
	n := r.sqp.sc.node
	if len(data) > n.opts.test.maxPayload {
		data, status = data[:n.opts.test.maxPayload], StatusHandlerPanic
	}
	r.out.data, r.out.meta.status = data, status
	if m := &r.out.meta; m.idemKey != 0 {
		r.sqp.sc.dedup.Commit(resilience.DedupKey{Thread: m.threadID, Key: m.idemKey},
			resilience.DedupResult{Status: status, Data: data})
	}
	if r.mark(replyReady)&replyReturned == 0 {
		return // the handler is still running: its executor coalesces this reply
	}
	out := [1]respOut{r.out}
	r.out.data = nil
	n.flushResponses(r.sqp, out[:], r.life)
	n.inflight.Add(-1)
	if b := r.blk; b.release(1) {
		n.freeReplies(b)
	}
}

// respOut is one computed response awaiting coalescing.
type respOut struct {
	meta itemMeta
	data []byte
}

// accept builds the server side of a connection handle; called in-process
// by the client's Connect (the out-of-band bootstrap stand-in).
func (n *Node) accept(args connectArgs) (connectReply, error) {
	if !n.Serving() {
		return connectReply{}, ErrNotServing
	}
	if n.closing() {
		return connectReply{}, ErrClosed
	}
	sc := &serverConn{node: n, sender: args.clientNode, dedup: resilience.NewDedupWindow(DefaultDedupWindow)}
	var reply connectReply

	n.sconnMu.Lock()
	defer n.sconnMu.Unlock()
	for _, qa := range args.qps {
		recvCQ := n.dev.CreateCQ()
		qp, err := n.newServerQP(recvCQ, args.clientNode, qa.qpn)
		if err != nil {
			return connectReply{}, err
		}
		reqRing, err := n.dev.RegisterMR(n.opts.test.ringBytes, rnic.PermRemoteWrite)
		if err != nil {
			return connectReply{}, err
		}
		serverCtrl, err := n.dev.RegisterMR(srvCtrlBytes, rnic.PermRemoteRead)
		if err != nil {
			return connectReply{}, err
		}
		respProd, err := newRingProducer(n.dev, n.opts.test.ringBytes, ctrlRespHeadOff)
		if err != nil {
			return connectReply{}, err
		}
		respProd.rkey, respProd.headRKey = qa.respRingRKey, qa.clientCtrlRKey
		sqp := &serverQP{
			sc:       sc,
			qp:       qp,
			reqCons:  newRingConsumer(reqRing, serverCtrl, srvCtrlReqHeadOff),
			respProd: respProd,
			recvCQ:   recvCQ,
			rng:      stats.NewRNG(uint64(qp.QPN())*0x9E3779B9 + 7),
			granted:  uint64(n.opts.Credits),
		}
		sqp.active.Store(true)
		sc.qps = append(sc.qps, sqp)
		reply.qps = append(reply.qps, connectQPReply{
			qpn:            qp.QPN(),
			reqRingRKey:    reqRing.RKey(),
			serverCtrlRKey: serverCtrl.RKey(),
		})
	}
	n.sconns = append(n.sconns, sc)
	n.rebuildQPNIndexLocked()
	snap := make([]*serverConn, len(n.sconns))
	copy(snap, n.sconns)
	n.sconnsSnap.Store(snap)
	n.kick() // a parked loop arms the new rings before anything lands there
	return reply, nil
}

// newServerQP builds the server end of a queue pair on recvCQ, with a send
// CQ of its own, connected to the client's QP clientQPN and with recvDepth
// receives posted for the client's credit renewals.
func (n *Node) newServerQP(recvCQ *rnic.CQ, client fabric.NodeID, clientQPN int) (*rnic.QP, error) {
	qp, err := n.dev.CreateQP(rnic.RC, n.dev.CreateCQ(), recvCQ)
	if err != nil {
		return nil, err
	}
	if err := qp.Connect(int(client), clientQPN); err != nil {
		return nil, err
	}
	for range recvDepth {
		if err := qp.PostRecv(rnic.RecvWR{WRID: uint64(qp.QPN())}); err != nil {
			return nil, err
		}
	}
	return qp, nil
}

// rebuildQPNIndexLocked refreshes the QPN → serverQP snapshot the recycle
// and quarantine handshakes look QPs up in. Caller holds sconnMu.
func (n *Node) rebuildQPNIndexLocked() {
	m := make(map[int]*serverQP)
	for _, sc := range n.sconns {
		for _, sqp := range sc.qps {
			m[sqp.qp.QPN()] = sqp
		}
	}
	n.byQPN.Store(m)
}

// snapshotSconns returns the inbound connection set: a shared immutable
// snapshot republished by accept (the set only grows), so the dispatch
// loops don't allocate a copy every spin.
func (n *Node) snapshotSconns() []*serverConn {
	return n.sconnsSnap.Load().([]*serverConn)
}

// pull takes one complete message off sqp's request ring and runs admission
// control on it. It returns the admitted requests — in the ring consumer's
// scratch, valid until the next pull, with payloads that view the ring
// itself — and the message's end position, which the caller passes to
// reqCons.finish once nothing reads those payloads any more; false when no
// message is there. The caller pumps the QP: it holds the poll role inside
// enter/exit.
//
// Admission control runs here, before any handler work: while draining,
// every request is pushed back with StatusDraining; past AdmissionLimit,
// excess requests are shed with StatusOverloaded. A rejection costs the
// server one coalesced NACK — no handler execution, no worker queueing —
// which is what keeps goodput flat instead of collapsing when offered
// load exceeds capacity.
func (n *Node) pull(sqp *serverQP, life uint32) ([]decodedItem, uint64, bool) {
	h, items, end, ok := sqp.reqCons.pollView()
	if !ok {
		return nil, 0, false
	}
	n.metrics.msgsIn.Add(1)
	n.metrics.itemsIn.Add(uint64(len(items)))
	n.degIn.Observe(uint64(len(items)))
	sqp.respProd.updateCached(h.piggyHead)

	limit := int64(n.opts.AdmissionLimit)
	admit := items[:0]
	nacks := sqp.nackScratch[:0]
	draining := n.draining.Load()
	for _, it := range items {
		if draining {
			n.metrics.drainRejected.Add(1)
			nacks = append(nacks, nackOut(it.meta, StatusDraining))
			continue
		}
		if in := n.inflight.Add(1); limit > 0 && in > limit {
			n.inflight.Add(-1)
			n.metrics.rejected.Add(1)
			nacks = append(nacks, nackOut(it.meta, StatusOverloaded))
			continue
		}
		admit = append(admit, it)
	}
	if len(nacks) > 0 {
		n.flushResponses(sqp, nacks, life)
		sqp.nackScratch = nacks[:0]
	}
	return admit, end, true
}

// repliesFor builds the reply handles of items in the block *spare holds —
// or, when there is none or it is short, in one from the node's freelist or
// a new one, which becomes *spare — and returns it held by every handle and
// by the caller, which executes them.
func (n *Node) repliesFor(spare **replyBlock, sqp *serverQP, life uint32, items []decodedItem) *replyBlock {
	b := *spare
	if b == nil || cap(b.replies) < len(items) {
		if b = n.takeReplies(); b == nil || cap(b.replies) < len(items) {
			b = &replyBlock{replies: make([]Reply, len(items))}
		}
		*spare = b
	}
	b.replies = b.replies[:len(items)]
	b.holds.Store(int32(len(items)) + 1)
	for k := range items {
		b.replies[k].init(b, sqp, life, items[k])
	}
	return b
}

// takeReplies returns reply-handle storage from the node's freelist, or nil
// when it is empty.
func (n *Node) takeReplies() *replyBlock {
	select {
	case b := <-n.replyFree:
		return b
	default:
		return nil
	}
}

// freeReplies returns a block nobody holds to the node's freelist; one the
// freelist has no room for is the GC's.
func (n *Node) freeReplies(b *replyBlock) {
	select {
	case n.replyFree <- b:
	default:
	}
}

// init makes r the reply handle of one admitted request.
func (r *Reply) init(b *replyBlock, sqp *serverQP, life uint32, it decodedItem) {
	r.blk, r.sqp, r.life, r.req = b, sqp, life, it.data
	r.state.Store(0)
	r.out = respOut{meta: itemMeta{
		threadID: it.meta.threadID,
		seqID:    it.meta.seqID,
		rpcID:    it.meta.rpcID,
		idemKey:  it.meta.idemKey,
		status:   StatusOK,
	}}
}

// runInline executes items' handlers on the pumping goroutine, flushes
// the replies sent by the time each returned as one response message, and
// returns how many that was — requests the caller takes off the admission
// count once it has finished their message. The reply handles are the QP's
// scratch block, so a message whose handlers all answer before returning
// allocates nothing; while a handler that kept its handle owes its reply the
// block is theirs, and the next message takes another.
func (n *Node) runInline(sqp *serverQP, life uint32, items []decodedItem) int {
	if len(items) == 0 {
		return 0
	}
	b := n.repliesFor(&sqp.replyScratch, sqp, life, items)
	out := n.executeAll(sqp, b.replies, sqp.outScratch)
	if !b.release(1 + len(out)) {
		sqp.replyScratch = nil
	}
	sqp.outScratch = out[:0]
	return len(out)
}

// executeAll runs the handlers of the requests that arrived together, in
// order, and flushes the replies sent by the time each returned as one
// response message, which it returns built in out's storage.
func (n *Node) executeAll(sqp *serverQP, replies []Reply, out []respOut) []respOut {
	out = out[:0]
	for k := range replies {
		if r := &replies[k]; n.execute(r) {
			out = append(out, r.out)
		}
	}
	n.flushResponses(sqp, out, replies[0].life)
	return out
}

// nackOut builds a pushback response for one rejected request: the
// request's identity echoed back with a rejection status and no payload.
func nackOut(m itemMeta, status uint32) respOut {
	return respOut{meta: itemMeta{
		threadID: m.threadID,
		seqID:    m.seqID,
		rpcID:    m.rpcID,
		idemKey:  m.idemKey,
		status:   status,
	}}
}

// execute runs the registered handler for r's request on the calling
// goroutine, capturing a panic as a response status rather than crashing
// the pump. It reports whether the response is ready to ride the
// caller's message; false means the handler kept the handle to reply later,
// and whoever sends that reply flushes it and drops the handle's hold on its
// block.
//
// Requests carrying a nonzero idempotency key go through the connection's
// dedup window first: a retry whose original already replied is answered
// from the cache (exactly-once within the window), and a duplicate racing
// an original that has not — still executing, or its reply still owed —
// gets a retryable StatusOverloaded pushback rather than blocking a worker
// or running twice. The window commits when the reply is sent (Reply.Send).
func (n *Node) execute(r *Reply) bool {
	m := &r.out.meta
	if m.idemKey != 0 && !mutantOn(mutDedupSkip) {
		res, verdict := r.sqp.sc.dedup.Begin(resilience.DedupKey{Thread: m.threadID, Key: m.idemKey})
		switch verdict {
		case resilience.DedupHit:
			n.metrics.dedupHits.Add(1)
			m.status, r.out.data = res.Status, res.Data
			return true
		case resilience.DedupInflight:
			m.status = StatusOverloaded
			return true
		}
	}
	if h := n.handlerTable().byID[m.rpcID]; h.fn == nil {
		r.Send(nil, StatusNoHandler)
	} else {
		r.call(h.fn)
	}
	r.req = nil
	return r.mark(replyReturned)&replyReady != 0
}

// call runs the handler; a panic answers the request with
// StatusHandlerPanic unless it was answered already.
func (r *Reply) call(fn ReplyHandler) {
	defer func() {
		if recover() != nil {
			r.Send(nil, StatusHandlerPanic)
		}
	}()
	fn(r.req, r)
}

// flushResponses coalesces the batch into one response message — tagging
// each item with its request's thread ID and sequence ID, piggybacking the
// request-ring consumed head — and posts it with a single RDMA write. life
// is the QP life the batch's requests arrived in.
func (n *Node) flushResponses(sqp *serverQP, out []respOut, life uint32) {
	if len(out) == 0 {
		return
	}
	msgLen := headerBytes + trailerBytes
	for i := range out {
		msgLen += itemSpace(len(out[i].data))
	}

	sqp.respMu.Lock()
	defer sqp.respMu.Unlock()

	var res reservation
	for i := 0; ; i++ {
		if n.closing() {
			return // nobody is left to read a response
		}
		if sqp.broken.Load() || sqp.life.Load() != life {
			// QP under recycle, or rebuilt since the requests arrived: the
			// client already failed them; drop the responses rather than
			// wedge the flush path (and the recycler waiting on respMu)
			// against a dead consumer, or write into a ring that has
			// started over.
			return
		}
		// A refresh that fails to post is retried until the checks above
		// see the recycle.
		var ok bool
		if res, ok, _ = sqp.respProd.reserveOrRefresh(sqp.qp, msgLen); ok {
			break
		}
		// Drain our own send CQ so the refresh completion can land even
		// while we hold the flush path.
		var cqBuf [16]rnic.Completion
		sqp.drainSendCQ(cqBuf[:])
		pause(i)
	}

	staging := sqp.respProd.staging
	cursor := res.msgOff + headerBytes
	var metaBuf [itemMetaBytes]byte
	for i := range out {
		m := out[i].meta
		m.size = uint32(len(out[i].data))
		putItemMeta(metaBuf[:], m)
		staging.WriteAt(metaBuf[:], cursor) //nolint:errcheck // reserved span
		if len(out[i].data) > 0 {
			staging.WriteAt(out[i].data, cursor+itemMetaBytes) //nolint:errcheck
		}
		cursor += itemSpace(len(out[i].data))
	}
	wrs := sqp.respProd.seal(sqp.wrScratch[:0], res, len(out), sqp.rng.Uint64(), sqp.reqCons.consumed(), n.opts.SignalEvery)
	sqp.wrScratch = wrs[:0]
	sqp.qp.PostSend(wrs...) //nolint:errcheck // device closing is benign here
}

// drainSendCQ empties the QP's send CQ, whose only completion that matters
// is a head refresh's: a failed response or control write is the client's to
// notice, by the silence of its response ring. The pump and a starved flush
// call it.
func (sqp *serverQP) drainSendCQ(buf []rnic.Completion) {
	for k := sqp.qp.SendCQ().Poll(buf); k > 0; k = sqp.qp.SendCQ().Poll(buf) {
		for _, comp := range buf[:k] {
			if comp.WRID&tagMask == tagFresh {
				sqp.respProd.applyRefresh(comp)
			}
		}
	}
}
