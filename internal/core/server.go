package core

import (
	"sync"
	"sync/atomic"

	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/resilience"
	"flock/internal/rnic"
	"flock/internal/stats"
)

// This file is the server side: connection acceptance, the request
// dispatcher (§4.3), the optional RPC worker pool, and coalesced response
// flushing. The receiver-side QP scheduler lives in qpsched.go.

// recvDepth is how many receive WQEs the server keeps posted per QP to
// absorb credit-renewal write-imms between scheduler rounds.
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
	gid    int // global index across all server connections
	idx    int // index within the connection
	sc     *serverConn
	qp     *rnic.QP
	sender fabric.NodeID

	reqRing    *rnic.MemRegion // clients RDMA-write coalesced requests here
	reqCons    *ringConsumer
	serverCtrl *rnic.MemRegion // publishes the request-ring consumed head
	respProd   *ringProducer   // writes responses into the client's ring
	readback   *rnic.MemRegion

	clientCtrlRKey uint32

	respMu  sync.Mutex // guards respProd geometry, rng, msgSeq
	rng     *stats.RNG
	msgSeq  uint64
	refresh atomic.Bool

	// Scheduler-owned state (§5.1). active is atomic because accept and
	// metrics paths read it.
	active  atomic.Bool
	granted uint64  // scheduler-only (recycleAccept resets it under exclusion)
	util    float64 // Σ reported coalescing degrees since last interval
	renews  uint64  // renewals seen since last interval

	// Fault state: broken excludes the dispatcher and scheduler while
	// recycleAccept rebuilds the QP (inuse counts them in their critical
	// sections); quarantined permanently retires the QP from scheduling.
	broken      atomic.Bool
	inuse       atomic.Int32
	quarantined atomic.Bool

	// outScratch is the inline-mode response batch, reused across messages;
	// only the owning dispatcher touches it. wrScratch stages the flush work
	// requests under respMu (PostSend copies WRs, so reuse after it returns
	// is safe). nackScratch batches admission-control pushbacks the same
	// way outScratch batches responses.
	outScratch  []respOut
	wrScratch   []rnic.SendWR
	nackScratch []respOut
}

// enter begins a dispatcher/scheduler critical section on the QP. It
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

// workUnit carries one inbound coalesced message's requests to the worker
// pool; the worker executes every handler, flushes the coalesced response,
// and releases buf — the pooled message buffer every item payload views,
// whose reference the unit owns.
type workUnit struct {
	sqp   *serverQP
	items []workItem
	buf   *mem.Buf
}

// workItem is one decoded request; payload views the unit's pooled buffer.
type workItem struct {
	meta    itemMeta
	payload []byte
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
	select {
	case <-n.done:
		return connectReply{}, ErrClosed
	default:
	}
	sc := &serverConn{node: n, sender: args.clientNode, dedup: resilience.NewDedupWindow(DefaultDedupWindow)}
	var reply connectReply

	n.sconnMu.Lock()
	defer n.sconnMu.Unlock()
	gidBase := 0
	for _, other := range n.sconns {
		gidBase += len(other.qps)
	}
	for i, qa := range args.qps {
		qp, err := n.dev.CreateQP(rnic.RC, n.dev.CreateCQ(), n.schedRCQ)
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
		respStaging, err := n.dev.RegisterMR(n.opts.test.ringBytes, 0)
		if err != nil {
			return connectReply{}, err
		}
		readback, err := n.dev.RegisterMR(8, 0)
		if err != nil {
			return connectReply{}, err
		}
		if err := qp.Connect(int(args.clientNode), qa.qpn); err != nil {
			return connectReply{}, err
		}
		for r := 0; r < recvDepth; r++ {
			if err := qp.PostRecv(rnic.RecvWR{WRID: uint64(qp.QPN())}); err != nil {
				return connectReply{}, err
			}
		}
		sqp := &serverQP{
			gid:            gidBase + i,
			idx:            i,
			sc:             sc,
			qp:             qp,
			sender:         args.clientNode,
			reqRing:        reqRing,
			reqCons:        newRingConsumer(reqRing, 0, n.opts.test.ringBytes, serverCtrl, srvCtrlReqHeadOff),
			serverCtrl:     serverCtrl,
			readback:       readback,
			clientCtrlRKey: qa.clientCtrlRKey,
			rng:            stats.NewRNG(uint64(gidBase+i)*0x9E3779B9 + 7),
			granted:        uint64(n.opts.Credits),
		}
		sqp.respProd = &ringProducer{staging: respStaging, size: n.opts.test.ringBytes, rkey: qa.respRingRKey}
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
	return reply, nil
}

// rebuildQPNIndexLocked refreshes the QPN → serverQP snapshot used by the
// QP scheduler. Caller holds sconnMu.
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

// serveDispatch is one request-dispatcher goroutine; dispatcher i owns the
// server QPs with gid ≡ i (mod Dispatchers).
func (n *Node) serveDispatch(i int) {
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
		for _, sc := range n.snapshotSconns() {
			for _, sqp := range sc.qps {
				if sqp.gid%n.opts.Dispatchers != i {
					continue
				}
				if !sqp.enter() {
					continue // under recycle
				}
				if n.pumpRequests(sqp) {
					busy = true
				}
				for {
					k := sqp.qp.SendCQ().Poll(cqBuf[:])
					if k == 0 {
						break
					}
					busy = true
					for _, comp := range cqBuf[:k] {
						sqp.routeCompletion(comp)
					}
				}
				sqp.exit()
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

// pumpRequests drains complete messages from one request ring, executing
// them inline or handing them to the worker pool. Reports whether any work
// was found.
//
// Admission control runs here, before any handler work: while draining,
// every request is pushed back with StatusDraining; past AdmissionLimit,
// excess requests are shed with StatusOverloaded. A rejection costs the
// server one coalesced NACK — no handler execution, no worker queueing —
// which is what keeps goodput flat instead of collapsing when offered
// load exceeds capacity.
func (n *Node) pumpRequests(sqp *serverQP) bool {
	busy := false
	limit := int64(n.opts.AdmissionLimit)
	for {
		h, items, mbuf, ok := sqp.reqCons.poll()
		if !ok {
			return busy
		}
		busy = true
		n.metrics.msgsIn.Add(1)
		n.metrics.itemsIn.Add(uint64(len(items)))
		n.degIn.Observe(uint64(len(items)))
		sqp.respProd.updateCached(h.piggyHead)

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
			n.flushResponses(sqp, nacks)
			sqp.nackScratch = nacks[:0]
		}
		if len(admit) == 0 {
			mbuf.Release()
			continue
		}

		if n.workCh != nil {
			// Inline-lane RPCs (RegisterInlineStatusHandler) execute here on
			// the dispatcher before the rest of the batch is handed to the
			// pool: a replication apply or ping must never wait behind
			// workers that are themselves blocked in nested forwards.
			if inline := n.inlineSet(); len(inline) > 0 {
				out := sqp.outScratch[:0]
				keep := admit[:0]
				for _, it := range admit {
					if inline[it.meta.rpcID] {
						out = append(out, n.execute(sqp.sc, it.meta, it.data))
					} else {
						keep = append(keep, it)
					}
				}
				if len(out) > 0 {
					n.flushResponses(sqp, out)
					sqp.outScratch = out[:0]
					n.inflight.Add(-int64(len(out)))
				}
				admit = keep
				if len(admit) == 0 {
					mbuf.Release()
					continue
				}
			}
			// Hand the poll reference to the unit; payloads stay views into
			// the pooled message buffer and the worker releases it after the
			// flush.
			unit := workUnit{sqp: sqp, items: make([]workItem, len(admit)), buf: mbuf}
			for k, it := range admit {
				unit.items[k] = workItem{meta: it.meta, payload: it.data}
			}
			select {
			case n.workCh <- unit:
			case <-n.done:
				mbuf.Release()
				n.inflight.Add(-int64(len(admit)))
				return busy
			}
			continue
		}
		// Inline mode: execute handlers on the dispatcher (§4.3). The
		// handler contract (no retaining req) plus flushResponses staging
		// the output synchronously make releasing after the flush safe even
		// for handlers that return their input.
		out := sqp.outScratch[:0]
		for k := range admit {
			out = append(out, n.execute(sqp.sc, admit[k].meta, admit[k].data))
		}
		n.flushResponses(sqp, out)
		sqp.outScratch = out[:0]
		mbuf.Release()
		n.inflight.Add(-int64(len(admit)))
	}
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

// worker is one pool goroutine executing handler batches (§4.3's
// "application-managed pool of RPC workers").
func (n *Node) worker() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case unit := <-n.workCh:
			out := make([]respOut, len(unit.items))
			for k, it := range unit.items {
				out[k] = n.execute(unit.sqp.sc, it.meta, it.payload)
			}
			n.flushResponses(unit.sqp, out)
			unit.buf.Release()
			n.inflight.Add(-int64(len(unit.items)))
		}
	}
}

// execute runs the registered handler for one request, capturing panics
// as a response status rather than crashing the dispatcher.
//
// Requests carrying a nonzero idempotency key go through the connection's
// dedup window first: a retry whose original already executed is answered
// from the cache (exactly-once within the window), and a duplicate racing
// its still-executing original gets a retryable StatusOverloaded pushback
// rather than blocking a worker or running twice.
func (n *Node) execute(sc *serverConn, meta itemMeta, payload []byte) (out respOut) {
	out.meta = itemMeta{
		threadID: meta.threadID,
		seqID:    meta.seqID,
		rpcID:    meta.rpcID,
		idemKey:  meta.idemKey,
		status:   StatusOK,
	}
	if meta.idemKey != 0 {
		k := resilience.DedupKey{Thread: meta.threadID, Key: meta.idemKey}
		res, verdict := sc.dedup.Begin(k)
		switch verdict {
		case resilience.DedupHit:
			n.metrics.dedupHits.Add(1)
			out.meta.status = res.Status
			out.data = res.Data
			return out
		case resilience.DedupInflight:
			out.meta.status = StatusOverloaded
			return out
		}
		// Registered before the recover defer so it runs after the panic
		// status is in place; the copy detaches the cached payload from
		// the pooled request buffer a handler may have returned a view of.
		defer func() {
			sc.dedup.Commit(k, resilience.DedupResult{
				Status: out.meta.status,
				Data:   append([]byte(nil), out.data...),
			})
		}()
	}
	fn := n.handler(meta.rpcID)
	if fn == nil {
		out.meta.status = StatusNoHandler
		return out
	}
	defer func() {
		if recover() != nil {
			out.meta.status = StatusHandlerPanic
			out.data = nil
		}
	}()
	out.data, out.meta.status = fn(payload)
	return out
}

// flushResponses coalesces the batch into one response message — tagging
// each item with its request's thread ID and sequence ID, piggybacking the
// request-ring consumed head — and posts it with a single RDMA write.
func (n *Node) flushResponses(sqp *serverQP, out []respOut) {
	if len(out) == 0 {
		return
	}
	msgLen := headerBytes + trailerBytes
	for i := range out {
		if len(out[i].data) > n.opts.test.maxPayload {
			// Oversized handler response: truncate to keep ring geometry
			// sound; the application bug is surfaced via status.
			out[i].data = out[i].data[:n.opts.test.maxPayload]
			out[i].meta.status = StatusHandlerPanic
		}
		msgLen += itemSpace(len(out[i].data))
	}

	sqp.respMu.Lock()
	defer sqp.respMu.Unlock()

	var res reservation
	for i := 0; ; i++ {
		if sqp.broken.Load() {
			// QP under recycle: the client already failed these requests;
			// drop the responses rather than wedge the flush path (and the
			// recycler waiting on respMu) against a dead consumer.
			return
		}
		var ok bool
		res, ok = sqp.respProd.reserve(msgLen)
		if ok {
			break
		}
		sqp.requestRespHeadRefresh()
		// Poll our own send CQ so the refresh completion can land even
		// while we hold the flush path.
		var cqBuf [16]rnic.Completion
		if k := sqp.qp.SendCQ().Poll(cqBuf[:]); k > 0 {
			for _, comp := range cqBuf[:k] {
				sqp.routeCompletion(comp)
			}
		}
		select {
		case <-n.done:
			return
		default:
		}
		idleBackoff(i)
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
	canary := sqp.rng.Uint64() | 1
	var canaryBuf [trailerBytes]byte
	putLE64(canaryBuf[:], canary)
	staging.WriteAt(canaryBuf[:], res.msgOff+msgLen-trailerBytes) //nolint:errcheck
	var hdr [headerBytes]byte
	putHeader(hdr[:], header{
		totalLen:  uint32(msgLen),
		count:     uint32(len(out)),
		canary:    canary,
		piggyHead: sqp.reqCons.consumed(),
		flags:     flagItemMetaV2,
	})
	staging.WriteAt(hdr[:], res.msgOff) //nolint:errcheck

	wrs := sqp.wrScratch[:0]
	if res.markerOff >= 0 {
		wrs = append(wrs, rnic.SendWR{
			WRID: tagMarker, Op: rnic.OpWrite,
			LocalMR: staging, LocalOff: res.markerOff, LocalLen: 8,
			RKey: sqp.respProd.rkey, RemoteOff: res.markerOff,
		})
	}
	sqp.msgSeq++
	wrs = append(wrs, rnic.SendWR{
		WRID: tagMsg, Op: rnic.OpWrite,
		LocalMR: staging, LocalOff: res.msgOff, LocalLen: msgLen,
		RKey: sqp.respProd.rkey, RemoteOff: res.msgOff,
		Signaled: sqp.msgSeq%uint64(n.opts.SignalEvery) == 0,
	})
	sqp.wrScratch = wrs[:0]
	sqp.qp.PostSend(wrs...) //nolint:errcheck // device closing is benign here
}

// requestRespHeadRefresh posts a one-sided read of the client's published
// response-ring consumed head.
func (sqp *serverQP) requestRespHeadRefresh() {
	if sqp.refresh.Swap(true) {
		return
	}
	err := sqp.qp.PostSend(rnic.SendWR{
		WRID: tagFresh, Op: rnic.OpRead,
		LocalMR: sqp.readback, LocalOff: 0, LocalLen: 8,
		RKey: sqp.clientCtrlRKey, RemoteOff: ctrlRespHeadOff,
		Signaled: true,
	})
	if err != nil {
		sqp.refresh.Store(false)
	}
}

// routeCompletion handles one server-side send completion. A failed
// refresh read leaves the cached head alone (the readback slot holds
// garbage); the client-driven recycle heals the QP.
func (sqp *serverQP) routeCompletion(comp rnic.Completion) {
	if comp.WRID&tagMask == tagFresh {
		if comp.Status == rnic.StatusOK {
			sqp.respProd.updateCached(sqp.readback.Load64(0))
		}
		sqp.refresh.Store(false)
	}
}
