package rnic

import (
	"encoding/binary"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
)

// wrProgress is how far the WR at the head of a send queue has got. A WR
// that has to wait gives the processing unit back and is entered again when
// its QP is re-rung; what must not happen twice is recorded here. The zero
// value is a WR not yet started.
type wrProgress struct {
	charged  bool // requester context touched, first transmission charged
	sent     bool // an RC transmission got through the fabric
	attempts int  // RC transmissions the fabric faulted
	rnr      int  // deliveries that found the receiver not ready
}

// The waits of a stalled WR. They are lower bounds: a re-ring is a timer.
const (
	// rnrBackoff is the pause before retrying a delivery that found no
	// receive buffer (the RNR NAK timer).
	rnrBackoff = 10 * time.Microsecond
	// rcBackoffMaxShift caps the exponential retransmit backoff,
	// 1 µs << attempt, at 64 µs.
	rcBackoffMaxShift = 6
)

// statusRNR is advance's verdict for a delivery that found no receive buffer
// on a connected responder. It never reaches a completion queue.
const statusRNR Status = -1

// execute advances the WR at the head of q as far as it will go. It returns
// zero when the WR reached a terminal state — completed or flushed — and
// otherwise how long the WR has to wait before execute is called on it
// again. It never sleeps.
func (d *Device) execute(q *QP, wr *SendWR) (wait time.Duration) {
	status, byteLen, wait := d.advance(q, wr)
	if wait > 0 {
		return wait
	}
	q.head = wrProgress{}
	// The WR is terminal, so the pooled Inline lease (if the poster
	// transferred one) dies here.
	if wr.Pooled != nil {
		wr.Pooled.Release()
		wr.Pooled = nil
	}
	d.complete(q, wr, status, byteLen)
	if status != StatusOK && status != StatusWRFlush && q.transport != UD {
		// Fatal completions move connected QPs to the error state, like
		// hardware; queued WRs behind the failure flush.
		q.enterError()
	}
	return 0
}

// advance models the requester NIC touching its own connection context, the
// wire transfer, and the responder NIC touching its context and performing
// DMA against the target memory region. It returns either the WR's
// completion status and byte count, or a positive wait.
func (d *Device) advance(q *QP, wr *SendWR) (Status, int, time.Duration) {
	// A QP that entered the error state while this WR was staged or stalled
	// flushes it unexecuted, exactly as enterError does for still-queued
	// WRs.
	if q.transport != UD && q.InError() {
		d.counters.add(&d.counters.WRFlushed, 1)
		return StatusWRFlush, 0, 0
	}

	var dstNode, dstQPN int
	if q.transport == UD {
		dstNode, dstQPN = wr.Dst.Node, wr.Dst.QPN
	} else {
		dstNode, dstQPN = q.Peer()
	}
	dst := fabric.NodeID(dstNode)

	// Wire accounting. Reads move the payload in the response direction;
	// everything else in the request direction. Atomics move 8 bytes each
	// way; we charge the request direction.
	txBytes := q.payloadLen(wr)
	switch wr.Op {
	case OpRead:
		txBytes = 0 // request is header-only; response accounted below
	case OpFetchAdd, OpCmpSwap:
		txBytes = 8
	}
	st := &q.head
	if !st.charged {
		st.charged = true
		// Requester-side connection-context access (UD uses one context for
		// all peers — that is precisely its scalability advantage, §2.2).
		d.cacheAccess(int(d.cfg.Node), q.qpn)
		d.chargeTX(dst, txBytes)
	}

	// UD wire loss: the sender still sees a successful completion — UD
	// has no acknowledgements (Table 1).
	if q.transport == UD && d.fab.DropUD(d.cfg.Node, dst) {
		d.counters.add(&d.counters.UDDropsWire, 1)
		return StatusOK, q.payloadLen(wr), 0
	}

	// RC reliability: retransmit faulted attempts with exponential backoff
	// until the retry budget runs out, then complete in error and break the
	// QP, flushing everything behind this WR.
	if q.transport == RC && !st.sent {
		wait, ok := d.transmitRC(q, dst, txBytes)
		if wait > 0 {
			return 0, 0, wait
		}
		if !ok {
			d.counters.add(&d.counters.RCRetryExhausted, 1)
			return StatusRetryExceeded, 0, 0
		}
	}

	// A send's payload is gathered per delivery attempt, as a NIC reads it
	// from host memory again for each retransmission. Writes and reads
	// gather nothing: their bytes go region to region when they are placed.
	var payload []byte
	if wr.Op == OpSend {
		var pbuf *mem.Buf
		payload, pbuf = d.gatherPayload(wr)
		if pbuf != nil {
			defer pbuf.Release()
		}
	}
	if q.transport == UD {
		// UD has no end-to-end integrity check: injected corruption is
		// delivered.
		if mangled, ok := d.fab.MangleUD(d.cfg.Node, dst, payload); ok {
			d.counters.add(&d.counters.UDCorrupted, 1)
			payload = mangled
		}
	}

	peer, ok := d.fab.Lookup(dst).(*Device)
	if peer == nil || !ok {
		return StatusRemoteAccess, 0, 0
	}

	// Responder-side connection-context access: the server NIC in a high
	// fan-in pattern caches one context per client QP, which is what
	// thrashes in Figure 2a.
	peer.cacheAccess(int(d.cfg.Node), dstQPN)

	status := StatusOK
	byteLen := 0
	switch wr.Op {
	case OpWrite, OpWriteImm:
		byteLen = q.payloadLen(wr)
		status = d.execWrite(peer, dstQPN, wr, byteLen)
	case OpRead:
		status, byteLen = d.execRead(peer, wr)
	case OpSend:
		byteLen = len(payload)
		status = d.execSend(q, peer, dstQPN, wr, payload)
	case OpFetchAdd, OpCmpSwap:
		status = d.execAtomic(peer, wr)
	}
	if status == statusRNR {
		// Receiver-not-ready flow control: nothing was placed; try the
		// delivery again later, rnrRetries times at most.
		d.counters.add(&d.counters.RNRWaits, 1)
		if st.rnr++; st.rnr < d.cfg.rnrRetries {
			return 0, 0, rnrBackoff
		}
		status = StatusRNRExceeded
	}
	return status, byteLen, 0
}

// chargeTX accounts one transmission of txBytes to dst on the fabric and in
// the device counters.
func (d *Device) chargeTX(dst fabric.NodeID, txBytes int) {
	pkts := d.fab.ChargeTX(d.cfg.Node, dst, txBytes)
	d.counters.add(&d.counters.PacketsTX, uint64(pkts))
	d.counters.add(&d.counters.BytesTX, uint64(txBytes))
}

// transmitRC models the requester side of RC reliability: each wire
// attempt may be faulted by the fabric (random loss, detected corruption,
// a link-down window); lost attempts are retransmitted with exponential
// backoff up to Config.RCRetries. Retransmissions re-charge the wire. It
// returns a positive wait when the WR must pause — an injected delay, a
// backoff, or both — and otherwise whether a transmission got through; false
// means the retry budget is exhausted.
func (d *Device) transmitRC(q *QP, dst fabric.NodeID, txBytes int) (wait time.Duration, ok bool) {
	st := &q.head
	for {
		drop, delay := d.fab.FaultRC(d.cfg.Node, dst, q.qpn)
		if !drop {
			st.sent = true
			return delay, true
		}
		if st.attempts >= d.cfg.RCRetries {
			return 0, false
		}
		d.counters.add(&d.counters.RCRetransmits, 1)
		d.chargeTX(dst, txBytes)
		// The first two retransmissions go out at once; later ones back off.
		if st.attempts >= 2 {
			delay += time.Microsecond << min(st.attempts, rcBackoffMaxShift)
		}
		st.attempts++
		if delay > 0 {
			return delay, false
		}
	}
}

// pcieFetchNs is the modeled cost of one connection-context fetch over
// PCIe after a cache miss — roughly the round-trip of a 256B DMA read on
// a Gen3 x16 link, matching the stall the paper attributes to context
// thrashing (§2.3).
const pcieFetchNs = 600

// cacheAccess touches the device's connection cache and updates counters.
// It returns true on a hit.
func (d *Device) cacheAccess(node, qpn int) bool {
	hit := d.cache.access(node, qpn)
	if hit {
		d.counters.add(&d.counters.CacheHits, 1)
	} else {
		d.counters.add(&d.counters.CacheMisses, 1)
		d.counters.add(&d.counters.PCIeFetchNanos, pcieFetchNs)
	}
	return hit
}

// gatherPayload materializes the outbound bytes of a send: the Inline
// bytes as they are, or a private copy of the local MR's. Sends need their
// own copy — UD corruption is injected into it, and a receive buffer is not
// a region the WR names. The copy's staging space comes from the buffer
// pool; the returned *mem.Buf is non-nil in that case and the caller
// releases it after fabric delivery.
func (d *Device) gatherPayload(wr *SendWR) ([]byte, *mem.Buf) {
	if wr.Inline != nil || wr.LocalMR == nil {
		return wr.Inline, nil
	}
	b := mem.Get(wr.LocalLen)
	wr.LocalMR.dmaRead(b.Data(), wr.LocalOff)
	return b.Data(), b
}

// place performs a write's DMA into mr at wr.RemoteOff — the Inline bytes,
// or n bytes straight out of the local MR — and then signals an armed mr.
func (d *Device) place(mr *MemRegion, wr *SendWR, n int) {
	if wr.Inline != nil {
		mr.dmaWriteChunked(wr.Inline, wr.RemoteOff, d.fab.MTU())
	} else if n > 0 {
		copyChunked(mr, wr.RemoteOff, wr.LocalMR, wr.LocalOff, n, d.fab.MTU())
	}
	mr.signal()
}

// execWrite places the n payload bytes of wr into the responder's region.
// Write-with-imm additionally consumes a receive WQE on the destination QP
// and delivers a receive completion carrying the immediate; it takes the
// WQE before it places anything, so that a receiver-not-ready retry never
// places twice.
func (d *Device) execWrite(peer *Device, dstQPN int, wr *SendWR, n int) Status {
	mr := peer.lookupMR(wr.RKey)
	if mr == nil || mr.perms&PermRemoteWrite == 0 {
		return StatusRemoteAccess
	}
	if err := mr.checkRange(wr.RemoteOff, n); err != nil {
		return StatusRemoteAccess
	}
	if wr.Op != OpWriteImm {
		d.place(mr, wr, n)
		return StatusOK
	}

	dq := peer.QPByNumber(dstQPN)
	if dq == nil {
		return StatusRemoteAccess
	}
	rwr, ok := dq.popRecv()
	if !ok {
		return statusRNR
	}
	d.place(mr, wr, n)
	peer.counters.add(&peer.counters.CompletionsDelivered, 1)
	dq.recvCQ.push(Completion{
		WRID:     rwr.WRID,
		Status:   StatusOK,
		Opcode:   OpRecv,
		ByteLen:  n,
		Imm:      wr.Imm,
		ImmValid: true,
		QPN:      dq.qpn,
		SrcNode:  int(d.cfg.Node),
	})
	return StatusOK
}

// execRead copies from the responder's region straight into the
// requester's local region.
func (d *Device) execRead(peer *Device, wr *SendWR) (Status, int) {
	mr := peer.lookupMR(wr.RKey)
	if mr == nil || mr.perms&PermRemoteRead == 0 {
		return StatusRemoteAccess, 0
	}
	if err := mr.checkRange(wr.RemoteOff, wr.LocalLen); err != nil {
		return StatusRemoteAccess, 0
	}
	copyChunked(wr.LocalMR, wr.LocalOff, mr, wr.RemoteOff, wr.LocalLen, d.fab.MTU())

	// Response-direction wire accounting.
	pkts := d.fab.ChargeTX(peer.cfg.Node, d.cfg.Node, wr.LocalLen)
	peer.counters.add(&peer.counters.PacketsTX, uint64(pkts))
	peer.counters.add(&peer.counters.BytesTX, uint64(wr.LocalLen))
	return StatusOK, wr.LocalLen
}

// execSend delivers a two-sided send into a posted receive buffer on the
// destination QP.
func (d *Device) execSend(q *QP, peer *Device, dstQPN int, wr *SendWR, payload []byte) Status {
	dq := peer.QPByNumber(dstQPN)
	if dq == nil {
		if q.transport == UD {
			peer.counters.add(&peer.counters.UDDropsNoRecv, 1)
			return StatusOK // fire and forget
		}
		return StatusRemoteAccess
	}
	var rwr RecvWR
	var ok bool
	if q.transport == UD {
		// No RNR on datagrams: absent a buffer the packet is dropped.
		rwr, ok = dq.popRecv()
		if !ok {
			peer.counters.add(&peer.counters.UDDropsNoRecv, 1)
			return StatusOK
		}
	} else if rwr, ok = dq.popRecv(); !ok {
		return statusRNR
	}
	if len(payload) > rwr.Len {
		if q.transport == UD {
			peer.counters.add(&peer.counters.UDDropsNoRecv, 1)
			return StatusOK
		}
		// RC: the responder completes the receive in error; requester too.
		dq.recvCQ.push(Completion{
			WRID: rwr.WRID, Status: StatusLenError, Opcode: OpRecv, QPN: dq.qpn,
		})
		peer.counters.add(&peer.counters.CompletionsDelivered, 1)
		return StatusLenError
	}
	if rwr.MR != nil {
		if err := rwr.MR.WriteAt(payload, rwr.Off); err != nil {
			return StatusRemoteAccess
		}
	}
	peer.counters.add(&peer.counters.CompletionsDelivered, 1)
	dq.recvCQ.push(Completion{
		WRID:     rwr.WRID,
		Status:   StatusOK,
		Opcode:   OpRecv,
		ByteLen:  len(payload),
		Imm:      wr.Imm,
		ImmValid: wr.ImmValid,
		QPN:      dq.qpn,
		SrcNode:  int(d.cfg.Node),
		SrcQPN:   q.qpn,
	})
	return StatusOK
}

// execAtomic runs a 64-bit atomic on the responder's region and stores the
// prior value into the requester's local region.
func (d *Device) execAtomic(peer *Device, wr *SendWR) Status {
	mr := peer.lookupMR(wr.RKey)
	if mr == nil || mr.perms&PermRemoteAtomic == 0 {
		return StatusRemoteAccess
	}
	var old uint64
	var err error
	switch wr.Op {
	case OpFetchAdd:
		old, err = mr.atomic64(wr.RemoteOff, func(v uint64) uint64 { return v + wr.CompareAdd })
	case OpCmpSwap:
		old, err = mr.atomic64(wr.RemoteOff, func(v uint64) uint64 {
			if v == wr.CompareAdd {
				return wr.Swap
			}
			return v
		})
	}
	if err != nil {
		return StatusRemoteAccess
	}
	d.counters.add(&d.counters.AtomicOps, 1)
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], old)
	if err := wr.LocalMR.WriteAt(out[:], wr.LocalOff); err != nil {
		return StatusRemoteAccess
	}
	return StatusOK
}

// complete delivers (or suppresses) the requester-side completion for wr.
func (d *Device) complete(q *QP, wr *SendWR, status Status, byteLen int) {
	if status == StatusOK && !wr.Signaled {
		d.counters.add(&d.counters.CompletionsSuppressed, 1)
		return
	}
	d.counters.add(&d.counters.CompletionsDelivered, 1)
	q.sendCQ.push(Completion{
		WRID:    wr.WRID,
		Status:  status,
		Opcode:  wr.Op,
		ByteLen: byteLen,
		QPN:     q.qpn,
	})
}
