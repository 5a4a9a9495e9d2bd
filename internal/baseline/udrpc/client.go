package udrpc

import (
	"encoding/binary"
	"time"

	"flock/internal/rnic"
)

// ClientThread is one application thread's UD endpoint: its own datagram
// QP (as in FaSST/eRPC, where per-thread QPs are cheap because UD keeps no
// per-peer state), posted receive buffers for responses, and the software
// reliability state — outstanding table, retransmission timers, ack
// watermark.
//
// A ClientThread must be used by one goroutine.
type ClientThread struct {
	dev *rnic.Device
	cfg Config
	qp  *rnic.QP

	server   rnic.Address
	serverID uint64 // this thread's identity: (node << 32) | qpn

	slots []*recvSlot

	seq      uint32
	ackBelow uint32
	pending  map[uint32]*pendingReq
	partials map[uint32]*partial
	ready    []Response // completed exchanges beyond the one Recv returned

	retransmits uint64
	closed      bool
}

// pendingReq tracks one outstanding request for retransmission.
type pendingReq struct {
	rpcID    uint32
	payload  []byte
	sentAt   time.Time
	attempts int
}

// Response is one completed RPC exchange.
type Response struct {
	Seq   uint32
	RPCID uint32
	Data  []byte
}

// NewClientThread creates a client endpoint on dev talking to one server
// QP (pick the QPN from Server.QPNs, typically by thread hash — eRPC pins
// a client thread to a server thread the same way).
func NewClientThread(dev *rnic.Device, cfg Config, serverNode int, serverQPN int) (*ClientThread, error) {
	cfg = cfg.withDefaults()
	qp, err := dev.CreateQP(rnic.UD, dev.CreateCQ(), dev.CreateCQ())
	if err != nil {
		return nil, err
	}
	c := &ClientThread{
		dev:      dev,
		cfg:      cfg,
		qp:       qp,
		server:   rnic.Address{Node: serverNode, QPN: serverQPN},
		serverID: uint64(dev.Node())<<32 | uint64(qp.QPN()),
		pending:  make(map[uint32]*pendingReq),
		partials: make(map[uint32]*partial),
	}
	for j := 0; j < recvDepth; j++ {
		mr, err := dev.RegisterMR(dev.Fabric().MTU(), 0)
		if err != nil {
			return nil, err
		}
		c.slots = append(c.slots, &recvSlot{mr: mr, len: dev.Fabric().MTU()})
		if err := qp.PostRecv(rnic.RecvWR{WRID: uint64(j), MR: mr, Off: 0, Len: mr.Len()}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close marks the endpoint closed; subsequent Sends fail. (The underlying
// QP lives until its device closes, as with real verbs resources.)
func (c *ClientThread) Close() { c.closed = true }

// Retransmits reports how many datagram retransmissions this thread has
// performed — pure software-reliability overhead that RC provides in
// hardware.
func (c *ClientThread) Retransmits() uint64 { return c.retransmits }

// Outstanding reports in-flight requests.
func (c *ClientThread) Outstanding() int { return len(c.pending) }

// Send transmits one request and returns its sequence number. The
// response arrives through Recv; retransmission happens inside Recv's
// polling loop.
func (c *ClientThread) Send(rpcID uint32, payload []byte) (uint32, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if len(payload) > c.cfg.maxPayload {
		return 0, ErrTooBig
	}
	c.seq++
	seq := c.seq
	// Retain the payload for retransmission.
	kept := make([]byte, len(payload))
	copy(kept, payload)
	c.pending[seq] = &pendingReq{rpcID: rpcID, payload: kept, sentAt: time.Now(), attempts: 1}
	sendFragments(c.qp, c.dev.Fabric().MTU(), c.server, kindRequest, rpcID, c.serverID, seq, c.ackBelow, payload)
	return seq, nil
}

// Recv blocks until any outstanding request completes, driving
// retransmission timers while it waits. Responses that arrived packed in
// a coalesced datagram are drained one per call.
func (c *ClientThread) Recv() (Response, error) {
	if len(c.ready) > 0 {
		r := c.ready[0]
		c.ready = c.ready[1:]
		return r, nil
	}
	if len(c.pending) == 0 {
		return Response{}, ErrClosed
	}
	var cqBuf [16]rnic.Completion
	idle := 0
	for {
		// Process EVERY polled completion: Poll consumes entries from the
		// CQ, so returning at the first match would lose the rest of the
		// batch (both their responses and their receive buffers).
		k := c.qp.RecvCQ().Poll(cqBuf[:])
		for _, comp := range cqBuf[:k] {
			slot := c.slots[comp.WRID]
			if comp.Status == rnic.StatusOK {
				pkt := make([]byte, comp.ByteLen)
				slot.mr.ReadAt(pkt, 0) //nolint:errcheck
				if resp := c.handleResponse(pkt); resp != nil {
					c.ready = append(c.ready, *resp)
				}
			}
			c.qp.PostRecv(rnic.RecvWR{WRID: comp.WRID, MR: slot.mr, Off: 0, Len: slot.len}) //nolint:errcheck
		}
		if len(c.ready) > 0 {
			r := c.ready[0]
			c.ready = c.ready[1:]
			return r, nil
		}
		if k == 0 {
			idle++
			if idle%32 == 0 {
				if err := c.checkRetransmit(); err != nil {
					return Response{}, err
				}
			}
			backoff(idle)
		} else {
			idle = 0
		}
	}
}

// Call is the synchronous convenience wrapper.
func (c *ClientThread) Call(rpcID uint32, payload []byte) (Response, error) {
	seq, err := c.Send(rpcID, payload)
	if err != nil {
		return Response{}, err
	}
	for {
		r, err := c.Recv()
		if err != nil {
			return Response{}, err
		}
		if r.Seq == seq {
			return r, nil
		}
	}
}

// handleResponse processes one inbound response datagram; returns the
// completed exchange when the (possibly fragmented) response is whole.
func (c *ClientThread) handleResponse(pkt []byte) *Response {
	if len(pkt) < hdrBytes {
		return nil
	}
	h := getPktHeader(pkt)
	if h.kind == kindBatch {
		return c.handleBatch(h, pkt[hdrBytes:])
	}
	if h.kind != kindResponse {
		return nil
	}
	req, outstanding := c.pending[h.seq]
	if !outstanding {
		return nil // duplicate response for an already-completed exchange
	}
	payload, complete := c.reassembleResp(h, pkt[hdrBytes:])
	if !complete {
		return nil
	}
	delete(c.pending, h.seq)
	// Advance the ack watermark: everything below the smallest pending
	// seq is complete.
	c.ackBelow = c.seq + 1
	for s := range c.pending {
		if s < c.ackBelow {
			c.ackBelow = s
		}
	}
	_ = req
	return &Response{Seq: h.seq, RPCID: h.rpcID, Data: payload}
}

// handleBatch unpacks a coalesced response datagram (§9 extension): each
// sub-response completes one outstanding exchange; the first is returned
// and the rest queue on c.ready.
func (c *ClientThread) handleBatch(h pktHeader, payload []byte) *Response {
	var first *Response
	off := 0
	for n := 0; n < int(h.fragCnt) && off+12 <= len(payload); n++ {
		seq := binary.LittleEndian.Uint32(payload[off:])
		rpcID := binary.LittleEndian.Uint32(payload[off+4:])
		size := int(binary.LittleEndian.Uint32(payload[off+8:]))
		if off+12+size > len(payload) {
			break
		}
		data := make([]byte, size)
		copy(data, payload[off+12:])
		off += 12 + size
		if _, outstanding := c.pending[seq]; !outstanding {
			continue // duplicate
		}
		delete(c.pending, seq)
		r := Response{Seq: seq, RPCID: rpcID, Data: data}
		if first == nil {
			first = &r
		} else {
			c.ready = append(c.ready, r)
		}
	}
	if first != nil {
		// Refresh the ack watermark after the batch.
		c.ackBelow = c.seq + 1
		for s := range c.pending {
			if s < c.ackBelow {
				c.ackBelow = s
			}
		}
	}
	return first
}

// reassembleResp merges response fragments.
func (c *ClientThread) reassembleResp(h pktHeader, frag []byte) ([]byte, bool) {
	if h.fragCnt <= 1 {
		out := make([]byte, len(frag))
		copy(out, frag)
		return out, true
	}
	p := c.partials[h.seq]
	if p == nil {
		p = &partial{seq: h.seq, buf: make([]byte, h.totalLen)}
		c.partials[h.seq] = p
	}
	chunk := c.dev.Fabric().MTU() - hdrBytes
	off := int(h.frag) * chunk
	if off+len(frag) <= len(p.buf) {
		copy(p.buf[off:], frag)
		p.got++
	}
	if p.got == int(h.fragCnt) {
		delete(c.partials, h.seq)
		return p.buf, true
	}
	return nil, false
}

// checkRetransmit resends timed-out requests; ErrTimeout after maxRetries.
func (c *ClientThread) checkRetransmit() error {
	now := time.Now()
	for seq, p := range c.pending {
		if now.Sub(p.sentAt) < c.cfg.retransmitTimeout {
			continue
		}
		if p.attempts >= c.cfg.maxRetries {
			delete(c.pending, seq)
			return ErrTimeout
		}
		p.attempts++
		p.sentAt = now
		c.retransmits++
		sendFragments(c.qp, c.dev.Fabric().MTU(), c.server, kindRequest, p.rpcID, c.serverID, seq, c.ackBelow, p.payload)
	}
	return nil
}
