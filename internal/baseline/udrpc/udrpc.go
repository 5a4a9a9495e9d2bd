// Package udrpc is the UD-datagram RPC baseline in the spirit of
// HERD/FaSST/eRPC (§2.2 of the FLock paper): every endpoint uses a handful
// of unreliable-datagram QPs, so the NIC holds almost no per-connection
// state — the scalability advantage — but the software must provide what
// RC gives in hardware:
//
//   - reliability: sequence numbers, response-as-ack, timeout-driven
//     retransmission, and a server-side response cache for duplicate
//     suppression (eRPC's approach; FaSST instead treats loss as fatal);
//   - fragmentation and reassembly: UD's MTU is 4 KB (Table 1), so larger
//     payloads ship as multiple datagrams;
//   - receive-buffer recycling and per-packet CQ polling — the CPU costs
//     that saturate UD servers in Figure 2(b).
//
// The package intentionally mirrors the shape of the core FLock API
// (handlers, per-thread handles, Call/Send/Recv) so applications like the
// FaSST-style transaction system can run over either.
package udrpc

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/rnic"
)

// Packet header layout (32 bytes), little-endian:
//
//	+0  kind      uint8   request / response
//	+1  pad       [3]uint8
//	+4  rpcID     uint32
//	+8  client    uint64  (clientNode << 32) | clientQPN
//	+16 seq       uint32  per-client-thread request sequence
//	+20 ackBelow  uint32  all seqs below this are acked (cache pruning)
//	+24 frag      uint16  fragment index
//	+26 fragCnt   uint16  fragment count
//	+28 totalLen  uint32  reassembled payload length
const (
	hdrBytes = 32

	kindRequest  = 1
	kindResponse = 2
	// kindBatch carries several coalesced responses to one client in a
	// single datagram — the §9 "generalizability" extension: FLock's
	// coalescing applied to UD. Sub-response layout, repeated count
	// times after the packet header: {seq u32, rpcID u32, len u32, data}.
	kindBatch = 3
)

// Errors returned by the client.
var (
	ErrTimeout = errors.New("udrpc: request timed out after retransmissions")
	ErrClosed  = errors.New("udrpc: endpoint closed")
	ErrTooBig  = errors.New("udrpc: payload exceeds maximum")
)

type pktHeader struct {
	kind     uint8
	rpcID    uint32
	client   uint64
	seq      uint32
	ackBelow uint32
	frag     uint16
	fragCnt  uint16
	totalLen uint32
}

func putPktHeader(b []byte, h pktHeader) {
	b[0] = h.kind
	binary.LittleEndian.PutUint32(b[4:], h.rpcID)
	binary.LittleEndian.PutUint64(b[8:], h.client)
	binary.LittleEndian.PutUint32(b[16:], h.seq)
	binary.LittleEndian.PutUint32(b[20:], h.ackBelow)
	binary.LittleEndian.PutUint16(b[24:], h.frag)
	binary.LittleEndian.PutUint16(b[26:], h.fragCnt)
	binary.LittleEndian.PutUint32(b[28:], h.totalLen)
}

func getPktHeader(b []byte) pktHeader {
	return pktHeader{
		kind:     b[0],
		rpcID:    binary.LittleEndian.Uint32(b[4:]),
		client:   binary.LittleEndian.Uint64(b[8:]),
		seq:      binary.LittleEndian.Uint32(b[16:]),
		ackBelow: binary.LittleEndian.Uint32(b[20:]),
		frag:     binary.LittleEndian.Uint16(b[24:]),
		fragCnt:  binary.LittleEndian.Uint16(b[26:]),
		totalLen: binary.LittleEndian.Uint32(b[28:]),
	}
}

// Handler processes one request and returns the response payload.
type Handler func(req []byte) []byte

// Config tunes an endpoint. The unexported fields are set by this package's
// tests only; every other endpoint runs on their defaults.
type Config struct {
	// serverQPs is the number of UD QPs (and dispatcher goroutines) a
	// server runs; clients hash across them. Default 1.
	serverQPs int
	// maxPayload bounds a reassembled request or response. Default 64 KiB.
	maxPayload int
	// retransmitTimeout is the client's per-attempt response deadline.
	// Default 1ms (the in-process fabric is fast; real eRPC uses ~5 RTTs).
	retransmitTimeout time.Duration
	// maxRetries bounds retransmissions before ErrTimeout. Default 50.
	maxRetries int
	// CoalesceResponses batches the responses of one CQ poll that share a
	// destination into single datagrams — the paper's §9 observation that
	// FLock-style coalescing also reduces UD's per-packet CPU and wire
	// overhead. Off by default (the faithful eRPC/FaSST baseline).
	CoalesceResponses bool
}

func (c Config) withDefaults() Config {
	if c.serverQPs <= 0 {
		c.serverQPs = 1
	}
	if c.maxPayload <= 0 {
		c.maxPayload = 64 << 10
	}
	if c.retransmitTimeout <= 0 {
		c.retransmitTimeout = time.Millisecond
	}
	if c.maxRetries <= 0 {
		c.maxRetries = 50
	}
	return c
}

// Metrics counts endpoint activity.
type Metrics struct {
	// RequestsServed counts handler executions (including duplicate
	// re-sends served from cache as DuplicatesServed instead).
	RequestsServed uint64
	// DuplicatesServed counts retransmitted requests answered from the
	// response cache.
	DuplicatesServed uint64
	// Retransmits counts client-side retransmissions.
	Retransmits uint64
	// RecvRecycles counts receive-buffer repost operations — the
	// ibv_post_recv cost of §2.2.
	RecvRecycles uint64
	// BatchedResponses counts responses shipped inside coalesced (batch)
	// datagrams when CoalesceResponses is on.
	BatchedResponses uint64
}

// Server is a UD RPC server endpoint.
type Server struct {
	dev  *rnic.Device
	cfg  Config
	node fabric.NodeID

	handMu   sync.Mutex
	handlers atomic.Value // map[uint32]Handler

	qps   []*rnic.QP
	slots [][]*recvSlot

	// Response cache for duplicate suppression, per client thread.
	cacheMu sync.Mutex
	cache   map[uint64]*clientCache

	reqServed  atomic.Uint64
	dupServed  atomic.Uint64
	recycles   atomic.Uint64
	batched    atomic.Uint64
	reassembly map[uint64]*partial // keyed by client; one in-flight reassembly per client thread

	done chan struct{}
	wg   sync.WaitGroup
}

// clientCache retains responses for unacked seqs of one client thread.
type clientCache struct {
	mu       sync.Mutex
	ackBelow uint32
	resps    map[uint32][]byte // seq → encoded response payload
}

// partial is one in-progress fragment reassembly.
type partial struct {
	seq   uint32
	rpcID uint32
	buf   []byte
	got   int
}

// recvDepth is the number of receive buffers kept posted per QP.
const recvDepth = 256

// recvSlot is one posted receive buffer.
type recvSlot struct {
	mr  *rnic.MemRegion
	len int
}

// NewServer creates a UD RPC server on an existing device and starts its
// dispatcher goroutines.
func NewServer(dev *rnic.Device, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		dev:        dev,
		cfg:        cfg,
		node:       dev.Node(),
		cache:      make(map[uint64]*clientCache),
		reassembly: make(map[uint64]*partial),
		done:       make(chan struct{}),
	}
	s.handlers.Store(map[uint32]Handler{})
	for i := 0; i < cfg.serverQPs; i++ {
		qp, err := dev.CreateQP(rnic.UD, dev.CreateCQ(), dev.CreateCQ())
		if err != nil {
			return nil, err
		}
		slots := make([]*recvSlot, recvDepth)
		for j := range slots {
			mr, err := dev.RegisterMR(dev.Fabric().MTU(), 0)
			if err != nil {
				return nil, err
			}
			slots[j] = &recvSlot{mr: mr, len: dev.Fabric().MTU()}
			if err := qp.PostRecv(rnic.RecvWR{WRID: uint64(j), MR: mr, Off: 0, Len: slots[j].len}); err != nil {
				return nil, err
			}
		}
		s.qps = append(s.qps, qp)
		s.slots = append(s.slots, slots)
	}
	for i := range s.qps {
		s.wg.Add(1)
		go s.dispatch(i)
	}
	return s, nil
}

// RegisterHandler binds fn to rpcID.
func (s *Server) RegisterHandler(rpcID uint32, fn Handler) {
	s.handMu.Lock()
	defer s.handMu.Unlock()
	old := s.handlers.Load().(map[uint32]Handler)
	next := make(map[uint32]Handler, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[rpcID] = fn
	s.handlers.Store(next)
}

// QPNs returns the server's UD queue pair numbers; clients address
// requests to them (the out-of-band exchange).
func (s *Server) QPNs() []int {
	out := make([]int, len(s.qps))
	for i, q := range s.qps {
		out[i] = q.QPN()
	}
	return out
}

// Node returns the server's fabric address.
func (s *Server) Node() fabric.NodeID { return s.node }

// Metrics snapshots server counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		RequestsServed:   s.reqServed.Load(),
		DuplicatesServed: s.dupServed.Load(),
		RecvRecycles:     s.recycles.Load(),
		BatchedResponses: s.batched.Load(),
	}
}

// Close stops the dispatchers.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	s.wg.Wait()
}

// dispatch is one server dispatcher: poll the recv CQ, recycle buffers,
// reassemble, execute, respond — the per-packet CPU loop of §2.2.
func (s *Server) dispatch(qpIdx int) {
	defer s.wg.Done()
	qp := s.qps[qpIdx]
	slots := s.slots[qpIdx]
	var cqBuf [64]rnic.Completion
	idle := 0
	for {
		select {
		case <-s.done:
			return
		default:
		}
		k := qp.RecvCQ().Poll(cqBuf[:])
		if k == 0 {
			idle++
			backoff(idle)
			continue
		}
		idle = 0
		var out []pendingResp
		for _, comp := range cqBuf[:k] {
			slot := slots[comp.WRID]
			if comp.Status == rnic.StatusOK {
				pkt := make([]byte, comp.ByteLen)
				slot.mr.ReadAt(pkt, 0) //nolint:errcheck
				if pr, ok := s.handlePacket(pkt, comp.SrcNode, comp.SrcQPN); ok {
					out = append(out, pr)
				}
			}
			// Recycle the receive buffer (ibv_post_recv).
			s.recycles.Add(1)
			qp.PostRecv(rnic.RecvWR{WRID: comp.WRID, MR: slot.mr, Off: 0, Len: slot.len}) //nolint:errcheck
		}
		s.flushResponses(qp, out)
	}
}

// pendingResp is one computed response awaiting transmission.
type pendingResp struct {
	dst    rnic.Address
	client uint64
	rpcID  uint32
	seq    uint32
	data   []byte
}

// flushResponses transmits the batch: one datagram per response in the
// faithful baseline, or packed kindBatch datagrams per destination when
// CoalesceResponses is on.
func (s *Server) flushResponses(qp *rnic.QP, out []pendingResp) {
	if !s.cfg.CoalesceResponses {
		for _, pr := range out {
			sendFragments(qp, s.dev.Fabric().MTU(), pr.dst, kindResponse, pr.rpcID, pr.client, pr.seq, 0, pr.data)
		}
		return
	}
	mtu := s.dev.Fabric().MTU()
	budget := mtu - hdrBytes
	// Group by destination client thread, preserving arrival order.
	groups := make(map[uint64][]pendingResp)
	var order []uint64
	for _, pr := range out {
		if _, seen := groups[pr.client]; !seen {
			order = append(order, pr.client)
		}
		groups[pr.client] = append(groups[pr.client], pr)
	}
	for _, client := range order {
		group := groups[client]
		for len(group) > 0 {
			// Greedily pack a prefix of the group into one datagram.
			n, used := 0, 0
			for n < len(group) && used+12+len(group[n].data) <= budget {
				used += 12 + len(group[n].data)
				n++
			}
			if n <= 1 {
				// Single (or oversized) response: the plain path handles
				// fragmentation.
				pr := group[0]
				sendFragments(qp, mtu, pr.dst, kindResponse, pr.rpcID, pr.client, pr.seq, 0, pr.data)
				group = group[1:]
				continue
			}
			// Stage sub-responses directly into a pooled datagram buffer
			// (no intermediate payload slab); ownership transfers to the
			// device via SendWR.Pooled.
			b := mem.Get(hdrBytes + used)
			pkt := b.Data()
			off := hdrBytes
			for _, q := range group[:n] {
				binary.LittleEndian.PutUint32(pkt[off:], q.seq)
				binary.LittleEndian.PutUint32(pkt[off+4:], q.rpcID)
				binary.LittleEndian.PutUint32(pkt[off+8:], uint32(len(q.data)))
				copy(pkt[off+12:], q.data)
				off += 12 + len(q.data)
			}
			s.batched.Add(uint64(n))
			putPktHeader(pkt, pktHeader{
				kind: kindBatch, client: client,
				fragCnt: uint16(n), totalLen: uint32(used),
			})
			if err := qp.PostSend(rnic.SendWR{Op: rnic.OpSend, Inline: pkt, Pooled: b, Dst: group[0].dst}); err != nil {
				b.Release() // post rejected: lease stays with the caller
			}
			group = group[n:]
		}
	}
}

// handlePacket processes one inbound request datagram, returning the
// response to transmit (if the request is complete).
func (s *Server) handlePacket(pkt []byte, srcNode, srcQPN int) (pendingResp, bool) {
	if len(pkt) < hdrBytes {
		return pendingResp{}, false
	}
	h := getPktHeader(pkt)
	if h.kind != kindRequest || int(h.totalLen) > s.cfg.maxPayload {
		return pendingResp{}, false
	}
	dst := rnic.Address{Node: srcNode, QPN: srcQPN}
	cc := s.clientCache(h.client)
	cc.mu.Lock()
	// Prune acked responses.
	if h.ackBelow > cc.ackBelow {
		for seq := range cc.resps {
			if seq < h.ackBelow {
				delete(cc.resps, seq)
			}
		}
		cc.ackBelow = h.ackBelow
	}
	if cached, dup := cc.resps[h.seq]; dup {
		cc.mu.Unlock()
		s.dupServed.Add(1)
		return pendingResp{dst: dst, client: h.client, rpcID: h.rpcID, seq: h.seq, data: cached}, true
	}
	cc.mu.Unlock()

	payload, complete := s.reassemble(h, pkt[hdrBytes:])
	if !complete {
		return pendingResp{}, false
	}
	fn := s.handlers.Load().(map[uint32]Handler)[h.rpcID]
	var resp []byte
	if fn != nil {
		resp = fn(payload)
	}
	s.reqServed.Add(1)
	cc.mu.Lock()
	cc.resps[h.seq] = resp
	cc.mu.Unlock()
	return pendingResp{dst: dst, client: h.client, rpcID: h.rpcID, seq: h.seq, data: resp}, true
}

// reassemble merges one fragment; returns the full payload when complete.
func (s *Server) reassemble(h pktHeader, frag []byte) ([]byte, bool) {
	if h.fragCnt <= 1 {
		return frag, true
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	p := s.reassembly[h.client]
	if p == nil || p.seq != h.seq {
		p = &partial{seq: h.seq, rpcID: h.rpcID, buf: make([]byte, h.totalLen)}
		s.reassembly[h.client] = p
	}
	mtu := s.dev.Fabric().MTU() - hdrBytes
	off := int(h.frag) * mtu
	if off+len(frag) <= len(p.buf) {
		copy(p.buf[off:], frag)
		p.got++
	}
	if p.got == int(h.fragCnt) {
		delete(s.reassembly, h.client)
		return p.buf, true
	}
	return nil, false
}

// clientCache returns (creating if needed) the dedup cache for a client.
func (s *Server) clientCache(client uint64) *clientCache {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	cc := s.cache[client]
	if cc == nil {
		cc = &clientCache{resps: make(map[uint32][]byte)}
		s.cache[client] = cc
	}
	return cc
}

// sendFragments is the shared fragmentation path.
func sendFragments(qp *rnic.QP, mtu int, dst rnic.Address, kind uint8, rpcID uint32, client uint64, seq, ackBelow uint32, payload []byte) {
	chunk := mtu - hdrBytes
	fragCnt := (len(payload) + chunk - 1) / chunk
	if fragCnt == 0 {
		fragCnt = 1
	}
	for f := 0; f < fragCnt; f++ {
		lo := f * chunk
		hi := lo + chunk
		if hi > len(payload) {
			hi = len(payload)
		}
		b := mem.Get(hdrBytes + hi - lo)
		pkt := b.Data()
		putPktHeader(pkt, pktHeader{
			kind: kind, rpcID: rpcID, client: client, seq: seq, ackBelow: ackBelow,
			frag: uint16(f), fragCnt: uint16(fragCnt), totalLen: uint32(len(payload)),
		})
		copy(pkt[hdrBytes:], payload[lo:hi])
		// Pooled transfers the lease to the device; it is released when the
		// WR completes or flushes. Send failures surface as timeouts, but the
		// lease must still come back on a rejected post.
		if err := qp.PostSend(rnic.SendWR{
			Op: rnic.OpSend, Inline: pkt, Pooled: b, Dst: dst,
		}); err != nil {
			b.Release()
		}
	}
}

// backoff yields then sleeps as a poll loop stays idle.
func backoff(idle int) {
	if idle < 256 {
		time.Sleep(time.Microsecond)
	} else {
		time.Sleep(20 * time.Microsecond)
	}
}
