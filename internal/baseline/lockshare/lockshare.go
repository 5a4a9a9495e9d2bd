// Package lockshare is the FaRM-style RC RPC baseline of §8.3.1: RPC over
// two RDMA writes (request ring, response ring) where threads either own a
// dedicated QP ("no sharing", 1 thread/QP) or share a QP behind a spinlock
// (2 or 4 threads/QP in Figure 9). There is no coalescing: each thread
// stages and posts its own single-request message while holding the lock,
// which is exactly the serialization FLock's combining removes.
//
// The wire format is a single-item version of FLock's (§4.1): length,
// canary, metadata, payload, trailing canary. Keeping the framing
// comparable isolates the synchronization strategy as the only difference,
// as the paper's "fair comparison" requires.
package lockshare

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/rnic"
)

// zeroPage backs ring zeroing after consumption, replacing the per-request
// zero-slab allocation.
var zeroPage [4096]byte

// zeroRange clears n bytes of mr starting at off using the shared zero page.
func zeroRange(mr *rnic.MemRegion, off, n int) {
	for n > 0 {
		k := n
		if k > len(zeroPage) {
			k = len(zeroPage)
		}
		mr.WriteAt(zeroPage[:k], off) //nolint:errcheck // in range by construction
		off += k
		n -= k
	}
}

// Message layout: 24-byte header, payload (8-aligned), 8-byte trailer.
//
//	+0  totalLen uint32
//	+4  size     uint32  payload bytes
//	+8  canary   uint64
//	+16 threadID uint32
//	+20 rpcID    uint32
//	... payload
//	+n  canary   uint64
const (
	hdrBytes  = 24
	tailBytes = 8
)

// Errors.
var (
	ErrClosed  = errors.New("lockshare: endpoint closed")
	ErrTooBig  = errors.New("lockshare: payload exceeds ring capacity")
	ErrRingful = errors.New("lockshare: ring buffer wedged")
)

func pad8(n int) int { return (n + 7) &^ 7 }

// Handler processes a request payload into a response payload.
type Handler func(req []byte) []byte

// Config tunes the baseline. The unexported fields are set by this
// package's tests only; every other endpoint runs on their defaults.
type Config struct {
	// ThreadsPerQP is the sharing degree: 1 reproduces the "no sharing"
	// configuration; 2 or 4 the FaRM-like spinlock sharing of Figure 9.
	ThreadsPerQP int
	// ringBytes sizes each request/response ring. Default 1 MiB.
	ringBytes int
	// maxPayload bounds one request or response. Default 64 KiB.
	maxPayload int
}

func (c Config) withDefaults() Config {
	if c.ThreadsPerQP <= 0 {
		c.ThreadsPerQP = 1
	}
	if c.ringBytes <= 0 {
		c.ringBytes = 1 << 20
	}
	if c.maxPayload <= 0 {
		c.maxPayload = 64 << 10
	}
	return c
}

// spinLock is a test-and-set spinlock, as FaRM guards shared QPs.
type spinLock struct{ v atomic.Uint32 }

func (l *spinLock) Lock() {
	for !l.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (l *spinLock) Unlock() { l.v.Store(0) }

// qpShare is one shared QP with its rings.
type qpShare struct {
	mu        spinLock
	qp        *rnic.QP
	reqMirror *rnic.MemRegion // local staging, mirrors server request ring
	reqRKey   uint32
	respRing  *rnic.MemRegion // server writes responses here
	tail      uint64          // request ring tail (under mu)
	reqHead   uint64          // consumed head as last piggybacked (under mu)
	wrScratch []rnic.SendWR   // post batch staging (under mu; PostSend copies)

	// Per-thread response slots: the server writes thread t's response at
	// slot t, so concurrent threads on one QP don't contend on response
	// parsing. Slot size = maxPayload + framing.
	slotBytes int
}

// Server is the baseline RPC server: it polls per-QP request rings and
// answers into per-thread response slots.
type Server struct {
	dev  *rnic.Device
	cfg  Config
	node fabric.NodeID

	handlers atomic.Value // map[uint32]Handler
	handMu   sync.Mutex

	mu   sync.Mutex
	qps  []*serverQP
	done chan struct{}
	wg   sync.WaitGroup

	served atomic.Uint64
}

type serverQP struct {
	qp         *rnic.QP
	reqRing    *rnic.MemRegion
	head       uint64
	respRKey   uint32
	respMirror *rnic.MemRegion
	slotBytes  int
	ringBytes  int
}

// NewServer starts the baseline server on dev.
func NewServer(dev *rnic.Device, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{dev: dev, cfg: cfg, node: dev.Node(), done: make(chan struct{})}
	s.handlers.Store(map[uint32]Handler{})
	s.wg.Add(1)
	go s.dispatch()
	return s
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

// Served reports handler executions.
func (s *Server) Served() uint64 { return s.served.Load() }

// Close stops the dispatcher.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	s.wg.Wait()
}

// accept wires the server end of one shared QP (in-process bootstrap).
func (s *Server) accept(clientNode fabric.NodeID, clientQPN int, respRKey uint32, slotBytes int) (qpn int, reqRKey uint32, err error) {
	qp, err := s.dev.CreateQP(rnic.RC, s.dev.CreateCQ(), s.dev.CreateCQ())
	if err != nil {
		return 0, 0, err
	}
	reqRing, err := s.dev.RegisterMR(s.cfg.ringBytes, rnic.PermRemoteWrite)
	if err != nil {
		return 0, 0, err
	}
	respMirror, err := s.dev.RegisterMR(slotBytes*s.cfg.ThreadsPerQP, 0)
	if err != nil {
		return 0, 0, err
	}
	if err := qp.Connect(int(clientNode), clientQPN); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	s.qps = append(s.qps, &serverQP{
		qp: qp, reqRing: reqRing, respRKey: respRKey,
		respMirror: respMirror, slotBytes: slotBytes, ringBytes: s.cfg.ringBytes,
	})
	s.mu.Unlock()
	return qp.QPN(), reqRing.RKey(), nil
}

// snapshotQPs copies the server QP list.
func (s *Server) snapshotQPs() []*serverQP {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*serverQP, len(s.qps))
	copy(out, s.qps)
	return out
}

// dispatch polls request rings and serves requests inline.
func (s *Server) dispatch() {
	defer s.wg.Done()
	idle := 0
	for {
		select {
		case <-s.done:
			return
		default:
		}
		busy := false
		for _, sq := range s.snapshotQPs() {
			for s.serveOne(sq) {
				busy = true
			}
		}
		if busy {
			idle = 0
		} else {
			idle++
			if idle < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(5 * time.Microsecond)
			}
		}
	}
}

// serveOne consumes and answers one request from sq's ring, if complete.
func (s *Server) serveOne(sq *serverQP) bool {
	off := int(sq.head) % sq.ringBytes
	word := sq.reqRing.Load64(off)
	totalLen := uint32(word)
	if totalLen == 0 {
		return false
	}
	if totalLen == ^uint32(0) { // wrap marker
		sq.reqRing.WriteAt(zeroPage[:8], off) //nolint:errcheck
		sq.head += uint64(sq.ringBytes - off)
		return true
	}
	if int(totalLen) < hdrBytes+tailBytes || int(totalLen) > sq.ringBytes-off {
		return false
	}
	canary := sq.reqRing.Load64(off + 8)
	if canary == 0 || sq.reqRing.Load64(off+int(totalLen)-tailBytes) != canary {
		return false // incomplete
	}
	// Copy the message once into a pooled buffer; the handler may return a
	// view of it (echo), so the lease is held until respond has staged the
	// response into the mirror MR.
	b := mem.Get(int(totalLen))
	buf := b.Data()
	sq.reqRing.ReadAt(buf, off) //nolint:errcheck
	size := binary.LittleEndian.Uint32(buf[4:])
	threadID := binary.LittleEndian.Uint32(buf[16:])
	rpcID := binary.LittleEndian.Uint32(buf[20:])
	payload := buf[hdrBytes : hdrBytes+size]

	fn := s.handlers.Load().(map[uint32]Handler)[rpcID]
	var resp []byte
	if fn != nil {
		resp = fn(payload)
	}
	s.served.Add(1)

	// Zero and advance.
	zeroRange(sq.reqRing, off, int(totalLen))
	sq.head += uint64(totalLen)

	// Respond into the thread's slot with the consumed head piggybacked
	// in place of the canary-protected header's reserved word.
	s.respond(sq, threadID, rpcID, resp)
	b.Release()
	return true
}

// respond writes one response message into the client's per-thread slot.
func (s *Server) respond(sq *serverQP, threadID, rpcID uint32, resp []byte) {
	if len(resp) > sq.slotBytes-hdrBytes-tailBytes-8 {
		resp = resp[:0]
	}
	msgLen := hdrBytes + 8 + pad8(len(resp)) + tailBytes // +8 carries the consumed head
	slotOff := int(threadID%uint32(s.cfg.ThreadsPerQP)) * sq.slotBytes
	// Staging lease: the message is copied into the mirror MR below, so the
	// buffer is recycled as soon as WriteAt returns. Clear the pad bytes
	// between payload and canary (recycled buffers carry old data).
	b := mem.Get(msgLen)
	buf := b.Data()
	for i := hdrBytes + 8 + len(resp); i < msgLen-tailBytes; i++ {
		buf[i] = 0
	}
	canary := uint64(time.Now().UnixNano())<<1 | 1
	binary.LittleEndian.PutUint32(buf[0:], uint32(msgLen))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(resp)))
	binary.LittleEndian.PutUint64(buf[8:], canary)
	binary.LittleEndian.PutUint32(buf[16:], threadID)
	binary.LittleEndian.PutUint32(buf[20:], rpcID)
	binary.LittleEndian.PutUint64(buf[hdrBytes:], sq.head) // piggybacked consumed head
	copy(buf[hdrBytes+8:], resp)
	binary.LittleEndian.PutUint64(buf[msgLen-tailBytes:], canary)
	sq.respMirror.WriteAt(buf, slotOff) //nolint:errcheck
	b.Release()
	sq.qp.PostSend(rnic.SendWR{ //nolint:errcheck
		Op: rnic.OpWrite, LocalMR: sq.respMirror, LocalOff: slotOff, LocalLen: msgLen,
		RKey: sq.respRKey, RemoteOff: slotOff,
	})
}

// Client is the baseline client: a set of shared QPs, each used by
// ThreadsPerQP threads under a lock.
type Client struct {
	dev    *rnic.Device
	cfg    Config
	server *Server

	mu      sync.Mutex
	shares  []*qpShare
	nextTID uint32
}

// NewClient creates a baseline client talking to srv (in-process
// bootstrap, as elsewhere).
func NewClient(dev *rnic.Device, cfg Config, srv *Server) *Client {
	cfg = cfg.withDefaults()
	return &Client{dev: dev, cfg: cfg, server: srv}
}

// Thread is one application thread's handle.
type Thread struct {
	c        *Client
	share    *qpShare
	id       uint32
	slot     int
	lastSeen uint64 // canary of the last consumed response
}

// RegisterThread allocates a thread handle, creating a new shared QP for
// every ThreadsPerQP threads.
func (c *Client) RegisterThread() (*Thread, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextTID
	c.nextTID++
	slot := int(id) % c.cfg.ThreadsPerQP
	if slot == 0 {
		share, err := c.newShare()
		if err != nil {
			return nil, err
		}
		c.shares = append(c.shares, share)
	}
	share := c.shares[len(c.shares)-1]
	return &Thread{c: c, share: share, id: id, slot: slot}, nil
}

// newShare builds one shared QP and its rings.
func (c *Client) newShare() (*qpShare, error) {
	slotBytes := pad8(c.cfg.maxPayload) + hdrBytes + tailBytes + 16
	qp, err := c.dev.CreateQP(rnic.RC, c.dev.CreateCQ(), c.dev.CreateCQ())
	if err != nil {
		return nil, err
	}
	reqMirror, err := c.dev.RegisterMR(c.cfg.ringBytes, 0)
	if err != nil {
		return nil, err
	}
	respRing, err := c.dev.RegisterMR(slotBytes*c.cfg.ThreadsPerQP, rnic.PermRemoteWrite)
	if err != nil {
		return nil, err
	}
	qpn, reqRKey, err := c.server.accept(c.dev.Node(), qp.QPN(), respRing.RKey(), slotBytes)
	if err != nil {
		return nil, err
	}
	if err := qp.Connect(int(c.server.node), qpn); err != nil {
		return nil, err
	}
	return &qpShare{
		qp: qp, reqMirror: reqMirror, reqRKey: reqRKey,
		respRing: respRing, slotBytes: slotBytes,
	}, nil
}

// Call performs one synchronous RPC: stage the single-request message,
// post it under the QP lock, then poll the thread's response slot.
func (t *Thread) Call(rpcID uint32, payload []byte) ([]byte, error) {
	if len(payload) > t.c.cfg.maxPayload {
		return nil, ErrTooBig
	}
	sh := t.share
	msgLen := hdrBytes + pad8(len(payload)) + tailBytes
	canary := uint64(time.Now().UnixNano())<<8 | uint64(t.id&0x7f) | 1

	sh.mu.Lock()
	// Ring space: single-writer under the lock; consumed head is learned
	// from response piggybacks.
	for spin := 0; ; spin++ {
		off := int(sh.tail) % t.c.cfg.ringBytes
		need := msgLen
		if off+msgLen > t.c.cfg.ringBytes {
			need += t.c.cfg.ringBytes - off
		}
		if need <= t.c.cfg.ringBytes-int(sh.tail-sh.reqHead) {
			break
		}
		if spin > 1_000_000 {
			sh.mu.Unlock()
			return nil, ErrRingful
		}
		runtime.Gosched() // wait for a response to piggyback the head
	}
	off := int(sh.tail) % t.c.cfg.ringBytes
	wrs := sh.wrScratch[:0]
	if off+msgLen > t.c.cfg.ringBytes {
		rem := t.c.cfg.ringBytes - off
		var marker [8]byte
		binary.LittleEndian.PutUint32(marker[:], ^uint32(0))
		sh.reqMirror.WriteAt(marker[:], off) //nolint:errcheck
		wrs = append(wrs, rnic.SendWR{
			Op: rnic.OpWrite, LocalMR: sh.reqMirror, LocalOff: off, LocalLen: 8,
			RKey: sh.reqRKey, RemoteOff: off,
		})
		sh.tail += uint64(rem)
		off = 0
	}
	// Pooled staging lease: WriteAt copies the message into the mirror MR,
	// so the buffer is recycled before the post. Pad bytes between payload
	// and canary are cleared (recycled buffers carry old data).
	b := mem.Get(msgLen)
	buf := b.Data()
	for i := hdrBytes + len(payload); i < msgLen-tailBytes; i++ {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], uint32(msgLen))
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:], canary)
	binary.LittleEndian.PutUint32(buf[16:], t.id)
	binary.LittleEndian.PutUint32(buf[20:], rpcID)
	copy(buf[hdrBytes:], payload)
	binary.LittleEndian.PutUint64(buf[msgLen-tailBytes:], canary)
	sh.reqMirror.WriteAt(buf, off) //nolint:errcheck
	b.Release()
	sh.tail += uint64(msgLen)
	wrs = append(wrs, rnic.SendWR{
		Op: rnic.OpWrite, LocalMR: sh.reqMirror, LocalOff: off, LocalLen: msgLen,
		RKey: sh.reqRKey, RemoteOff: off,
	})
	err := sh.qp.PostSend(wrs...)
	sh.wrScratch = wrs[:0]
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// Poll the private response slot; no lock needed.
	slotOff := t.slot * sh.slotBytes
	for {
		word := sh.respRing.Load64(slotOff)
		totalLen := uint32(word)
		if totalLen >= hdrBytes+tailBytes && int(totalLen) <= sh.slotBytes {
			can := sh.respRing.Load64(slotOff + 8)
			if can != 0 && can != t.lastSeen &&
				sh.respRing.Load64(slotOff+int(totalLen)-tailBytes) == can {
				rb := mem.Get(int(totalLen))
				rbuf := rb.Data()
				sh.respRing.ReadAt(rbuf, slotOff) //nolint:errcheck
				size := binary.LittleEndian.Uint32(rbuf[4:])
				head := binary.LittleEndian.Uint64(rbuf[hdrBytes:])
				t.lastSeen = can
				// Publish the piggybacked consumed head (monotonic).
				sh.mu.Lock()
				if head > sh.reqHead {
					sh.reqHead = head
				}
				sh.mu.Unlock()
				// The caller owns the returned payload, so this one copy
				// out of the lease remains.
				out := make([]byte, size)
				copy(out, rbuf[hdrBytes+8:hdrBytes+8+size])
				rb.Release()
				return out, nil
			}
		}
		runtime.Gosched()
	}
}
