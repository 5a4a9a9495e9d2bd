package rnic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flock/internal/mem"
)

// Address identifies a remote queue pair for UD sends (the address-handle
// role of the verbs API).
type Address struct {
	Node int
	QPN  int
}

// SendWR is a send-queue work request. The payload source is either Inline
// (the bytes are captured at post time) or a registered local region
// (LocalMR/LocalOff/LocalLen). One-sided verbs additionally name the
// remote region by RKey/RemoteOff. For atomics, the 8-byte result lands at
// LocalMR/LocalOff.
type SendWR struct {
	WRID uint64
	Op   Opcode

	// Payload source.
	Inline   []byte
	LocalMR  *MemRegion
	LocalOff int
	LocalLen int

	// One-sided target.
	RKey      uint32
	RemoteOff int

	// Immediate for OpSend/OpWriteImm.
	Imm      uint32
	ImmValid bool

	// Atomics: OpFetchAdd adds CompareAdd; OpCmpSwap swaps in Swap when
	// the current value equals CompareAdd.
	CompareAdd uint64
	Swap       uint64

	// Signaled requests a completion entry on success. Errors always
	// complete. Selective signaling (§7 of the paper) posts runs of
	// unsignaled WRs ended by a signaled one, cutting completion DMAs.
	Signaled bool

	// Dst addresses the destination for UD sends; ignored on connected
	// transports.
	Dst Address

	// Pooled transfers ownership of the Inline buffer's pool lease to the
	// device: PostSend is asynchronous, so a caller staging Inline bytes in
	// a pooled buffer cannot release it when PostSend returns — the WR may
	// still be queued behind a busy processing unit or a stalled head. The
	// device releases the lease when the WR reaches a terminal state
	// (executed, flushed on QP error, or abandoned at Close). If PostSend
	// returns an error, nothing was enqueued and the lease stays with the
	// caller.
	Pooled *mem.Buf
}

// RecvWR is a receive-queue work request: a buffer the NIC may place one
// inbound send into.
type RecvWR struct {
	WRID uint64
	MR   *MemRegion
	Off  int
	Len  int
}

// qpState tracks the queue pair lifecycle.
type qpState int

const (
	qpReset qpState = iota
	qpReady
	qpError
)

// Errors returned by posting.
var (
	ErrQPNotReady    = errors.New("rnic: queue pair not connected/ready")
	ErrQPErrorState  = errors.New("rnic: queue pair in error state")
	ErrUnsupported   = errors.New("rnic: opcode not supported by transport")
	ErrMTUExceeded   = errors.New("rnic: UD payload exceeds MTU")
	ErrBadWR         = errors.New("rnic: malformed work request")
	ErrDeviceClosed  = errors.New("rnic: device closed")
	ErrNoSuchNode    = errors.New("rnic: destination node not on fabric")
	ErrAlreadyBound  = errors.New("rnic: queue pair already connected")
	ErrWrongTranport = errors.New("rnic: operation invalid for transport")
)

// QP is a queue pair: a send queue and a receive queue bound to a send and
// a receive completion queue. Connected transports (RC/UC) are bound
// one-to-one to a remote QP with Connect; UD QPs address each send
// individually.
//
// Like hardware QPs, a QP imposes no internal concurrency control beyond
// what is needed for memory safety: concurrent PostSend calls are legal
// but their relative order is unspecified. FLock's whole point (§4.2) is
// that the *application* should serialize posting through a combining
// leader rather than a lock.
type QP struct {
	dev       *Device
	qpn       int
	transport Transport

	mu       sync.Mutex
	state    qpState
	peerNode int
	peerQPN  int
	sendq    []SendWR
	recvq    []RecvWR
	ringing  bool        // a doorbell for this QP is outstanding
	timer    *time.Timer // re-rings a stalled QP; made on its first stall

	dbNext *QP        // next rung QP on the device's doorbell queue (Device.dbMu)
	head   wrProgress // the head WR's progress across re-rings; the unit's

	sendCQ *CQ
	recvCQ *CQ
}

// QPN returns the queue pair number, unique per device.
func (q *QP) QPN() int { return q.qpn }

// Transport returns the queue pair's transport type.
func (q *QP) Transport() Transport { return q.transport }

// SendCQ returns the completion queue for send-side completions.
func (q *QP) SendCQ() *CQ { return q.sendCQ }

// RecvCQ returns the completion queue for receive-side completions.
func (q *QP) RecvCQ() *CQ { return q.recvCQ }

// Connect binds a connected (RC/UC) queue pair to its peer. The peer QP
// must be connected back before traffic flows; Device.ConnectPair does
// both ends at once for in-process setups.
func (q *QP) Connect(peerNode, peerQPN int) error {
	if q.transport == UD {
		return ErrWrongTranport
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state == qpReady {
		return ErrAlreadyBound
	}
	if q.state == qpError {
		return ErrQPErrorState
	}
	q.peerNode = peerNode
	q.peerQPN = peerQPN
	q.state = qpReady
	return nil
}

// Peer returns the connected peer's (node, qpn); meaningful only for
// RC/UC queue pairs in the ready state.
func (q *QP) Peer() (node, qpn int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peerNode, q.peerQPN
}

// validate checks a work request against transport capabilities and shape.
func (q *QP) validate(wr *SendWR) error {
	if !q.transport.Supports(wr.Op) {
		return fmt.Errorf("%w: %s on %s", ErrUnsupported, wr.Op, q.transport)
	}
	switch wr.Op {
	case OpSend, OpWrite, OpWriteImm:
		if wr.Inline != nil && wr.LocalMR != nil {
			return fmt.Errorf("%w: both inline and MR payload", ErrBadWR)
		}
		if wr.Inline == nil && wr.LocalMR == nil && q.payloadLen(wr) != 0 {
			return fmt.Errorf("%w: no payload source", ErrBadWR)
		}
		if wr.LocalMR != nil {
			if err := wr.LocalMR.checkRange(wr.LocalOff, wr.LocalLen); err != nil {
				return err
			}
		}
		if q.transport == UD && q.payloadLen(wr) > q.dev.fab.MTU() {
			return ErrMTUExceeded
		}
	case OpRead:
		if wr.LocalMR == nil {
			return fmt.Errorf("%w: read needs a local destination MR", ErrBadWR)
		}
		if err := wr.LocalMR.checkRange(wr.LocalOff, wr.LocalLen); err != nil {
			return err
		}
	case OpFetchAdd, OpCmpSwap:
		if wr.LocalMR == nil {
			return fmt.Errorf("%w: atomic needs a local result MR", ErrBadWR)
		}
		if err := wr.LocalMR.checkRange(wr.LocalOff, 8); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: cannot post %s", ErrBadWR, wr.Op)
	}
	return nil
}

// payloadLen computes the outbound payload size of wr.
func (q *QP) payloadLen(wr *SendWR) int {
	if wr.Inline != nil {
		return len(wr.Inline)
	}
	if wr.LocalMR != nil {
		return wr.LocalLen
	}
	return 0
}

// PostSend posts one or more work requests to the send queue and rings the
// doorbell once. The single doorbell per call is the MMIO economy FLock's
// leader exploits by linking followers' work requests into one post (§6):
// Device.Counters.Doorbells counts calls, not WRs.
//
// PostSend never blocks. If the device has no processing unit the caller
// becomes it and, as a rule, has executed its own WRs by the time PostSend
// returns; otherwise the WRs are left for the unit. A WR that has to wait
// (unready receiver, injected delay, retransmit backoff) does so off the
// caller's goroutine. Either way the outcome arrives as a completion.
func (q *QP) PostSend(wrs ...SendWR) error {
	if len(wrs) == 0 {
		return nil
	}
	for i := range wrs {
		if err := q.validate(&wrs[i]); err != nil {
			return err
		}
	}
	d := q.dev
	q.mu.Lock()
	// Checked under q.mu, which Close's sweep of this send queue takes after
	// setting closed: a WR is either swept or never enqueued.
	if d.closed.Load() {
		q.mu.Unlock()
		return ErrDeviceClosed
	}
	switch q.state {
	case qpError:
		q.mu.Unlock()
		return ErrQPErrorState
	case qpReset:
		if q.transport != UD { // UD QPs are ready at creation
			q.mu.Unlock()
			return ErrQPNotReady
		}
	}
	q.sendq = append(q.sendq, wrs...)
	ring := !q.ringing
	if ring {
		q.ringing = true
		d.inflight.Add(1)
	}
	q.mu.Unlock()

	d.counters.add(&d.counters.Doorbells, 1)
	d.counters.add(&d.counters.WorkRequests, uint64(len(wrs)))
	if ring {
		d.ring(q)
	}
	return nil
}

// PostRecv posts receive buffers. Each inbound send (or write-imm event)
// consumes one in FIFO order.
func (q *QP) PostRecv(wrs ...RecvWR) error {
	for i := range wrs {
		wr := &wrs[i]
		if wr.MR == nil {
			if wr.Len != 0 {
				return fmt.Errorf("%w: recv buffer without MR", ErrBadWR)
			}
		} else if err := wr.MR.checkRange(wr.Off, wr.Len); err != nil {
			return err
		}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.state == qpError {
		return ErrQPErrorState
	}
	q.recvq = append(q.recvq, wrs...)
	return nil
}

// RecvDepth reports the number of posted, unconsumed receive buffers.
func (q *QP) RecvDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.recvq)
}

// popRecv consumes the oldest receive buffer, if any.
func (q *QP) popRecv() (RecvWR, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.recvq) == 0 {
		return RecvWR{}, false
	}
	wr := q.recvq[0]
	n := copy(q.recvq, q.recvq[1:])
	q.recvq = q.recvq[:n]
	return wr, true
}

// enterError moves the QP to the error state and flushes every queued work
// request — send and receive — as a StatusWRFlush error completion, the
// way hardware retires outstanding WQEs of a broken QP (IBTA WR_FLUSH_ERR).
// Owners of in-flight requests observe the flushes on the CQs and can
// recover; subsequent posts fail with ErrQPErrorState.
func (q *QP) enterError() {
	q.mu.Lock()
	q.state = qpError
	sends := q.sendq
	recvs := q.recvq
	q.sendq = nil
	q.recvq = nil
	q.mu.Unlock()
	for i := range sends {
		if sends[i].Pooled != nil {
			sends[i].Pooled.Release()
			sends[i].Pooled = nil
		}
		q.dev.counters.add(&q.dev.counters.WRFlushed, 1)
		q.dev.counters.add(&q.dev.counters.CompletionsDelivered, 1)
		q.sendCQ.push(Completion{
			WRID: sends[i].WRID, Status: StatusWRFlush, Opcode: sends[i].Op, QPN: q.qpn,
		})
	}
	for i := range recvs {
		q.dev.counters.add(&q.dev.counters.WRFlushed, 1)
		q.dev.counters.add(&q.dev.counters.CompletionsDelivered, 1)
		q.recvCQ.push(Completion{
			WRID: recvs[i].WRID, Status: StatusWRFlush, Opcode: OpRecv, QPN: q.qpn,
		})
	}
}

// InError reports whether the QP is in the error state.
func (q *QP) InError() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state == qpError
}
