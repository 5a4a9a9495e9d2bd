// Package rnic implements a software RDMA NIC: queue pairs, completion
// queues, registered memory regions, and the verbs of Table 1 of the FLock
// paper (send/recv, read, write, write-with-immediate, fetch-and-add,
// compare-and-swap) over the three transports RC, UC and UD.
//
// It substitutes for the Mellanox ConnectX-5 hardware of the paper's
// testbed. Two properties of the hardware that FLock's design depends on
// are modeled explicitly:
//
//   - The connection-context cache. A real RNIC caches QP state in on-chip
//     SRAM and fetches missing state over PCIe, which is the scalability
//     cliff of the paper's Figure 2. Device keeps an LRU cache of QP
//     contexts; every work request accounts a hit or a miss on both the
//     requester and the responder NIC. The functional tier surfaces the
//     miss counts; the DES tier (internal/model) converts them to time.
//
//   - Ordering. RC delivers work requests of one QP in order, and RDMA
//     writes become visible in ascending address order (FLock's canary
//     framing in §4.1 relies on this). The device applies RC writes in
//     ascending MTU-sized chunks, so a concurrent poller genuinely
//     observes partially-placed messages and the canary check is
//     load-bearing.
//
// Like the hardware's DMA, a write or read moves each byte once: straight
// from the source region into the destination region, one MTU chunk at a
// time under both regions' locks (see MemRegion for their order), with no
// staging buffer. Only sends gather a private copy of their payload.
//
// # Execution model
//
// A Device owns no goroutine. Posting is what the paper prices it as — a
// doorbell, not a hand-off to another thread (§6) — so the work a doorbell
// starts runs to completion on the goroutine that rang it:
//
//   - Who runs a WR. QP.PostSend appends to the QP's send queue and, if the
//     QP has no doorbell outstanding, puts the QP on the device's doorbell
//     queue. The ringer then tries to become the device's processing unit
//     (one CAS). If it wins it executes rung QPs in doorbell order, at most
//     drainBudget WRs per visit to a QP, until the queue is empty; having
//     given the role up it looks at the queue once more, so a doorbell rung
//     in between is not lost. If it loses, the unit is some other ringer,
//     which will reach the queued QP: the NIC is a combining lock (§4.2
//     applied to the model itself). There is one unit at a time, so WRs of
//     one QP execute in post order and completions of one QP arrive in
//     order. A ringer is not captured: after its own doorbell it serves at
//     most stintBudget further WRs and then, if work remains, passes the
//     role to a transient goroutine that exits when the queue is empty.
//
//   - Why PostSend cannot block. Nothing the unit does waits. The three
//     waits a WR can need — an RC responder with no receive buffer posted, an
//     injected RC delay, a retransmit backoff — are deferred re-rings: the
//     WR goes back to the head of its send queue with its attempt counters
//     (QP.head), the QP stays marked as rung so that later posts line up
//     behind it without a doorbell, and a timer rings the QP again. The
//     poster gets its goroutine back at once and learns the outcome from
//     the completion queue, as with hardware.
//
//   - A stall is per QP. While one QP waits the unit serves the others;
//     only WRs behind the stalled one on the same QP are held, which is
//     RC's ordering and nothing more.
//
//   - No process-wide lock. A WR takes no lock shared by every device: the
//     responder finds regions and QPs in tables it reads without Device.mu
//     (denseTable), and the fabric's lookup, wire charge and unarmed fault
//     verdict take no lock of its own. Per-QP and per-region locks remain.
//
// Polling is priced the same way: CQ.Poll on an empty queue is one atomic
// load, and MemRegion.Version lets a ring poller skip looking at memory
// nobody has written since it last looked.
//
// Close takes the unit role for good — waiting for the current unit to
// leave at its next doorbell — before it releases what abandoned WRs own.
package rnic

import "fmt"

// Transport enumerates the RDMA transport types (Table 1).
type Transport int

const (
	// RC is the reliable connection: all verbs, in-order, no loss.
	RC Transport = iota
	// UC is the unreliable connection: write and send/recv only.
	UC
	// UD is the unreliable datagram: send/recv only, 4 KB MTU,
	// may drop packets.
	UD
)

// String returns the conventional transport name.
func (t Transport) String() string {
	switch t {
	case RC:
		return "RC"
	case UC:
		return "UC"
	case UD:
		return "UD"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Opcode enumerates verb operations.
type Opcode int

const (
	// OpSend is the two-sided send (consumes a receive WQE remotely).
	OpSend Opcode = iota
	// OpRecv marks receive completions.
	OpRecv
	// OpRead is the one-sided RDMA read.
	OpRead
	// OpWrite is the one-sided RDMA write.
	OpWrite
	// OpWriteImm is RDMA write-with-immediate: places data like OpWrite
	// and additionally consumes a receive WQE remotely, delivering the
	// 32-bit immediate in a receive completion. FLock's credit-renewal
	// path (§7) uses it: the renewal lands on the server QP's receive CQ,
	// which whoever pumps the QP drains under the poll role it already
	// holds, without touching the request ring.
	OpWriteImm
	// OpFetchAdd is the one-sided 64-bit atomic fetch-and-add.
	OpFetchAdd
	// OpCmpSwap is the one-sided 64-bit atomic compare-and-swap.
	OpCmpSwap
)

// String returns the verb name.
func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpWriteImm:
		return "write-imm"
	case OpFetchAdd:
		return "fetch-add"
	case OpCmpSwap:
		return "cmp-swap"
	default:
		return fmt.Sprintf("Opcode(%d)", int(o))
	}
}

// Supports reports whether transport t can carry opcode o — the capability
// matrix of Table 1. OpRecv is a completion-side opcode and is supported
// wherever sends are.
func (t Transport) Supports(o Opcode) bool {
	switch t {
	case RC:
		return true
	case UC:
		return o == OpSend || o == OpRecv || o == OpWrite || o == OpWriteImm
	case UD:
		return o == OpSend || o == OpRecv
	default:
		return false
	}
}

// Status is the completion status of a work request.
type Status int

const (
	// StatusOK indicates success.
	StatusOK Status = iota
	// StatusRemoteAccess indicates an rkey/bounds/permission violation at
	// the responder.
	StatusRemoteAccess
	// StatusRNRExceeded indicates the responder had no receive buffer and
	// retries were exhausted (receiver-not-ready).
	StatusRNRExceeded
	// StatusQPError indicates the QP was in the error state.
	StatusQPError
	// StatusLenError indicates a receive buffer was too small for the
	// incoming payload.
	StatusLenError
	// StatusRetryExceeded indicates the RC retransmission budget was
	// exhausted (transport retry counter, like IBTA retry_cnt): the fabric
	// faulted every attempt and the QP moved to the error state.
	StatusRetryExceeded
	// StatusWRFlush indicates the work request was flushed without
	// execution because its QP entered the error state (IBTA
	// WR_FLUSH_ERR). Outstanding WRs of a broken QP complete with this
	// status so their owners can recover.
	StatusWRFlush
)

// String returns a short status name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRemoteAccess:
		return "remote-access-error"
	case StatusRNRExceeded:
		return "rnr-exceeded"
	case StatusQPError:
		return "qp-error"
	case StatusLenError:
		return "len-error"
	case StatusRetryExceeded:
		return "retry-exceeded"
	case StatusWRFlush:
		return "wr-flush"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Perm is a bitmask of remote-access permissions for a memory region.
// Local read/write by the owning host is always allowed.
type Perm int

const (
	// PermRemoteRead allows one-sided reads.
	PermRemoteRead Perm = 1 << iota
	// PermRemoteWrite allows one-sided writes (and write-imm).
	PermRemoteWrite
	// PermRemoteAtomic allows fetch-and-add and compare-and-swap.
	PermRemoteAtomic
)

// Completion is a completion-queue entry.
type Completion struct {
	// WRID echoes the work request's identifier. FLock's memory-operation
	// layer (§6) demultiplexes completions of different threads sharing a
	// QP by WRID.
	WRID uint64
	// Status reports the outcome.
	Status Status
	// Opcode identifies the completed verb (OpRecv for inbound).
	Opcode Opcode
	// ByteLen is the payload length.
	ByteLen int
	// Imm carries the immediate value of a send/write-imm, valid when
	// ImmValid.
	Imm      uint32
	ImmValid bool
	// QPN is the local queue pair the completion belongs to.
	QPN int
	// SrcNode and SrcQPN identify the sender for UD receive completions.
	SrcNode int
	SrcQPN  int
}
