// Package core implements FLock: a communication framework that scales
// RDMA RPCs over reliable connections by sharing queue pairs among threads
// (SOSP 2021). It provides the paper's three mechanisms:
//
//   - The connection handle (§3): one logical connection per remote node
//     multiplexing a set of RC QPs among application threads, exposing
//     RPC, remote memory, and atomic operations (Table 2).
//   - FLock synchronization (§4.2): an MCS-style thread combining queue
//     per QP. A transient leader coalesces the requests of concurrent
//     followers into one message and posts it with a single RDMA write.
//   - Symbiotic send-recv scheduling (§5): the receiver-side QP scheduler
//     activates/deactivates QPs using credits and the coalescing-degree
//     contention metric; the sender-side thread scheduler packs threads
//     onto active QPs by Algorithm 1.
//
// The package runs over the software RNIC in internal/rnic; on real
// hardware the same structure would sit on libibverbs.
package core

import "time"

// Parameter values. Four mirror the paper: DefaultCredits is C and
// DefaultMaxActiveQPs is MAX_AQP (both §5.1), DefaultMaxBatch is the
// "bounded number of buffers" a leader coalesces (§4.2), DefaultSignalEvery
// is the selective-signaling period (§7). The paper gives no number for the
// rest; they are this implementation's, and those without an Options field
// are not configurable.
const (
	// DefaultCredits is C in §5.1: each sender starts with C credits per
	// QP and requests C more after consuming half.
	DefaultCredits = 32
	// DefaultMaxActiveQPs is MAX_AQP in §5.1, chosen in the paper to
	// avoid RNIC cache thrashing (Figure 2a).
	DefaultMaxActiveQPs = 256
	// DefaultMaxBatch bounds how many follower requests a leader
	// coalesces into one message (§4.2 "bounded number of buffers").
	DefaultMaxBatch = 16
	// DefaultRingBytes sizes each request/response ring buffer.
	DefaultRingBytes = 1 << 20
	// DefaultMaxPayload bounds a single RPC payload. Sized so a full
	// leader batch of maximum payloads still fits twice in the default
	// ring (the geometry NewNode validates).
	DefaultMaxPayload = 16 << 10
	// DefaultSignalEvery applies selective signaling (§7): one signaled
	// write per this many posted messages.
	DefaultSignalEvery = 16
	// DefaultSchedInterval is how often the node's goroutine runs its
	// schedule: the deadline sweep, the thread scheduler and the QP
	// scheduler's redistribution.
	DefaultSchedInterval = 2 * time.Millisecond
	// DefaultStallTimeout bounds leader credit/space waits and follower
	// verdict waits before the stall guard declares the QP (or its leader)
	// stuck and recovers.
	DefaultStallTimeout = 20 * time.Millisecond
	// DefaultFlapThreshold is how many times in a row a QP may break with
	// no send completion of its own, while a sibling QP of its connection
	// completes sends, before the connection quarantines it for good (see
	// Conn.flapping). A fault every QP shares is the link's, and is
	// recycled through.
	DefaultFlapThreshold = 3
	// timeoutStrikes is how many silent RPC deadline expiries in a row on
	// one QP — expiries during whose wait the QP routed no response at all —
	// it takes before the client declares the QP broken. Server-side
	// failures (the server end of the QP erroring, responses lost) are
	// invisible to the client NIC, so silence is the signal; an expiry on a
	// QP that keeps answering is a slow server, and strikes nothing.
	timeoutStrikes = 3
	// DefaultDedupWindow is how many completed idempotent responses each
	// inbound connection caches for retry dedup.
	DefaultDedupWindow = 1024
	// DefaultPipelineDepth caps in-flight calls per thread on the async
	// path (CallAsync / SendBatch / SendRPC): deep enough for full
	// doorbell coalescing, bounded so an unchecked submitter cannot grow
	// the pending-call table without limit.
	DefaultPipelineDepth = 64
	// DefaultRetryBaseBackoff / DefaultRetryMaxBackoff bound the
	// exponential full-jitter retry backoff.
	DefaultRetryBaseBackoff = 200 * time.Microsecond
	DefaultRetryMaxBackoff  = 10 * time.Millisecond
	// DefaultRetryBudgetRatio / DefaultRetryBudgetBurst parameterize the
	// token-bucket retry budget: each success earns 0.1 retry tokens,
	// bounded by a burst of 16, so retries self-extinguish under sustained
	// overload instead of amplifying it.
	DefaultRetryBudgetRatio = 0.1
	DefaultRetryBudgetBurst = 16
)

// Options configures a Node. The zero value is usable: every field falls
// back to the defaults above. Every field has a setter in a tool, a bench
// or an example (knobs_test.go in the repository root enforces it).
type Options struct {
	// QPsPerConn is how many RC QPs a connection handle creates toward a
	// remote node — the multiplexing width. The paper sizes it to the
	// client's thread count; applications usually set it to their
	// expected thread count. Default 8.
	QPsPerConn int
	// MaxActiveQPs caps the number of QPs the node keeps active across
	// all inbound connections when serving (MAX_AQP). Default 256.
	MaxActiveQPs int
	// Credits is the per-QP credit budget C. Default 32.
	Credits int
	// MaxBatch bounds leader coalescing. Default 16. Setting it to 1
	// disables coalescing (the Figure 10 ablation).
	MaxBatch int
	// SignalEvery is the selective-signaling period. 1 signals every
	// message. Default 16.
	SignalEvery int
	// Workers is the size of the server-side RPC worker pool. Zero runs
	// handlers on the node's one goroutine (the paper supports both, §4.3),
	// which also relieves the node's outbound QPs and sweeps their
	// deadlines: such a handler must not block, nor wait on a call from its
	// own node, which nothing would then complete or expire. With a pool
	// the worker is the poller: an idle pool goroutine polls the request
	// rings, pulls a message and executes its handlers itself, and the
	// node's goroutine only relieves rings no pool goroutine is polling.
	Workers int
	// RPCTimeout is the budget of every call and memory operation that
	// names none of its own (CallOptions.Budget, CallWithDeadline). Zero
	// leaves those unbounded.
	RPCTimeout time.Duration
	// StallTimeout bounds how long a combining leader waits for credits or
	// ring space, and how long a follower waits for a leader verdict,
	// before the stall guard recovers (breaking the QP or re-electing on
	// another). Default DefaultStallTimeout.
	StallTimeout time.Duration
	// AdmissionLimit caps concurrently admitted requests in the server
	// role. Excess requests are rejected with StatusOverloaded before any
	// handler work runs — a cheap NACK instead of unbounded queueing.
	// Zero disables admission control.
	AdmissionLimit int

	// test is filled by this package's tests only; see testKnobs.
	test testKnobs
}

// testKnobs are values no tool, bench or example sets, which the package's
// own tests still need in order to reach a behaviour the default takes too
// long to reach: a ring small enough to wrap, a NIC that gives up after two
// retransmits. None of them changes a recovery rule. Zero fields take the
// Default… constants above, so every node outside this package's tests runs
// on exactly those.
type testKnobs struct {
	// ringBytes sizes each ring buffer; maxPayload bounds one request or
	// response payload.
	ringBytes, maxPayload int
	// rcRetries is the RC retransmission budget handed to the NIC; zero
	// keeps the NIC's own default.
	rcRetries int
	// retryBudgetBurst is the retry budget's bucket size (it starts full;
	// each clean first attempt refills DefaultRetryBudgetRatio of a token).
	retryBudgetBurst int
	// pipelineDepth caps a thread's in-flight calls on the asynchronous
	// path.
	pipelineDepth int
}

// withDefaults returns a copy of o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.QPsPerConn <= 0 {
		o.QPsPerConn = 8
	}
	if o.MaxActiveQPs <= 0 {
		o.MaxActiveQPs = DefaultMaxActiveQPs
	}
	if o.Credits <= 0 {
		o.Credits = DefaultCredits
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.SignalEvery <= 0 {
		o.SignalEvery = DefaultSignalEvery
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	if o.StallTimeout <= 0 {
		o.StallTimeout = DefaultStallTimeout
	}
	k := &o.test
	if k.ringBytes <= 0 {
		k.ringBytes = DefaultRingBytes
	}
	if k.maxPayload <= 0 {
		k.maxPayload = DefaultMaxPayload
	}
	if k.retryBudgetBurst <= 0 {
		k.retryBudgetBurst = DefaultRetryBudgetBurst
	}
	if k.pipelineDepth <= 0 {
		k.pipelineDepth = DefaultPipelineDepth
	}
	return o
}
