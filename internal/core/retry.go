package core

import (
	"time"
)

// This file is the call plan's public half: CallOptions, the asynchronous
// entry point and the pipeline gate. The attempt loop itself lives in
// pending.go (the one completion engine); Call, CallWithDeadline, CallOpts,
// CallAsync and SendBatch are all plans over it.

// CallOptions is a call's plan: how many attempts, inside what budget.
// Nothing else — no node option, no entry point — changes what a call puts on
// the wire. The delivery contract follows from MaxAttempts alone:
//
//   - one attempt (the zero value): at most one execution. The request goes
//     out once, keyless; an error that is not a server refusal (ErrTimeout,
//     ErrQPBroken, ErrConnClosed) leaves the outcome unknown.
//   - N > 1 attempts: every copy carries the same idempotency key, so the
//     server's dedup window keeps them exactly-once within it — a retry
//     whose original executed gets the cached response instead of a second
//     execution. Retryable failures (attempt expiry, a broken QP, overload
//     pushback) are resubmitted after full-jitter backoff, each retry spent
//     against the connection's retry budget.
type CallOptions struct {
	// Budget bounds the whole call — attempts and backoff included. Zero
	// inherits Options.RPCTimeout; if that is zero too the call is bounded
	// only by the attempt count. A one-attempt call waits the whole budget
	// for its response; a call that may retry starts at a quarter of it.
	Budget time.Duration
	// MaxAttempts is the total attempt cap (first try included). Zero means
	// one attempt.
	MaxAttempts int
}

// CallAsync submits a call without waiting and returns its Pending future.
// The first attempt is pushed into the TCQ before CallAsync returns (so
// pipelined submissions coalesce under the leader's doorbell); retries,
// backoff and budget bookkeeping — the same plan CallOpts runs — execute
// inside Wait/Done in the caller's goroutine. A Pending that is never waited
// still completes and its response lease is reclaimed at close, but it never
// retries.
//
// Outstanding Pendings may be freely interleaved with Call/CallOpts/
// SendRPC on the same thread. Submission respects the pipeline depth
// (DefaultPipelineDepth): when the thread's table is full, CallAsync blocks
// until a slot frees.
func (t *Thread) CallAsync(rpcID uint32, payload []byte, opts CallOptions) (*Pending, error) {
	p := new(Pending)
	if err := t.newPending(p, rpcID, payload, opts); err != nil {
		return nil, err
	}
	if err := t.gatePipeline(1); err != nil {
		p.fail(err)
		return nil, err
	}
	p.startAttempt(true)
	if p.phase == pendDone {
		return nil, p.err
	}
	return p, nil
}

// gatePipeline blocks until the thread's pending-call table has room for
// extra more submissions under the pipeline depth — or is empty, which is
// all the room a submission larger than the depth can ever get. Nothing
// signals a freed slot, so the wait pauses — depth-limited callers are by
// definition waiting on their own earlier responses, which arrive on poller
// timescales.
func (t *Thread) gatePipeline(extra int) error {
	limit := t.conn.node.opts.test.pipelineDepth
	for i := 0; ; i++ {
		// The live records bound the in-flight ones from above, and count
		// without a walk.
		if l := t.pend.live; l == 0 || l+extra <= limit {
			return nil
		}
		if d := t.pend.depth(); d == 0 || d+extra <= limit {
			return nil
		}
		if t.conn.isClosed() {
			return t.conn.closedErr()
		}
		pause(i)
	}
}
