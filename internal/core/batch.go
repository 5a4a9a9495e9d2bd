package core

// This file is the batched entry point: SendBatch hands a thread's whole
// request batch to Thread.submit as one chain, which enters a QP's combining
// queue with one tail swap, so a single leader claims the lot and posts it
// under one doorbell — the combining win of §4.2 made available to one
// thread, not just to threads that happen to collide. Each request still
// gets its own completion record and Pending future; after submission the
// batch's calls are indistinguishable from CallAsync calls, with the same
// retry and dedup behaviour at Wait time.

// BatchOp is one request in a SendBatch submission.
type BatchOp struct {
	// RPCID selects the handler, as in Call.
	RPCID uint32
	// Payload is the request payload; it must stay untouched until the
	// op's Pending resolves (the combining leader may copy it late).
	Payload []byte
}

// SendBatch submits every op in one combining-queue entry and returns a
// Pending per op, index-aligned with ops. Every op runs the plan opts
// describe, exactly as CallAsync would. Ops that fail terminally during
// submission (node closing, submit deadline) come back as already-resolved
// Pendings — SendBatch itself errors only when nothing was submitted.
//
// The batch counts against the pipeline depth (DefaultPipelineDepth) in
// full: SendBatch blocks until the thread's pending-call table has room for
// len(ops) more. A batch larger than the depth itself is admitted once the
// table is empty — the depth bounds what is in flight ahead of a batch, not
// the size of one.
func (t *Thread) SendBatch(ops []BatchOp, opts CallOptions) ([]*Pending, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for _, op := range ops {
		if len(op.Payload) > t.conn.node.opts.test.maxPayload {
			return nil, ErrPayloadTooLarge
		}
	}
	if err := t.gatePipeline(len(ops)); err != nil {
		return nil, err
	}
	pends := make([]*Pending, len(ops))
	for i, op := range ops {
		pends[i] = new(Pending)
		t.newPending(pends[i], op.RPCID, op.Payload, opts) //nolint:errcheck // payload validated above
	}
	if err := t.submit(pends); err != nil {
		return nil, err
	}
	return pends, nil
}
