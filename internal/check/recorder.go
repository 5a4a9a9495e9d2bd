package check

import (
	"sync"
	"sync/atomic"
)

// Recorder collects a concurrent history. Timestamps come from an atomic
// logical clock: any interleaving of Begin/End calls yields a strict total
// order consistent with real time, which is all the checker needs — no
// wall clock, no allocation on Begin.
//
// Usage per operation:
//
//	call := rec.Begin()
//	out, err := doOperation(in)
//	rec.End(clientID, call, in, out)        // completed
//	rec.EndPending(clientID, call, in)      // may or may not have executed
//
// A Recorder is safe for concurrent use by any number of goroutines.
type Recorder struct {
	clock atomic.Int64

	mu  sync.Mutex
	ops []Operation
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Begin stamps an invocation and returns its call timestamp.
func (r *Recorder) Begin() int64 { return r.clock.Add(1) }

// End records a completed operation.
func (r *Recorder) End(clientID int, call int64, input, output interface{}) {
	ret := r.clock.Add(1)
	r.mu.Lock()
	r.ops = append(r.ops, Operation{
		ClientID: clientID, Input: input, Output: output, Call: call, Return: ret,
	})
	r.mu.Unlock()
}

// EndPending records an operation with no observed response: it failed
// with an ambiguous error (timeout, broken QP) and may or may not have
// taken effect. The checker is free to linearize it anywhere after its
// call, or effectively never.
func (r *Recorder) EndPending(clientID int, call int64, input interface{}) {
	r.mu.Lock()
	r.ops = append(r.ops, Operation{
		ClientID: clientID, Input: input, Call: call, Return: Infinity,
	})
	r.mu.Unlock()
}

// Len reports how many operations have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// History returns the recorded operations. The recorder may keep being
// used afterwards; the returned slice is a copy.
func (r *Recorder) History() []Operation {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Operation, len(r.ops))
	copy(out, r.ops)
	return out
}
