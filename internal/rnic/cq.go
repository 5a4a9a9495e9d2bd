package rnic

import (
	"sync"
	"sync/atomic"
)

// CQ is a completion queue. The RNIC pushes Completion entries; the
// application polls them off with Poll, exactly as with ibv_poll_cq.
// Safe for concurrent use; a CQ may be shared by several QPs (FLock's
// leader polls one send CQ for a whole connection handle).
type CQ struct {
	mu        sync.Mutex
	entries   []Completion
	depth     int
	overflows uint64

	// n mirrors len(entries), written under mu, so that polling an empty
	// queue — what a dispatcher does most of the time — is one atomic load,
	// as a poll of an empty hardware CQ is one cache hit.
	n atomic.Int32

	notifier // its channel is nil for a CQ made with NewCQ
}

// NewCQ returns a completion queue that holds up to depth outstanding
// entries. Entries pushed beyond depth are dropped and counted as
// overflows — a real CQ overflow is fatal, so well-behaved callers size
// depth to their outstanding-request bound and assert Overflows() == 0.
func NewCQ(depth int) *CQ {
	if depth <= 0 {
		depth = 4096
	}
	return &CQ{depth: depth}
}

// push appends a completion (RNIC side) and signals an armed CQ.
func (cq *CQ) push(c Completion) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if len(cq.entries) >= cq.depth {
		cq.overflows++
		return
	}
	cq.entries = append(cq.entries, c)
	cq.n.Store(int32(len(cq.entries)))
	cq.signal()
}

// Poll moves up to len(dst) completions into dst and returns how many were
// moved. It never blocks; zero means the queue was empty.
func (cq *CQ) Poll(dst []Completion) int {
	if len(dst) == 0 || cq.n.Load() == 0 {
		return 0
	}
	cq.mu.Lock()
	defer cq.mu.Unlock()
	n := copy(dst, cq.entries)
	if n > 0 {
		rem := copy(cq.entries, cq.entries[n:])
		cq.entries = cq.entries[:rem]
		cq.n.Store(int32(rem))
	}
	return n
}

// Len reports the number of pending completions.
func (cq *CQ) Len() int { return int(cq.n.Load()) }

// Overflows reports how many completions were lost to overflow.
func (cq *CQ) Overflows() uint64 {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return cq.overflows
}
