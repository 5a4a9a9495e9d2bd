package core

import (
	"sort"
	"time"
)

// This file is the sender-side thread scheduler (§5.2): a dedicated client
// goroutine that collects per-thread request statistics, maps threads to
// the currently active QPs with Algorithm 1, and publishes assignments
// that threads pick up on their next operation.

// ThreadStat is one thread's behaviour since the last scheduling interval —
// the inputs of Algorithm 1.
type ThreadStat struct {
	// ID identifies the thread within its connection.
	ID uint32
	// MedianReq is the median request size in bytes.
	MedianReq uint64
	// Reqs is the number of requests sent.
	Reqs uint64
	// Bytes is the total payload bytes sent.
	Bytes uint64
}

// AssignThreads implements Algorithm 1 of the paper: sort threads first by
// median request size then by request count, and pack them onto QP slots
// [0, activeQPs) by byte quota so each active QP carries a similar load
// and threads with small requests share QPs (maximizing coalescing) while
// large-payload threads land on their own (avoiding head-of-line
// blocking).
//
// The returned map gives each thread a slot index in [0, activeQPs); the
// caller maps slots to concrete active QP indexes. Pure function, shared
// with the DES models.
func AssignThreads(threads []ThreadStat, activeQPs int) map[uint32]int {
	asg := make(map[uint32]int, len(threads))
	if activeQPs <= 0 || len(threads) == 0 {
		return asg
	}
	sorted := make([]ThreadStat, len(threads))
	copy(sorted, threads)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].MedianReq != sorted[b].MedianReq {
			return sorted[a].MedianReq < sorted[b].MedianReq
		}
		if sorted[a].Reqs != sorted[b].Reqs {
			return sorted[a].Reqs > sorted[b].Reqs
		}
		return sorted[a].ID < sorted[b].ID
	})
	var total uint64
	for _, t := range sorted {
		total += t.Bytes
	}
	if total == 0 {
		// No byte information: spread round-robin.
		for i, t := range sorted {
			asg[t.ID] = i % activeQPs
		}
		return asg
	}
	quota := total / uint64(activeQPs)
	if quota == 0 {
		quota = 1
	}
	qpID, load := 0, uint64(0)
	for _, t := range sorted {
		load += t.Bytes
		asg[t.ID] = qpID
		if load >= quota && qpID < activeQPs-1 {
			qpID++
			load = 0
		}
	}
	return asg
}

// threadScheduler is the client-side scheduler main loop.
func (n *Node) threadScheduler() {
	defer n.wg.Done()
	ticker := time.NewTicker(DefaultSchedInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		}
		for _, c := range n.snapshotConns() {
			n.scheduleConn(c)
		}
	}
}

// scheduleConn runs one scheduling interval for one connection.
func (n *Node) scheduleConn(c *Conn) {
	active := c.ActiveQPs()
	if len(active) == 0 {
		return // nothing usable; threads fall back to scanning
	}
	threads := c.snapshotThreads()
	var statted []ThreadStat
	var idle []*Thread
	byID := make(map[uint32]*Thread, len(threads))
	for _, t := range threads {
		byID[t.id] = t
		if s, ok := t.takeStat(); ok {
			statted = append(statted, s)
		} else {
			idle = append(idle, t)
		}
	}
	asg := AssignThreads(statted, len(active))
	for tid, slot := range asg {
		byID[tid].assigned.Store(int32(active[slot]))
	}
	// Threads with no recent requests keep their QP unless it was
	// deactivated (the paper assigns brand-new threads randomly and fixes
	// them up next interval; round-robin is our deterministic stand-in).
	for _, t := range idle {
		cur := int(t.assigned.Load())
		if cur < 0 || cur >= len(c.qps) || !c.qps[cur].active() {
			t.assigned.Store(int32(active[int(t.id)%len(active)]))
		}
	}
}
