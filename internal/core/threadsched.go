package core

import (
	"cmp"
	"slices"
)

// This file is the sender-side thread scheduler (§5.2). Every
// DefaultSchedInterval the node's loop (network.go) runs scheduleConn for
// each outbound connection: it collects per-thread request statistics, maps
// threads to the currently active QPs with Algorithm 1, and publishes
// assignments that threads pick up on their next operation.

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
	if activeQPs <= 0 {
		return asg
	}
	sorted := make([]ThreadStat, len(threads))
	copy(sorted, threads)
	for i, slot := range assignSlots(sorted, activeQPs, nil) {
		asg[sorted[i].ID] = slot
	}
	return asg
}

// assignSlots is Algorithm 1 on memory the caller owns: it sorts threads in
// place and returns, index-aligned with the sorted threads, each one's slot
// in [0, activeQPs), appended to slots[:0]. activeQPs must be positive.
func assignSlots(threads []ThreadStat, activeQPs int, slots []int) []int {
	slots = slots[:0]
	slices.SortStableFunc(threads, func(a, b ThreadStat) int {
		if c := cmp.Compare(a.MedianReq, b.MedianReq); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Reqs, a.Reqs); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	var total uint64
	for _, t := range threads {
		total += t.Bytes
	}
	if total == 0 {
		// No byte information: spread round-robin.
		for i := range threads {
			slots = append(slots, i%activeQPs)
		}
		return slots
	}
	quota := total / uint64(activeQPs)
	if quota == 0 {
		quota = 1
	}
	qpID, load := 0, uint64(0)
	for _, t := range threads {
		load += t.Bytes
		slots = append(slots, qpID)
		if load >= quota && qpID < activeQPs-1 {
			qpID++
			load = 0
		}
	}
	return slots
}

// schedScratch is what scheduleConn would otherwise allocate every
// interval; it lives on the Conn and only the node's loop uses it.
type schedScratch struct {
	active  []int
	statted []ThreadStat
	slots   []int
}

// scheduleConn runs one scheduling interval for one connection. A
// connection none of whose threads sent since the last interval keeps its
// assignments and costs one atomic load.
func (n *Node) scheduleConn(c *Conn) {
	if !c.statDirty.Swap(false) {
		return
	}
	sc := &c.sched
	sc.active = c.appendActiveQPs(sc.active[:0])
	active := sc.active
	if len(active) == 0 {
		return // nothing usable; threads fall back to scanning
	}
	threads := c.snapshotThreads()
	sc.statted = sc.statted[:0]
	for _, t := range threads {
		if s, ok := t.takeStat(); ok {
			sc.statted = append(sc.statted, s)
			continue
		}
		// Threads with no recent requests keep their QP unless it was
		// deactivated (the paper assigns brand-new threads randomly and
		// fixes them up next interval; round-robin is our deterministic
		// stand-in).
		cur := int(t.assigned.Load())
		if cur < 0 || cur >= len(c.qps) || !c.qps[cur].active() {
			t.assigned.Store(int32(active[int(t.id)%len(active)]))
		}
	}
	sc.slots = assignSlots(sc.statted, len(active), sc.slots)
	for i, slot := range sc.slots {
		threads[sc.statted[i].ID].assigned.Store(int32(active[slot]))
	}
}
