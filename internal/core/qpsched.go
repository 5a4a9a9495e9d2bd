package core

import (
	"encoding/binary"
	"sort"

	"flock/internal/rnic"
)

// This file is the receiver-side QP scheduler (§5.1). Whoever pumps a
// server QP (pumpQP) grants the credit renewals on its receive CQ under the
// poll role it holds, adding each reported coalescing degree to the QP's
// utilization; every DefaultSchedInterval the node's loop redistributes the
// active QPs among senders in proportion to it, keeping the active set under
// MAX_AQP to avoid RNIC cache thrashing.

// drainRenewals grants the credit renewals on sqp's receive CQ; the caller
// holds the poll role inside enter/exit. The CQ outlives recycles, so only
// OK completions of the current rnic.QP count: one of the previous life
// must not add C to the grant recycleAccept reset.
func (n *Node) drainRenewals(sqp *serverQP, cqBuf []rnic.Completion) {
	qpn := sqp.qp.QPN()
	for k := sqp.recvCQ.Poll(cqBuf); k > 0; k = sqp.recvCQ.Poll(cqBuf) {
		for _, comp := range cqBuf[:k] {
			if comp.Status == rnic.StatusOK && comp.ImmValid && comp.QPN == qpn {
				n.handleRenewal(sqp, comp.Imm)
			}
		}
	}
}

// handleRenewal processes one credit-renewal write-imm: record the
// reported coalescing degree as QP utilization and, if the QP is active,
// grant C more credits by writing the new total into the client's control
// region. Declining — not granting — is how the scheduler deactivates load
// from a QP (§5.1). The caller holds the QP's poll role inside enter/exit.
//
// A grant may race redistribute's deactivation of the QP and land after it.
// The client ignores such a grant: a leader reads the active flag before it
// spends credits (processBatch), so only a batch begun before the
// deactivation spends it, as it could a grant made just before.
func (n *Node) handleRenewal(sqp *serverQP, degree uint32) {
	sqp.util.Add(uint64(degree))
	// Replenish the receive WQE the write-imm consumed.
	sqp.qp.PostRecv(rnic.RecvWR{WRID: uint64(sqp.qp.QPN())}) //nolint:errcheck

	if sqp.quarantined.Load() {
		return // permanently declined
	}
	if !sqp.active.Load() {
		return // declined
	}
	grant := uint64(n.opts.Credits)
	if lim := int64(n.opts.AdmissionLimit); lim > 0 && n.inflight.Load()*2 >= lim {
		// Credit watermark: past half the admission limit, halve renewal
		// grants so senders throttle at the source before hitting the
		// rejection cliff — shedding by declined credits is cheaper than
		// shedding by NACK.
		half := (grant + 1) / 2
		n.metrics.creditWithheld.Add(grant - half)
		grant = half
	}
	sqp.granted += grant
	n.metrics.renewals.Add(1)
	n.writeClientCtrl(sqp, ctrlGrantedOff, sqp.granted)
}

// writeClientCtrl posts a one-sided 8-byte write into the client's
// control region. The client polls the region locally, so no client CPU
// or recv WQE is involved.
func (n *Node) writeClientCtrl(sqp *serverQP, off int, val uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	sqp.qp.PostSend(rnic.SendWR{ //nolint:errcheck // device closing is benign
		WRID: tagCtrl, Op: rnic.OpWrite,
		Inline: buf[:],
		RKey:   sqp.respProd.headRKey, RemoteOff: off, // the client's control region
	})
}

// redistribute runs one scheduling interval: aggregate per-sender
// utilization, compute each sender's active-QP share, and apply
// activation changes by writing the per-QP active flags into client
// control regions.
func (n *Node) redistribute() {
	sconns := n.snapshotSconns()
	if len(sconns) == 0 {
		return
	}
	totalQPs := 0
	for _, sc := range sconns {
		totalQPs += len(sc.qps)
	}
	if totalQPs <= n.opts.MaxActiveQPs {
		// Under the thrashing threshold: everything stays active (§8.3.1:
		// "FLock does not experience any QP sharing up to eight threads").
		changed := false
		for _, sc := range sconns {
			for _, sqp := range sc.qps {
				sqp.util.Store(0)
				if sqp.quarantined.Load() {
					sqp.active.Store(false) // stays retired
					continue
				}
				if !sqp.active.Load() {
					n.activate(sqp)
					changed = true
				}
			}
		}
		if changed {
			n.metrics.redistributions.Add(1)
		}
		return
	}

	utils := make([][]float64, len(sconns))
	for i, sc := range sconns {
		utils[i] = make([]float64, len(sc.qps))
		for j, sqp := range sc.qps {
			utils[i][j] = float64(sqp.util.Swap(0))
		}
	}
	counts := RedistributeQPs(utils, n.opts.MaxActiveQPs)
	changed := false
	for i, sc := range sconns {
		// Prefer the most-utilized QPs of each sender; ties keep index
		// order for stability.
		order := make([]int, len(sc.qps))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool {
			return utils[i][order[a]] > utils[i][order[b]]
		})
		keep := counts[i]
		for rank, j := range order {
			sqp := sc.qps[j]
			if sqp.quarantined.Load() {
				sqp.active.Store(false) // stays retired; its share shifts
				continue
			}
			if rank < keep {
				if !sqp.active.Load() {
					n.activate(sqp)
					changed = true
				}
			} else if sqp.active.Load() {
				n.deactivate(sqp)
				changed = true
			}
		}
	}
	if changed {
		n.metrics.redistributions.Add(1)
	}
}

// activate marks a QP active and publishes the flag to the client. The
// publish is skipped while the QP is under recycle — recycleAccept
// re-bootstraps both ends to the active state anyway.
func (n *Node) activate(sqp *serverQP) {
	sqp.active.Store(true)
	n.metrics.activations.Add(1)
	if sqp.enter() {
		n.writeClientCtrl(sqp, ctrlActiveOff, 1)
		sqp.exit()
	}
}

// deactivate marks a QP inactive and publishes the flag; from now on its
// renewal requests are declined, which stops the sender's leaders from
// using it (§5.1).
func (n *Node) deactivate(sqp *serverQP) {
	sqp.active.Store(false)
	n.metrics.deactivations.Add(1)
	if sqp.enter() {
		n.writeClientCtrl(sqp, ctrlActiveOff, 0)
		sqp.exit()
	}
}

// RedistributeQPs computes each sender's active-QP count from per-QP
// utilization (§5.1):
//
//	AQP_i = MAX_AQP · U_i / Σ_k U_k   if U_i > 0
//	AQP_i = 1                         otherwise (dormant)
//
// where U_i is the sum of sender i's per-QP utilizations (each the sum of
// coalescing degrees reported in credit renewals since the last interval).
// Every sender keeps at least one QP for future communication; counts are
// capped by the sender's QP count; any overshoot of maxAQP from the
// 1-minimums is trimmed from the largest allocations first.
//
// The function is pure — it is the exact decision logic the live scheduler
// applies, and the DES models in internal/model call it directly so the
// benchmark figures exercise the shipped policy.
func RedistributeQPs(util [][]float64, maxAQP int) []int {
	counts := make([]int, len(util))
	if len(util) == 0 {
		return counts
	}
	if maxAQP < len(util) {
		maxAQP = len(util) // at least one QP per sender, as the paper requires
	}
	totals := make([]float64, len(util))
	var grand float64
	for i, qps := range util {
		for _, u := range qps {
			totals[i] += u
		}
		grand += totals[i]
	}
	for i := range util {
		c := 1
		if totals[i] > 0 && grand > 0 {
			c = int(float64(maxAQP) * totals[i] / grand)
			if c < 1 {
				c = 1
			}
		}
		if c > len(util[i]) {
			c = len(util[i])
		}
		if len(util[i]) == 0 {
			c = 0
		}
		counts[i] = c
	}
	// Trim overshoot, largest first, never below 1.
	total := 0
	for _, c := range counts {
		total += c
	}
	for total > maxAQP {
		maxI, maxC := -1, 1
		for i, c := range counts {
			if c > maxC {
				maxI, maxC = i, c
			}
		}
		if maxI < 0 {
			break // everyone is at 1 already
		}
		counts[maxI]--
		total--
	}
	return counts
}
