package core

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAssignThreadsSeparatesBySize(t *testing.T) {
	// Two large-payload threads and six small ones, equal total bytes per
	// group: Algorithm 1 should never co-locate a small thread with a
	// large one when quota allows separation.
	threads := []ThreadStat{
		{ID: 0, MedianReq: 64, Reqs: 100, Bytes: 6400},
		{ID: 1, MedianReq: 64, Reqs: 100, Bytes: 6400},
		{ID: 2, MedianReq: 64, Reqs: 100, Bytes: 6400},
		{ID: 3, MedianReq: 1024, Reqs: 20, Bytes: 19200},
	}
	asg := AssignThreads(threads, 2)
	if len(asg) != 4 {
		t.Fatalf("assignments: %v", asg)
	}
	// Small threads sort first, so they share low slots; the large thread
	// lands on the last slot alone.
	if asg[3] == asg[0] || asg[3] == asg[1] || asg[3] == asg[2] {
		t.Errorf("large thread co-located with small: %v", asg)
	}
}

func TestAssignThreadsBalancesLoad(t *testing.T) {
	// 8 identical threads over 4 QPs: 2 per QP.
	var threads []ThreadStat
	for i := 0; i < 8; i++ {
		threads = append(threads, ThreadStat{ID: uint32(i), MedianReq: 64, Reqs: 10, Bytes: 640})
	}
	asg := AssignThreads(threads, 4)
	counts := map[int]int{}
	for _, slot := range asg {
		counts[slot]++
	}
	for slot, c := range counts {
		if c != 2 {
			t.Errorf("slot %d has %d threads, want 2 (%v)", slot, c, asg)
		}
	}
}

func TestAssignThreadsZeroBytes(t *testing.T) {
	threads := []ThreadStat{{ID: 0}, {ID: 1}, {ID: 2}}
	asg := AssignThreads(threads, 2)
	if len(asg) != 3 {
		t.Fatalf("assignments: %v", asg)
	}
	for id, slot := range asg {
		if slot < 0 || slot >= 2 {
			t.Errorf("thread %d slot %d out of range", id, slot)
		}
	}
}

func TestAssignThreadsDegenerate(t *testing.T) {
	if got := AssignThreads(nil, 4); len(got) != 0 {
		t.Errorf("nil threads: %v", got)
	}
	if got := AssignThreads([]ThreadStat{{ID: 1, Bytes: 10}}, 0); len(got) != 0 {
		t.Errorf("zero QPs: %v", got)
	}
	// One thread, many QPs.
	asg := AssignThreads([]ThreadStat{{ID: 5, Bytes: 100, MedianReq: 10}}, 8)
	if asg[5] != 0 {
		t.Errorf("single thread slot = %d", asg[5])
	}
}

func TestAssignThreadsProperty(t *testing.T) {
	// Every thread gets a slot in range; deterministic for equal input.
	f := func(seed uint8, nThreads, nQPs uint8) bool {
		n := int(nThreads)%32 + 1
		q := int(nQPs)%8 + 1
		var threads []ThreadStat
		for i := 0; i < n; i++ {
			threads = append(threads, ThreadStat{
				ID:        uint32(i),
				MedianReq: uint64((int(seed)+i*37)%512) + 1,
				Reqs:      uint64(i + 1),
				Bytes:     uint64(((int(seed) + i*13) % 1000) * 10),
			})
		}
		a := AssignThreads(threads, q)
		b := AssignThreads(threads, q)
		if len(a) != n {
			return false
		}
		for id, slot := range a {
			if slot < 0 || slot >= q || b[id] != slot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerObservabilityUnderSkew drives a skewed two-client workload
// (2 conns × 4 QPs against MAX_AQP=4, one hot client and one near-idle
// client) and asserts the telemetry the PR adds actually moves with the
// scheduler: the coalescing-degree histograms account for every message,
// and the receiver-side scheduler records redistributions and
// deactivations as it shifts active QPs toward the hot sender.
func TestSchedulerObservabilityUnderSkew(t *testing.T) {
	serverOpts := Options{
		QPsPerConn:   4,
		MaxActiveQPs: 4, // 8 QPs total across 2 conns → sharing forced
	}
	clientOpts := Options{QPsPerConn: 4}
	tc := newTestCluster(t, 2, serverOpts, clientOpts)
	registerEcho(tc.server)

	hot, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := tc.clients[1].Connect(0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Hot client: 6 threads with a deep window, to drive coalescing and
	// concentrate utilization on conn 0's QPs.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := hot.RegisterThread()
			payload := make([]byte, 64)
			const window = 8
			for {
				select {
				case <-stop:
					return
				default:
				}
				sent := 0
				for k := 0; k < window; k++ {
					if _, err := th.SendRPC(echoID, payload); err != nil {
						return
					}
					sent++
				}
				for k := 0; k < sent; k++ {
					if recvDrop(th) != nil {
						return
					}
				}
			}
		}()
	}
	// Cold client: one thread, one RPC at a time with a pause — just
	// enough traffic that its QPs report utilization near zero.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := cold.RegisterThread()
		payload := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if callDrop(th, echoID, payload) != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The server-side degree histogram must account for exactly the
	// messages and items the node counted: one Observe per coalesced
	// message, the observed value being the number of items it carried.
	m := tc.server.Metrics()
	_, degIn := tc.server.DegreeHistograms()
	if degIn.Count != m.MsgsIn {
		t.Errorf("server degree-in hist count = %d, want MsgsIn = %d", degIn.Count, m.MsgsIn)
	}
	if degIn.Sum != m.ItemsIn {
		t.Errorf("server degree-in hist sum = %d, want ItemsIn = %d", degIn.Sum, m.ItemsIn)
	}
	if m.MsgsIn == 0 {
		t.Fatal("no traffic reached the server")
	}

	// Same invariant on the hot client's sender side.
	hm := tc.clients[0].Metrics()
	degOut, _ := tc.clients[0].DegreeHistograms()
	if degOut.Count != hm.MsgsOut {
		t.Errorf("client degree-out hist count = %d, want MsgsOut = %d", degOut.Count, hm.MsgsOut)
	}
	if degOut.Sum != hm.ItemsOut {
		t.Errorf("client degree-out hist sum = %d, want ItemsOut = %d", degOut.Sum, hm.ItemsOut)
	}

	// With 8 QPs over a budget of 4 and skewed utilization, the scheduler
	// must have applied at least one redistribution that deactivated QPs.
	if m.QPRedistributions == 0 {
		t.Error("scheduler recorded no QP redistributions under forced sharing")
	}
	if m.QPDeactivations == 0 {
		t.Error("scheduler recorded no QP deactivations with 8 QPs over MAX_AQP=4")
	}

	// The per-QP coalescing histograms are registered in the client's
	// telemetry and must have absorbed the hot client's messages.
	snap := tc.clients[0].Telemetry().Snapshot()
	var perQP uint64
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, "conn") && strings.HasSuffix(name, "coalesce_degree") {
			perQP += h.Count
		}
	}
	if perQP != hm.MsgsOut {
		t.Errorf("per-QP coalesce hists count %d messages, want MsgsOut = %d", perQP, hm.MsgsOut)
	}
}

func TestRedistributeProportional(t *testing.T) {
	// Sender 0 three times as utilized as sender 1.
	util := [][]float64{
		{30, 30, 30, 30}, // U_0 = 120
		{10, 10, 10, 10}, // U_1 = 40
	}
	counts := RedistributeQPs(util, 4)
	if counts[0] != 3 || counts[1] != 1 {
		t.Fatalf("counts = %v, want [3 1]", counts)
	}
}

func TestRedistributeDormantKeepsOne(t *testing.T) {
	util := [][]float64{
		{100, 100},
		{0, 0}, // dormant
	}
	counts := RedistributeQPs(util, 3)
	if counts[1] != 1 {
		t.Fatalf("dormant sender got %d QPs, want 1", counts[1])
	}
	if counts[0] < 1 || counts[0] > 2 {
		t.Fatalf("active sender got %d QPs", counts[0])
	}
}

func TestRedistributeCapsBySenderQPs(t *testing.T) {
	util := [][]float64{
		{1000}, // hot but only has 1 QP
		{1, 1, 1},
	}
	counts := RedistributeQPs(util, 4)
	if counts[0] != 1 {
		t.Fatalf("sender 0 allocated %d > its QP count", counts[0])
	}
	if counts[1] < 1 {
		t.Fatalf("sender 1 starved: %v", counts)
	}
}

func TestRedistributeRespectsBudget(t *testing.T) {
	// 8 senders × 4 QPs, equal utilization, budget 8: one each.
	util := make([][]float64, 8)
	for i := range util {
		util[i] = []float64{5, 5, 5, 5}
	}
	counts := RedistributeQPs(util, 8)
	total := 0
	for _, c := range counts {
		if c < 1 {
			t.Fatalf("sender starved: %v", counts)
		}
		total += c
	}
	if total > 8 {
		t.Fatalf("budget exceeded: %v (total %d)", counts, total)
	}
}

func TestRedistributeTrimsMinimumOvershoot(t *testing.T) {
	// 10 dormant senders but budget 5: minimum-1 guarantee overrides the
	// budget (the paper keeps one QP per sender for future traffic).
	util := make([][]float64, 10)
	for i := range util {
		util[i] = []float64{0, 0}
	}
	counts := RedistributeQPs(util, 5)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("sender %d got %d, want 1", i, c)
		}
	}
}

func TestRedistributeEmpty(t *testing.T) {
	if got := RedistributeQPs(nil, 10); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
	if got := RedistributeQPs([][]float64{{}}, 10); got[0] != 0 {
		t.Fatalf("sender with zero QPs: %v", got)
	}
}

func TestRedistributeProperty(t *testing.T) {
	f := func(seed uint16, nSenders, nQPs, budget uint8) bool {
		ns := int(nSenders)%12 + 1
		nq := int(nQPs)%6 + 1
		b := int(budget)%64 + 1
		util := make([][]float64, ns)
		for i := range util {
			util[i] = make([]float64, nq)
			for j := range util[i] {
				util[i][j] = float64((int(seed) + i*31 + j*7) % 50)
			}
		}
		counts := RedistributeQPs(util, b)
		total := 0
		for i, c := range counts {
			if c < 1 || c > nq {
				return false
			}
			total += c
			_ = i
		}
		// Budget respected unless the per-sender minimum forces overshoot.
		limit := b
		if ns > limit {
			limit = ns
		}
		return total <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
