package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"flock/internal/check"
	"flock/internal/fabric"
)

// Linearizability tests: record real concurrent traffic through the live
// stack with check.Recorder and hand the history to the Wing&Gong checker.
// Unlike the chaos suite's per-thread assertions, these verify the
// *global* ordering contract: whatever interleaving the TCQ, the QP
// schedulers, and the recovery paths produce, the observable history must
// be explainable by some sequential execution.

// assertTelemetryInvariants is the post-run gate every checked run ends
// with: coalesce-degree histogram totals equal the messages (and items)
// actually sent on both roles, no pooled lease is still outstanding, and
// the active QP count respects MAX_AQP.
func assertTelemetryInvariants(t *testing.T, tc *testCluster) {
	t.Helper()
	sm := tc.server.Metrics()
	_, degIn := tc.server.DegreeHistograms()
	if degIn.Count != sm.MsgsIn {
		t.Errorf("server degree-in hist count = %d, want MsgsIn = %d", degIn.Count, sm.MsgsIn)
	}
	if degIn.Sum != sm.ItemsIn {
		t.Errorf("server degree-in hist sum = %d, want ItemsIn = %d", degIn.Sum, sm.ItemsIn)
	}
	for i, cl := range tc.clients {
		cm := cl.Metrics()
		degOut, _ := cl.DegreeHistograms()
		if degOut.Count != cm.MsgsOut {
			t.Errorf("client %d degree-out hist count = %d, want MsgsOut = %d", i, degOut.Count, cm.MsgsOut)
		}
		if degOut.Sum != cm.ItemsOut {
			t.Errorf("client %d degree-out hist sum = %d, want ItemsOut = %d", i, degOut.Sum, cm.ItemsOut)
		}
		snap := cl.Telemetry().Snapshot()
		active, budget := snap.Gauges["core.active_qps"], snap.Gauges["core.max_active_qps"]
		if active > budget {
			t.Errorf("client %d active_qps %d exceeds MAX_AQP %d", i, active, budget)
		}
	}
	snap := tc.server.Telemetry().Snapshot()
	if active, budget := snap.Gauges["core.active_qps"], snap.Gauges["core.max_active_qps"]; active > budget {
		t.Errorf("server active_qps %d exceeds MAX_AQP %d", active, budget)
	}
	if n := awaitLeaseDrain(3 * time.Second); n != 0 {
		t.Errorf("%d pooled buffer leases outstanding after checked run", n)
	}
}

// checkedRun is a scenario's cluster and the checker's verdict on the
// history it recorded.
type checkedRun struct {
	tc  *testCluster
	res check.Result
}

// sharedQPs is the concurrent echo scenario's default input: two QPs shared
// by eight threads, so leaders coalesce multi-item batches.
var sharedQPs = Options{QPsPerConn: 2}

// echoConcurrently drives eight threads of synchronous echo calls through
// one connection built from sOpts and cOpts and checks the recorded history
// against EchoModel. A leader that posts a batch item it never staged
// (mutBatchDropTail) answers that call with the ring's stale bytes.
func echoConcurrently(t *testing.T, sOpts, cOpts Options) checkedRun {
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}

	rec := check.NewRecorder()
	const nThreads, perThread = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; i < perThread; i++ {
				in := check.EchoIn{Payload: fmt.Sprintf("t%d-%d", g, i)}
				call := rec.Begin()
				resp, err := th.Call(echoID, []byte(in.Payload))
				if err != nil {
					t.Errorf("echo call: %v", err)
					return
				}
				rec.End(g, call, in, check.EchoOut{Payload: string(resp.Data), Status: resp.Status})
				resp.Release()
			}
		}(g)
	}
	wg.Wait()
	return checkedRun{tc: tc, res: check.Check(check.EchoModel(), rec.History())}
}

// TestLinearizableEchoConcurrent drives concurrent echo traffic through
// shared QPs and checks the recorded history against EchoModel: every
// response must be the caller's own payload, never a cross-wired or stale
// buffer from the coalescing path. The second input starves the leaders of
// credits (C = 2) and lets the server keep one of the connection's two QPs
// active (MAX_AQP = 1), so the QP scheduler redistributes threads while
// they combine.
func TestLinearizableEchoConcurrent(t *testing.T) {
	for _, c := range []struct {
		name         string
		sOpts, cOpts Options
	}{
		{"shared-qps", sharedQPs, sharedQPs},
		{"starved-redistributed", Options{QPsPerConn: 2, Credits: 2, MaxActiveQPs: 1}, Options{QPsPerConn: 2, Credits: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := echoConcurrently(t, c.sOpts, c.cOpts)
			if t.Failed() {
				return
			}
			if !run.res.Ok {
				t.Fatalf("echo history not linearizable:\n%s", run.res)
			}
			if c.sOpts.MaxActiveQPs == 1 {
				deact, migr := run.tc.server.Metrics().QPDeactivations, run.tc.clients[0].Metrics().ThreadMigrations
				if deact == 0 || migr == 0 {
					t.Fatalf("%d QP deactivations, %d thread migrations — the redistribution was vacuous", deact, migr)
				}
			}
			assertTelemetryInvariants(t, run.tc)
		})
	}
}

// TestLinearizableFetchAdd checks the one-sided fetch-add verb under
// contention: the pre-values observed by concurrent adders plus final
// reads must admit a sequential order — the wr_id demultiplexing and the
// combining path must neither lose nor duplicate an atomic.
func TestLinearizableFetchAdd(t *testing.T) {
	tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, Options{QPsPerConn: 2})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := conn.AttachMemRegion(64)
	if err != nil {
		t.Fatal(err)
	}

	rec := check.NewRecorder()
	const nThreads, perThread = 6, 80
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			for i := 0; i < perThread; i++ {
				call := rec.Begin()
				old, err := th.FetchAdd(region, 0, 1)
				if err != nil {
					t.Errorf("fetch-add: %v", err)
					return
				}
				rec.End(g, call, check.CounterIn{Add: true, Delta: 1}, check.CounterOut{Val: old})
			}
			// Observer read: pins the final count into the history.
			var buf [8]byte
			call := rec.Begin()
			if err := th.Read(region, 0, buf[:]); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			rec.End(g, call, check.CounterIn{}, check.CounterOut{Val: binary.LittleEndian.Uint64(buf[:])})
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if res := check.Check(check.CounterModel(), rec.History()); !res.Ok {
		t.Fatalf("fetch-add history not linearizable:\n%s", res)
	}
	assertTelemetryInvariants(t, tc)
}

// kvUnderFaults records put/get traffic against the kvstore handlers while
// a seeded fault plan breaks QPs underneath, and checks the history against
// MonotonicKVModel — the at-least-once contract the guarded put handler
// provides. Calls that fail with an ambiguous error are recorded as pending
// (they may or may not have applied); a lost acknowledged put or a stale
// read is still a violation. Recovery that answers the calls riding a
// broken QP with an empty OK (mutRecycleAckInflight) makes a get read
// nothing after a put was acknowledged.
func kvUnderFaults(t *testing.T) checkedRun {
	sOpts := Options{QPsPerConn: 2}
	cOpts := Options{
		QPsPerConn:   2,
		RPCTimeout:   100 * time.Millisecond,
		StallTimeout: 10 * time.Millisecond,
		test:         testKnobs{rcRetries: 3},
	}
	tc := newTestCluster(t, 1, sOpts, cOpts)
	registerKV(t, tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	// Seeded outage window on the client→server link plus light loss.
	tc.net.Fabric().SetFaultPlan(&fabric.FaultPlan{
		Seed:       4,
		RCLossProb: 0.01,
		Links: []fabric.LinkFault{
			{Src: tc.clients[0].ID(), Dst: tc.server.ID(), DownAfter: 60, DownFor: 300},
		},
	})

	rec := check.NewRecorder()
	const nThreads, attempts = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := conn.RegisterThread()
			key := uint64(g % 2) // two threads per key: cross-thread races
			req := make([]byte, 16)
			binary.LittleEndian.PutUint64(req[:8], key)
			for i := 0; i < attempts; i++ {
				if i%4 == 3 {
					// A get; ambiguous failures drop out of the history
					// entirely (a failed read observed nothing).
					in := check.KVIn{Key: key}
					call := rec.Begin()
					resp, err := th.Call(kvGetID, req[:8])
					switch {
					case err == nil && resp.Status == StatusOK && len(resp.Data) >= 8:
						rec.End(g, call, in, check.KVOut{
							Val: binary.LittleEndian.Uint64(resp.Data[:8]), Found: true,
						})
					case err == nil && resp.Status == StatusOK:
						rec.End(g, call, in, check.KVOut{})
					case err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQPBroken):
						t.Errorf("kv get: fatal error under faults: %v", err)
						resp.Release()
						return
					}
					resp.Release()
					continue
				}
				// A put with a per-key-unique, per-thread-monotonic value.
				val := uint64(i)*uint64(nThreads) + uint64(g) + 1
				in := check.KVIn{Key: key, Put: true, Val: val}
				binary.LittleEndian.PutUint64(req[8:16], val)
				call := rec.Begin()
				resp, err := th.Call(kvPutID, req)
				switch {
				case err == nil && resp.Status == StatusOK && len(resp.Data) == 1 && resp.Data[0] == 0:
					rec.End(g, call, in, check.KVOut{})
				case err == nil:
					rec.EndPending(g, call, in) // handler refused; treat as unknown
				case errors.Is(err, ErrTimeout) || errors.Is(err, ErrQPBroken):
					rec.EndPending(g, call, in) // ambiguous: may have applied
				default:
					t.Errorf("kv put: fatal error under faults: %v", err)
					resp.Release()
					return
				}
				resp.Release()
			}
		}(g)
	}
	wg.Wait()
	return checkedRun{tc: tc, res: check.CheckTimeout(check.MonotonicKVModel(), rec.History(), 30*time.Second)}
}

// TestLinearizableKVUnderFaults runs the kv-under-faults scenario on the
// shipped recovery path: the plan must inject faults and the history must
// be linearizable.
func TestLinearizableKVUnderFaults(t *testing.T) {
	run := kvUnderFaults(t)
	if t.Failed() {
		return
	}
	if fs := run.tc.net.Fabric().FaultCounters(); fs.RCDropped == 0 && fs.LinkDownDrops == 0 {
		t.Fatal("fault plan injected nothing — the checked run was vacuous")
	}
	if !run.res.Ok {
		t.Fatalf("kv history under faults not linearizable:\n%s", run.res)
	}
	if run.res.TimedOut {
		t.Log("checker hit its time budget; no violation found")
	}
	assertTelemetryInvariants(t, run.tc)
}
