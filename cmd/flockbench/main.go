// Command flockbench regenerates the tables and figures of "Birds of a
// Feather Flock Together: Scaling RDMA RPCs with FLock" (SOSP 2021).
//
// Usage:
//
//	flockbench -run all            # everything (several minutes)
//	flockbench -run fig6           # one experiment
//	flockbench -run fig6 -quick    # shortened simulation windows
//	flockbench -list               # list experiment IDs
//
// Figure experiments run on the deterministic discrete-event models in
// internal/model; table-1, the sync microbenchmark, and the credit/
// signaling ablations run on the real concurrent library, every timed one
// of them under the one closed-loop driver in internal/loadgen. Output is
// one row per data point, aligned for diffing against EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"flock/internal/baseline/lockshare"
	"flock/internal/baseline/udrpc"
	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/loadgen"
	"flock/internal/model"
	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// experiment is one runnable unit.
type experiment struct {
	name  string
	desc  string
	run   func(quick bool)
	alias string // non-empty: same runs as this experiment (skipped in -run all)
}

func main() {
	runFlag := flag.String("run", "", "experiment ID to run, or 'all'")
	quick := flag.Bool("quick", false, "shortened measurement windows")
	list := flag.Bool("list", false, "list experiment IDs")
	csvPath := flag.String("csv", "", "also append figure rows as CSV to this file")
	jsonPath := flag.String("json", "", "also write all results as a JSON document to this file")
	flag.Parse()
	jsonOut.enabled = *jsonPath != ""
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvSink = f
		fmt.Fprintln(f, "figure,series,x,mops,p50us,p99us,degree,cpu")
	}

	exps := experiments()
	if *list || *runFlag == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-18s %s\n", e.name, e.desc)
		}
		if *runFlag == "" && !*list {
			os.Exit(2)
		}
		return
	}
	if *runFlag == "all" {
		for _, e := range exps {
			if e.alias != "" {
				fmt.Printf("== %s: %s (same runs as %s; skipped)\n\n", e.name, e.desc, e.alias)
				continue
			}
			fmt.Printf("== %s: %s\n", e.name, e.desc)
			jsonOut.cur = e.name
			e.run(*quick)
			fmt.Println()
		}
		writeJSONOut(*jsonPath, *quick)
		return
	}
	for _, e := range exps {
		if e.name == *runFlag {
			fmt.Printf("== %s: %s\n", e.name, e.desc)
			jsonOut.cur = e.name
			e.run(*quick)
			writeJSONOut(*jsonPath, *quick)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *runFlag)
	os.Exit(2)
}

// csvSink, when set, receives every figure row in CSV form.
var csvSink *os.File

// benchRecord is one machine-readable data point for -json. Figure rows
// carry figure/series/x straight from the model row; live-library
// experiments attach the telemetry delta of the window that produced them.
type benchRecord struct {
	Experiment string              `json:"experiment"`
	Figure     string              `json:"figure,omitempty"`
	Series     string              `json:"series,omitempty"`
	X          float64             `json:"x"`
	Metrics    map[string]float64  `json:"metrics"`
	Telemetry  *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// jsonOut accumulates benchRecords across experiments; main writes the
// document once at exit. cur is only written from the sequential main
// loop; the mutex covers record emission from experiment bodies.
var jsonOut struct {
	enabled bool
	cur     string
	mu      sync.Mutex
	records []benchRecord
}

// emitRecord appends one data point, stamping the current experiment.
func emitRecord(rec benchRecord) {
	if !jsonOut.enabled {
		return
	}
	jsonOut.mu.Lock()
	defer jsonOut.mu.Unlock()
	rec.Experiment = jsonOut.cur
	jsonOut.records = append(jsonOut.records, rec)
}

// emitModelRow converts a DES figure row into a benchRecord.
func emitModelRow(r model.Row) {
	emitRecord(benchRecord{
		Figure: r.Figure, Series: r.Series, X: r.X,
		Metrics: map[string]float64{
			"mops": r.Mops, "p50_us": r.P50us, "p99_us": r.P99us,
			"degree": r.Degree, "cpu": r.CPU,
		},
	})
}

// writeJSONOut writes the accumulated records as one JSON document.
func writeJSONOut(path string, quick bool) {
	if path == "" {
		return
	}
	doc := struct {
		Tool    string        `json:"tool"`
		Quick   bool          `json:"quick"`
		Records []benchRecord `json:"records"`
	}{Tool: "flockbench", Quick: quick, Records: jsonOut.records}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s\n", len(jsonOut.records), path)
}

// experiments enumerates every table/figure reproduction and ablation.
func experiments() []experiment {
	rows := func(f func(bool) []model.Row) func(bool) {
		return func(quick bool) {
			for _, r := range f(quick) {
				fmt.Println(r)
				if csvSink != nil {
					fmt.Fprintf(csvSink, "%s,%s,%g,%.3f,%.2f,%.2f,%.3f,%.3f\n",
						r.Figure, r.Series, r.X, r.Mops, r.P50us, r.P99us, r.Degree, r.CPU)
				}
				emitModelRow(r)
			}
		}
	}
	return []experiment{
		{"table1", "transport capability matrix (Table 1)", runTable1, ""},
		{"fig2a", "RDMA read (RC) throughput vs #QPs — NIC cache cliff", rows(model.Fig2a), ""},
		{"fig2b", "UD RPC throughput vs #senders — server CPU saturation", rows(model.Fig2b), ""},
		{"fig6", "throughput: FLock vs eRPC, 1–48 thr, outstanding 1/4/8", rows(model.Fig6), ""},
		{"fig7", "median latency view of the fig6 sweep", rows(model.Fig6), "fig6"},
		{"fig8", "99th-percentile latency view of the fig6 sweep", rows(model.Fig6), "fig6"},
		{"fig9", "FLock vs no-sharing vs FaRM-style lock sharing", rows(model.Fig9), ""},
		{"fig10", "coalescing on/off at 32 thr, outstanding 1/4/8", rows(model.Fig10), ""},
		{"fig11", "sender-side thread scheduling on/off, large payloads", rows(model.Fig11), ""},
		{"fig12", "node scalability: 23–368 clients, 3 QP configs", rows(model.Fig12), ""},
		{"fig14", "TATP: FLockTX vs FaSST, 20 clients, 3 servers", rows(model.Fig14), ""},
		{"fig15", "Smallbank: FLockTX vs FaSST", rows(model.Fig15), ""},
		{"fig16", "HydraList 90% get / 10% scan: FLock vs eRPC", rows(model.Fig16), ""},
		{"fig17", "HydraList per-class latency view of the fig16 sweep", rows(model.Fig16), "fig16"},
		{"fig18", "HydraList tail-latency view of the fig16 sweep", rows(model.Fig16), "fig16"},
		{"ablation-maxaqp", "MAX_AQP sweep (why 256, §5.1)", rows(model.AblationMaxAQP), ""},
		{"ablation-batch", "leader combining bound sweep (§4.2)", rows(model.AblationBatch), ""},
		{"ablation-window", "combining window sweep (degree vs latency)", rows(model.AblationInterval), ""},
		{"ablation-credits", "credit budget C sweep on the live library", runCreditAblation, ""},
		{"ablation-udcoalesce", "UD response coalescing (§9 extension) on the live library", runUDCoalesceAblation, ""},
		{"ablation-signal", "selective signaling sweep on the live library", runSignalAblation, ""},
		{"sync-micro", "live TCQ vs spinlock QP sharing (§1's 2.3× claim)", runSyncMicro, ""},
		{"overload", "goodput vs offered load: resilience layer on vs off, plus overload-chaos ratio", runOverloadSweep, ""},
		{"pipeline", "goodput vs async pipeline depth: CallAsync depths 1/2/4/8/16 vs sync Call baseline", runPipelineSweep, ""},
		{"cluster", "aggregate sharded-KV goodput vs cluster size: 1/2/4/8 members behind the shard router", runClusterScaling, ""},
		{"replication", "replicated-write overhead: put goodput vs replica factor R=0/1/2 on 4 members", runReplicationSweep, ""},
	}
}

// runTable1 prints the capability matrix straight from the substrate.
func runTable1(bool) {
	ops := []rnic.Opcode{rnic.OpRead, rnic.OpFetchAdd, rnic.OpCmpSwap, rnic.OpWrite, rnic.OpSend}
	fmt.Printf("%-4s", "")
	for _, op := range ops {
		fmt.Printf(" %-10s", op)
	}
	fmt.Println(" MTU")
	for _, tr := range []rnic.Transport{rnic.RC, rnic.UC, rnic.UD} {
		fmt.Printf("%-4s", tr)
		for _, op := range ops {
			mark := "x"
			if tr.Supports(op) {
				mark = "v"
			}
			fmt.Printf(" %-10s", mark)
		}
		mtu := "2GB"
		if tr == rnic.UD {
			mtu = "4KB"
		}
		fmt.Println(" " + mtu)
	}
}

// must unwraps a constructor's result: a live experiment whose topology
// does not build has nothing to report.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// measure runs one point of a live experiment under the shared driver
// (internal/loadgen: warm-up, window, measured elapsed, telemetry delta of
// the window). A worker that met an unexpected error lowers the rate, so
// it is reported here rather than absorbed.
func measure(nw *core.Network, workers int, window time.Duration, setup loadgen.Setup) loadgen.Result {
	res := loadgen.Measure(nw, workers, window, setup)
	if res.Retired > 0 {
		fmt.Printf(loadgen.RetiredWarning, res.Retired, workers, res.Err)
	}
	return res
}

// windowOf is an experiment's measurement window: full, or short with -quick.
func windowOf(quick bool, full, short time.Duration) time.Duration {
	if quick {
		return short
	}
	return full
}

// emitLive emits one measured point of a live experiment together with the
// telemetry delta of the window that produced it.
func emitLive(series string, x float64, res loadgen.Result, metrics map[string]float64) {
	emitRecord(benchRecord{Series: series, X: x, Metrics: metrics, Telemetry: &res.Telemetry})
}

// syncEcho sets up a worker that owns one thread on conn and keeps one
// synchronous echo of payload outstanding.
func syncEcho(conn *core.Conn, payload []byte) loadgen.Setup {
	return func(*loadgen.Worker) loadgen.Step {
		th := conn.RegisterThread()
		return func() (int, error) {
			r, err := th.Call(1, payload)
			if err != nil {
				return 0, err
			}
			r.Release()
			return 1, nil
		}
	}
}

// slowEcho is the echo handler with an emulated wall-clock service time.
func slowEcho(service time.Duration) core.Handler {
	return func(req []byte) []byte {
		time.Sleep(service)
		return req
	}
}

// runCreditAblation sweeps the per-QP credit budget C on the live library:
// 2 client nodes × 8 threads, each thread keeping a window of 8 64-byte
// echoes in flight.
func runCreditAblation(quick bool) {
	dur := windowOf(quick, 800*time.Millisecond, 200*time.Millisecond)
	const nClients, nThreads, depth = 2, 8, 8
	fmt.Println("C      Mops   renewals  degree")
	for _, credits := range []int{4, 8, 16, 32, 64, 128} {
		opts := core.Options{Credits: credits, QPsPerConn: 2}
		star := must(loadgen.NewStar(opts, opts, nClients, 0, loadgen.Echo))
		res := measure(star.Net, nClients*nThreads, dur, func(w *loadgen.Worker) loadgen.Step {
			// At C=4 a leader's credit wait now and then outlasts StallTimeout
			// and breaks its QP (one run in fifteen); the library recycles it
			// and the worker re-offers instead of leaving the population.
			w.Tolerate(core.ErrQPBroken)
			th := star.Conns[w.Index/nThreads].RegisterThread()
			payload := make([]byte, 64)
			batch := make([]core.BatchOp, depth)
			for k := range batch {
				batch[k] = core.BatchOp{RPCID: 1, Payload: payload}
			}
			return func() (int, error) {
				// One combining-queue entry for the whole window: the
				// claiming leader coalesces it under a single doorbell.
				pends, err := th.SendBatch(batch, core.CallOptions{})
				if err != nil {
					return 0, err
				}
				for i, p := range pends {
					r, err := p.Wait()
					if err != nil {
						return i, err
					}
					r.Release()
				}
				return len(pends), nil
			}
		})
		star.Close()
		c := res.Telemetry.Counters
		mops, renewals := res.Rate()/1e6, c["node0.core.credit_renewals"]
		degree := 0.0
		if msgs := c["node0.core.msgs_in"]; msgs > 0 {
			degree = float64(c["node0.core.items_in"]) / float64(msgs)
		}
		fmt.Printf("%-6d %6.3f %9d %7.2f\n", credits, mops, renewals, degree)
		emitLive("credits", float64(credits), res, map[string]float64{
			"mops": mops, "renewals": float64(renewals), "degree": degree,
		})
	}
}

// runSignalAblation sweeps the selective-signaling period on the live
// library, showing the completion-DMA savings of §7: 8 threads of
// synchronous echo on one shared QP.
func runSignalAblation(quick bool) {
	dur := windowOf(quick, 800*time.Millisecond, 200*time.Millisecond)
	fmt.Println("signalEvery  Mops   (completions suppressed vs delivered on client NIC)")
	for _, every := range []int{1, 4, 16, 64} {
		opts := core.Options{SignalEvery: every, QPsPerConn: 1}
		star := must(loadgen.NewStar(opts, opts, 1, 0, loadgen.Echo))
		res := measure(star.Net, 8, dur, syncEcho(star.Conns[0], []byte("signal-sweep")))
		star.Close()
		c := res.Telemetry.Counters
		mops := res.Rate() / 1e6
		suppressed, delivered := c["node1.rnic.completions_suppressed"], c["node1.rnic.completions_delivered"]
		fmt.Printf("%-12d %6.3f  suppressed=%d delivered=%d\n", every, mops, suppressed, delivered)
		emitLive("signal_every", float64(every), res, map[string]float64{
			"mops": mops, "suppressed": float64(suppressed), "delivered": float64(delivered),
		})
	}
}

// runUDCoalesceAblation compares the UD baseline with and without the §9
// response-coalescing extension: same burst workload, counting server→
// client packets and throughput.
func runUDCoalesceAblation(quick bool) {
	rounds := 300
	if quick {
		rounds = 60
	}
	run := func(coalesce bool) (ops float64, pkts uint64, batched uint64) {
		fab := fabric.New(fabric.Config{})
		sdev, _ := rnic.NewDevice(fab, rnic.Config{Node: 0})
		cdev, _ := rnic.NewDevice(fab, rnic.Config{Node: 1})
		defer sdev.Close()
		defer cdev.Close()
		cfg := udrpc.Config{CoalesceResponses: coalesce}
		srv, err := udrpc.NewServer(sdev, cfg)
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		srv.RegisterHandler(1, func(req []byte) []byte { return req })
		ct, err := udrpc.NewClientThread(cdev, cfg, int(srv.Node()), srv.QPNs()[0])
		if err != nil {
			panic(err)
		}
		const window = 16
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for k := 0; k < window; k++ {
				if _, err := ct.Send(1, []byte("coalesce-sweep-64-bytes-payload!")); err != nil {
					panic(err)
				}
			}
			for k := 0; k < window; k++ {
				if _, err := ct.Recv(); err != nil {
					panic(err)
				}
			}
		}
		total := float64(rounds * window)
		return total / time.Since(start).Seconds(), fab.Link(0, 1).Packets, srv.Metrics().BatchedResponses
	}
	fmt.Println("mode        ops/s     srv→cli pkts  batched")
	for _, coalesce := range []bool{false, true} {
		ops, pkts, batched := run(coalesce)
		name := "plain"
		if coalesce {
			name = "coalesced"
		}
		fmt.Printf("%-10s %9.0f %12d %8d\n", name, ops, pkts, batched)
		emitRecord(benchRecord{
			Series: name,
			Metrics: map[string]float64{
				"ops_per_s": ops, "srv_cli_pkts": float64(pkts), "batched": float64(batched),
			},
		})
	}
}

// runOverloadSweep is ISSUE 6's goodput-vs-offered-load experiment on
// the live library. One deliberately slow server (2 workers × ~1ms
// service time ⇒ on the order of 1–2K ops/s capacity) is offered
// stepped closed-loop load under a 20ms call deadline, twice per step:
//
//   - naive: no admission control, one attempt per call; clients time out
//     and immediately re-offer the same work. Once the queue outgrows the
//     deadline the server burns its whole capacity on requests whose
//     callers already gave up — congestion collapse. The expiries break
//     nothing: the server keeps answering (late), so no expiry strikes a
//     QP and every worker stays on its handle to the end. A retired-worker
//     warning here means the library broke a QP that was still answering.
//   - resilient: AdmissionLimit bounds the admitted queue (excess is a
//     cheap wire NACK, no handler execution) and every call carries
//     CallOptions{MaxAttempts: 4}: keyed client retries, budgeted, with
//     full-jitter backoff, so retry pressure
//     self-extinguishes and admitted work always completes inside its
//     deadline.
//
// The final row re-runs the heaviest resilient point under the seeded
// overload-chaos plan (1% RC loss) and prints its goodput as a ratio of
// the resilient no-fault plateau — the acceptance gate is ratio ≥ 0.8.
// Service time is wall-clock sleep, so on a 1-CPU container the real
// per-op cost lands at sleep-granularity (~1.2–1.5ms); the deadline and
// admission limit are sized so that admitted work always clears the
// 20ms/4 per-attempt window regardless.
func runOverloadSweep(quick bool) {
	dur := windowOf(quick, 600*time.Millisecond, 200*time.Millisecond)
	const serviceTime = time.Millisecond
	loads := []int{2, 8, 32, 64}
	if quick {
		loads = []int{2, 32, 64}
	}
	run := func(threads int, resilient bool, plan *fabric.FaultPlan) loadgen.Result {
		sOpts := core.Options{Workers: 2}
		cOpts := core.Options{RPCTimeout: 20 * time.Millisecond}
		var call core.CallOptions // the naive series: one attempt per call
		if resilient {
			sOpts.AdmissionLimit = 8
			call.MaxAttempts = 4
		}
		star := must(loadgen.NewStar(sOpts, cOpts, 1, 0, slowEcho(serviceTime)))
		defer star.Close()
		star.Net.Fabric().SetFaultPlan(plan)
		return measure(star.Net, threads, dur, func(w *loadgen.Worker) loadgen.Step {
			// Both series re-offer failed work immediately — the
			// collapse-vs-survival difference must come from the
			// library, not from a polite benchmark loop.
			w.Tolerate(core.ErrTimeout, core.ErrQPBroken, core.ErrOverloaded)
			th := star.Conns[0].RegisterThread()
			buf := make([]byte, 64)
			return func() (int, error) {
				r, err := th.CallOpts(1, buf, call)
				if err != nil {
					return 0, err
				}
				r.Release()
				return 1, nil
			}
		})
	}
	// The side columns come from the same window as the rate: rejects on
	// the server, retries and refused retries on the client.
	side := func(res loadgen.Result) (rejected, retries, exhausted uint64) {
		c := res.Telemetry.Counters
		return c["node0.core.rpc_rejected"], c["node1.core.retries"], c["node1.core.retry_budget_exhausted"]
	}

	fmt.Println("threads  naive(ops/s)  resilient(ops/s)  rejected  retries  budget-exhausted")
	var plateau float64
	for _, threads := range loads {
		naive := run(threads, false, nil)
		res := run(threads, true, nil)
		if res.Rate() > plateau {
			plateau = res.Rate()
		}
		rejected, retries, exhausted := side(res)
		fmt.Printf("%-8d %12.0f %17.0f %9d %8d %17d\n",
			threads, naive.Rate(), res.Rate(), rejected, retries, exhausted)
		emitLive("naive", float64(threads), naive, map[string]float64{"goodput_ops_s": naive.Rate()})
		emitLive("resilient", float64(threads), res, map[string]float64{
			"goodput_ops_s": res.Rate(), "rejected": float64(rejected),
			"retries": float64(retries), "budget_exhausted": float64(exhausted),
		})
	}

	// Overload chaos: heaviest resilient point plus a lossy fabric. The
	// library's recovery plus the resilience layer must hold goodput near
	// the no-fault plateau.
	chaosThreads := loads[len(loads)-1]
	chaos := run(chaosThreads, true, &fabric.FaultPlan{Seed: 6, RCLossProb: 0.01})
	rejected, retries, exhausted := side(chaos)
	ratio := chaos.Rate() / plateau
	fmt.Printf("chaos    %12s %17.0f %9d %8d %17d  (rc-loss=1%%)\n",
		"-", chaos.Rate(), rejected, retries, exhausted)
	fmt.Printf("chaos-goodput ratio=%.2f of no-fault plateau (%.0f ops/s, gate >= 0.80)\n", ratio, plateau)
	emitLive("chaos", float64(chaosThreads), chaos, map[string]float64{
		"goodput_ops_s": chaos.Rate(), "plateau_ops_s": plateau, "ratio": ratio,
		"rejected": float64(rejected), "retries": float64(retries),
	})
}

// runPipelineSweep measures closed-loop echo goodput as a function of the
// async pipeline depth: each client goroutine keeps `depth` Pendings in
// flight via CallAsync (FIFO window), retiring the oldest before issuing
// the next. The handler carries a small service time and the server runs
// enough workers to overlap requests, so depth 1 — like the sync Call
// baseline — pays round trip + service per op, while deeper windows hide
// the service latency behind the pipeline. The acceptance gate is depth-8
// goodput ≥ 1.5× depth-1. (Service time is wall-clock sleep; on a 1-CPU
// container it lands at sleep granularity, which only widens the gap the
// gate checks for.)
func runPipelineSweep(quick bool) {
	dur := windowOf(quick, 600*time.Millisecond, 200*time.Millisecond)
	const (
		nThreads    = 4
		serviceTime = 200 * time.Microsecond
	)
	depths := []int{1, 2, 4, 8, 16}
	if quick {
		depths = []int{1, 8}
	}

	// depth == 0 selects the synchronous Call baseline.
	run := func(depth int) loadgen.Result {
		star := must(loadgen.NewStar(core.Options{Workers: 16}, core.Options{}, 1, 0, slowEcho(serviceTime)))
		defer star.Close()
		if depth == 0 {
			return measure(star.Net, nThreads, dur, syncEcho(star.Conns[0], make([]byte, 64)))
		}
		return measure(star.Net, nThreads, dur, func(w *loadgen.Worker) loadgen.Step {
			return loadgen.Pipelined(w, star.Conns[0].RegisterThread(), make([]byte, 64), depth, core.CallOptions{})
		})
	}

	fmt.Printf("%d goroutines, 64-byte echo, %v window per point\n", nThreads, dur)
	fmt.Println("depth    goodput(ops/s)")
	sync := run(0)
	fmt.Printf("%-8s %14.0f\n", "sync", sync.Rate())
	emitLive("sync-call", 1, sync, map[string]float64{"goodput_ops_s": sync.Rate()})
	byDepth := make(map[int]float64, len(depths))
	for _, d := range depths {
		res := run(d)
		byDepth[d] = res.Rate()
		fmt.Printf("%-8d %14.0f\n", d, res.Rate())
		emitLive("async", float64(d), res, map[string]float64{"goodput_ops_s": res.Rate()})
	}
	ratio := byDepth[8] / byDepth[1]
	fmt.Printf("pipeline-goodput ratio=%.2f depth8/depth1 (depth8 %.0f ops/s, depth1 %.0f ops/s, gate >= 1.50)\n",
		ratio, byDepth[8], byDepth[1])
}

// kvLoad measures nThreads router threads on kv. Each owns a disjoint
// range of keysPerG keys and writes strictly increasing values — the KV's
// non-decreasing value contract; with gets, every second op reads instead.
func kvLoad(kv *loadgen.KV, nThreads, keysPerG int, gets bool, dur time.Duration) loadgen.Result {
	return measure(kv.Net, nThreads, dur, func(w *loadgen.Worker) loadgen.Step {
		rt := kv.Router.Thread()
		base := uint64(w.Index * keysPerG)
		i := 0
		return func() (int, error) {
			key := base + uint64(i%keysPerG)
			var err error
			if gets && i%2 == 1 {
				_, _, err = rt.Get(key)
			} else {
				err = rt.Put(key, uint64(i+1))
			}
			i++
			if err != nil {
				return 0, err
			}
			return 1, nil
		}
	})
}

// runClusterScaling is ISSUE 8's cluster-size experiment on the live
// library: N member nodes behind the shard-aware router, each serving
// its share of a 16-shard KV space with an emulated ~1ms per-op service
// time. A fixed closed-loop client population (24 router threads, each
// on its own disjoint key range) drives puts and gets through the
// router's epoch-routing path.
//
// Service time is wall-clock sleep and every member runs 2 workers, so
// aggregate capacity is worker-seconds — it scales with member count
// even on a 1-CPU container, exactly as RDMA-side capacity scales with
// NICs rather than with a shared host CPU. The acceptance gate is
// 4-member goodput ≥ 2.5× 1-member (ci.sh gates the ratio line).
func runClusterScaling(quick bool) {
	dur := windowOf(quick, 600*time.Millisecond, 250*time.Millisecond)
	const (
		serviceTime = time.Millisecond
		shards      = 16
		nThreads    = 24 // > 8 members × 2 workers: keep every worker fed
		keysPerG    = 64
	)
	sizes := []int{1, 2, 4, 8}
	if quick {
		sizes = []int{1, 4}
	}

	fmt.Printf("%d router threads, %d shards, ~%v emulated service/op, %v window per point\n",
		nThreads, shards, serviceTime, dur)
	fmt.Println("members  goodput(ops/s)  redirects")
	bySize := make(map[int]float64, len(sizes))
	for _, n := range sizes {
		kv := must(loadgen.NewKV(n, shards, 0, core.Options{Workers: 2}, core.Options{}))
		for _, svc := range kv.Services {
			svc.ServiceDelay = serviceTime
		}
		res := kvLoad(kv, nThreads, keysPerG, true, dur)
		kv.Close()
		redirects := res.Telemetry.Counters["node100.cluster.wrong_shard_redirects"]
		bySize[n] = res.Rate()
		fmt.Printf("%-8d %14.0f %10d\n", n, res.Rate(), redirects)
		emitLive("cluster", float64(n), res, map[string]float64{
			"goodput_ops_s": res.Rate(), "redirects": float64(redirects),
		})
	}
	ratio := bySize[4] / bySize[1]
	fmt.Printf("cluster-goodput ratio=%.2f 4node/1node (4node %.0f ops/s, 1node %.0f ops/s, gate >= 2.50)\n",
		ratio, bySize[4], bySize[1])
	emitRecord(benchRecord{
		Series: "ratio", X: 4,
		Metrics: map[string]float64{
			"ratio": ratio, "node4_ops_s": bySize[4], "node1_ops_s": bySize[1],
		},
	})
}

// runReplicationSweep is ISSUE 10's group-commit replication
// experiment on the live library: a fixed 4-member cluster, put-only
// closed-loop traffic, replica factor swept over R = 0/1/2. Puts at
// R > 0 ride the replication stream of their shard's backup set and ack
// when the multi-entry FRP2 batch carrying them is durable on every backup
// (internal/cluster/groupcommit.go), so the fan-out cost is amortized
// across whatever queued inside the flush window — the paper's flocking
// discipline applied to the replica plane. The goodput ratio R=2/R=0 is
// the price tag on durability; the CI gate holds the ratio above 0.5
// (PR 9's per-put sync forward measured ~0.2 on the same 1-CPU
// container). A second dimension pins
// R=2 and sweeps FlushEntries to show the ratio is the batching's doing:
// cap 1 reproduces the per-put forward, 8 and 64 open the window.
func runReplicationSweep(quick bool) {
	dur := windowOf(quick, 600*time.Millisecond, 250*time.Millisecond)
	const (
		nNodes   = 4
		shards   = 4
		nThreads = 128
		keysPerG = 16
		workers  = 40
	)
	tuned := cluster.ReplTuning{FlushEntries: 32}
	factors := []int{0, 1, 2}
	if quick {
		factors = []int{0, 2}
	}

	// run measures one point and prints its row; the replication columns
	// are the members' series summed over the window's telemetry delta.
	run := func(label string, replicas int, tuning cluster.ReplTuning) (loadgen.Result, map[string]float64) {
		kv := must(loadgen.NewKV(nNodes, shards, replicas, core.Options{Workers: workers}, core.Options{}))
		for _, svc := range kv.Services {
			svc.Repl = tuning
		}
		res := kvLoad(kv, nThreads, keysPerG, false, dur)
		kv.Close()
		var forwards, batches uint64
		for name, v := range res.Telemetry.Counters {
			switch {
			case strings.HasSuffix(name, ".cluster.replica_forwards"):
				forwards += v
			case strings.HasSuffix(name, ".cluster.repl_batches"):
				batches += v
			}
		}
		var entries telemetry.HistSnapshot
		for name, h := range res.Telemetry.Hists {
			if strings.HasSuffix(name, ".cluster.repl_batch_entries") {
				entries.Sum += h.Sum
				entries.Count += h.Count
			}
		}
		fmt.Printf("%s %14.0f %9d %9d %14.1f\n", label, res.Rate(), forwards, batches, entries.Mean())
		return res, map[string]float64{
			"goodput_ops_s": res.Rate(), "forwards": float64(forwards),
			"batches": float64(batches), "batch_mean": entries.Mean(),
		}
	}

	fmt.Printf("%d members, %d shards, %d put-only router threads, %v window per point\n",
		nNodes, shards, nThreads, dur)
	fmt.Printf("group-commit tuning: FlushEntries=%d (natural batching)\n", tuned.FlushEntries)
	fmt.Println("replicas  goodput(ops/s)  forwards   batches  entries/batch")
	byR := make(map[int]float64, len(factors))
	for _, r := range factors {
		res, metrics := run(fmt.Sprintf("%-9d", r), r, tuned)
		byR[r] = res.Rate()
		emitLive("replication", float64(r), res, metrics)
	}

	// The batching dimension: R=2 fixed, flush cap swept. Entries=1 is
	// PR 9's per-put forward reproduced inside the new pipeline.
	caps := []int{1, 8, 64}
	if quick {
		caps = []int{1, 8}
	}
	fmt.Println("flush-cap  goodput(ops/s)  forwards   batches  entries/batch")
	for _, c := range caps {
		tn := tuned
		tn.FlushEntries = c
		res, metrics := run(fmt.Sprintf("%-10d", c), 2, tn)
		metrics["ratio_vs_r0"] = res.Rate() / byR[0]
		emitLive("replication-batch", float64(c), res, metrics)
	}

	ratio := byR[2] / byR[0]
	fmt.Printf("replication-goodput ratio=%.2f r2/r0 (r2 %.0f ops/s, r0 %.0f ops/s, gate >= 0.5)\n",
		ratio, byR[2], byR[0])
	emitRecord(benchRecord{
		Series: "ratio", X: 2,
		Metrics: map[string]float64{
			"ratio": ratio, "r2_ops_s": byR[2], "r0_ops_s": byR[0],
		},
	})
}

// runSyncMicro is the §1 claim on real goroutines: 8 threads of 64-byte
// synchronous echo sharing one QP, through FLock's connection handle and
// through the FaRM-style spinlock baseline. Both sides are the same driver
// call; only the thread a worker registers differs.
func runSyncMicro(quick bool) {
	dur := windowOf(quick, time.Second, 250*time.Millisecond)
	const threads = 8
	fmt.Printf("%d goroutines sharing 1 QP, 64-byte echo, %v window\n", threads, dur)
	buf := make([]byte, 64)

	// FLock: one shared QP via the connection handle.
	opts := core.Options{QPsPerConn: 1}
	star := must(loadgen.NewStar(opts, opts, 1, 0, loadgen.Echo))
	flock := measure(star.Net, threads, dur, syncEcho(star.Conns[0], buf))
	star.Close()

	// Spinlock sharing: the FaRM-style baseline with every thread on one
	// QP. It runs on bare devices, so it has no telemetry registry.
	fab := fabric.New(fabric.Config{})
	sdev := must(rnic.NewDevice(fab, rnic.Config{Node: 0}))
	cdev := must(rnic.NewDevice(fab, rnic.Config{Node: 1}))
	defer sdev.Close()
	defer cdev.Close()
	cfg := lockshare.Config{ThreadsPerQP: threads}
	srv := lockshare.NewServer(sdev, cfg)
	defer srv.Close()
	srv.RegisterHandler(1, loadgen.Echo)
	cl := lockshare.NewClient(cdev, cfg, srv)
	lock := measure(nil, threads, dur, func(*loadgen.Worker) loadgen.Step {
		th := must(cl.RegisterThread())
		return func() (int, error) {
			if _, err := th.Call(1, buf); err != nil {
				return 0, err
			}
			return 1, nil
		}
	})

	fmt.Printf("flock-sync  %10.0f ops/s\n", flock.Rate())
	fmt.Printf("spinlock    %10.0f ops/s\n", lock.Rate())
	fmt.Printf("ratio       %10.2fx (paper: lock-based up to 2.3x slower)\n", flock.Rate()/lock.Rate())
	emitLive("", 0, flock, map[string]float64{
		"flock_ops_per_s":    flock.Rate(),
		"spinlock_ops_per_s": lock.Rate(),
		"ratio":              flock.Rate() / lock.Rate(),
	})
}
