// Command flockload drives the live FLock library with a configurable
// synthetic workload and reports throughput, latency percentiles, and the
// coalescing/scheduling metrics the paper's evaluation revolves around.
// It is the interactive counterpart to cmd/flockbench's scripted sweeps,
// and measures with the same closed-loop driver (internal/loadgen): the
// workers warm up for a quarter of -dur, then the window opens, and the
// throughput and latency lines cover the window only:
//
//	flockload -clients 2 -threads 8 -qps 2 -payload 64 -window 8 -dur 2s
//	flockload -mem -payload 512            # one-sided read/write mix
//	flockload -threads 16 -no-coalesce     # MaxBatch=1 ablation, live
//	flockload -faults rc-loss=0.01,flap=1  # lossy fabric + flapping QP
//	flockload -overload 16 -retry 4        # admission control + budgeted retries
//
// The -cluster flag switches to cluster mode: N member nodes serve the
// sharded KV behind the epoch-routing client, a live shard migration
// runs mid-window, and the report shows per-shard routing stats,
// wrong-shard redirects, migration progress, and the membership view.
// The epilogue drains every node and asserts zero outstanding pooled
// buffers:
//
//	flockload -cluster 4 -shards 16 -threads 8 -dur 2s
//
// Adding -replicas R replicates every shard to R backups (synchronous
// forward before ACK) and swaps the mid-window migration for a primary
// kill: one member drops off the fabric, the detector walks it to dead,
// and the coordinator promotes backups — the report shows detection and
// promotion timings plus the replication counters:
//
//	flockload -cluster 4 -shards 16 -replicas 2 -threads 8 -dur 2s
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"flock"
	"flock/internal/loadgen"
	mempool "flock/internal/mem"
)

func main() {
	var (
		clients    = flag.Int("clients", 1, "client nodes")
		threads    = flag.Int("threads", 8, "threads per client")
		qps        = flag.Int("qps", 2, "QPs per connection")
		payload    = flag.Int("payload", 64, "request payload bytes")
		window     = flag.Int("window", 4, "outstanding requests per thread")
		dur        = flag.Duration("dur", time.Second, "measurement window")
		mem        = flag.Bool("mem", false, "drive one-sided read/write instead of RPC")
		noCoalesce = flag.Bool("no-coalesce", false, "disable leader coalescing (MaxBatch=1)")
		workers    = flag.Int("workers", 0, "server RPC worker pool size (0 = inline)")
		maxAQP     = flag.Int("max-aqp", 0, "MAX_AQP override (0 = default 256)")
		faults     = flag.String("faults", "", "fault spec, e.g. seed=7,rc-loss=0.01,flap=3 (see fabric.ParseFaultPlan)")
		rpcTimeout = flag.Duration("rpc-timeout", 0, "per-RPC deadline (0 = none; implied 100ms when -faults is set)")
		overload   = flag.Int("overload", 0, "server admission limit: excess requests are NACKed with ErrOverloaded (0 = unlimited)")
		retry      = flag.Int("retry", 0, "attempts per RPC (CallOptions.MaxAttempts): above 1, failed attempts are retried under one idempotency key with backoff, against the retry budget (0 = one attempt)")
		pprofDir   = flag.String("pprof", "", "directory to write cpu/heap/mutex/block .pprof files into")
		metrics    = flag.Bool("metrics", false, "dump the full telemetry snapshot as JSON after the run")
		expvarAddr = flag.String("expvar", "", "serve the telemetry snapshot on this addr via expvar (e.g. :8080)")
		traceEvery = flag.Int("trace", 0, "record the RPC lifecycle trace, sampling 1 in N requests (0 = off)")
		nicCache   = flag.Int("nic-cache", 0, "NIC connection-context cache size (0 = unconstrained)")
		clusterN   = flag.Int("cluster", 0, "cluster mode: this many member nodes serve the sharded KV behind the shard router (0 = off)")
		shardsN    = flag.Int("shards", 16, "shard count in -cluster mode")
		replicasN  = flag.Int("replicas", 0, "backups per shard in -cluster mode; >0 replaces the mid-window migrations with a primary kill + failover (0 = unreplicated)")
	)
	flag.Parse()

	if *clusterN > 0 {
		os.Exit(runCluster(*clusterN, *shardsN, *replicasN, *threads, *dur, *faults))
	}

	opts := flock.Options{
		QPsPerConn:   *qps,
		Workers:      *workers,
		MaxActiveQPs: *maxAQP,
		RPCTimeout:   *rpcTimeout,
	}
	if *noCoalesce {
		opts.MaxBatch = 1
	}
	if *pprofDir != "" {
		// Contended-lock and blocking profiles are pay-to-play: the runtime
		// only samples them when the rates are set, so plain runs keep the
		// hot path unperturbed.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Microsecond))
	}
	// resilient selects the overload-control epilogue (drain + metrics
	// line).
	resilient := *overload > 0 || *retry > 0
	if (*faults != "" || resilient) && opts.RPCTimeout == 0 {
		opts.RPCTimeout = 100 * time.Millisecond
	}
	serverOpts, clientOpts := opts, opts
	serverOpts.AdmissionLimit = *overload

	star, err := loadgen.NewStar(serverOpts, clientOpts, *clients, *nicCache, loadgen.Echo)
	if err != nil {
		log.Fatal(err)
	}
	defer star.Close()
	net, server := star.Net, star.Server
	if *traceEvery > 0 {
		for _, n := range append([]*flock.Node{server}, star.Clients...) {
			n.Trace().Enable(*traceEvery)
		}
	}
	setFaults(net, *faults)
	if *expvarAddr != "" {
		expvar.Publish("flock", expvar.Func(func() interface{} {
			return net.TelemetrySnapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*expvarAddr, nil); err != nil {
				log.Printf("expvar server: %v", err)
			}
		}()
	}
	regions := make([]*flock.RemoteRegion, *clients)
	if *mem {
		for c, conn := range star.Conns {
			if regions[c], err = conn.AttachMemRegion(1 << 20); err != nil {
				log.Fatal(err)
			}
		}
	}

	var cpuProf *os.File
	if *pprofDir != "" {
		if err := os.MkdirAll(*pprofDir, 0o755); err != nil {
			log.Fatal(err)
		}
		cpuProf, err = os.Create(filepath.Join(*pprofDir, "cpu.pprof"))
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuProf); err != nil {
			log.Fatal(err)
		}
	}

	run := loadgen.Begin(net, *clients**threads, *dur, func(w *loadgen.Worker) loadgen.Step {
		c := w.Index / *threads
		th := star.Conns[c].RegisterThread()
		buf := make([]byte, *payload)
		// Transient faults (deadline expiry, a QP breaking under the
		// window, overload pushback) fail the operation and the loop keeps
		// driving; any other error retires the worker.
		w.Tolerate(flock.ErrTimeout, flock.ErrQPBroken, flock.ErrOverloaded)
		if !*mem {
			// -retry travels with each call: backoff, budget accounting and
			// idempotency keys all happen inside the library, at Wait time,
			// and a call that still fails after its attempts counts once.
			return loadgen.Pipelined(w, th, buf, *window, flock.CallOptions{MaxAttempts: *retry})
		}
		i := 0
		return func() (int, error) {
			t0 := time.Now()
			var err error
			if i%2 == 0 {
				err = th.Write(regions[c], i%1024, buf)
			} else {
				err = th.Read(regions[c], i%1024, buf)
			}
			if err != nil {
				return 0, err
			}
			w.Observe(time.Since(t0))
			i++
			return 1, nil
		}
	})
	// The MemStats deltas bracket the window, so they isolate its steady
	// state from node/connection construction and from warm-up.
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	time.Sleep(*dur)
	runtime.ReadMemStats(&msAfter)
	res := run.End()
	if cpuProf != nil {
		pprof.StopCPUProfile()
		cpuProf.Close() //nolint:errcheck
	}

	mode := "rpc"
	if *mem {
		mode = "mem"
	}
	fmt.Printf("mode=%s clients=%d threads=%d qps=%d payload=%dB window=%d\n",
		mode, *clients, *threads, *qps, *payload, *window)
	reportWindow(res, *clients**threads)
	m := server.Metrics()
	if m.MsgsIn > 0 {
		fmt.Printf("server      degree=%.2f msgs=%d renewals=%d deact=%d react=%d migrations=%d\n",
			float64(m.ItemsIn)/float64(m.MsgsIn), m.MsgsIn, m.CreditRenewals,
			m.QPDeactivations, m.QPActivations, m.ThreadMigrations)
	}
	st := server.Device().Stats()
	fmt.Printf("server NIC  doorbells=%d wrs=%d pkts=%d suppressed-cqe=%d\n",
		st.Doorbells, st.WorkRequests, st.PacketsTX, st.CompletionsSuppressed)
	if res.Ops > 0 {
		// Process-wide deltas over the measurement window: allocation count
		// and bytes per completed operation, plus GC cycles. These are the
		// numbers the pooled hot path is meant to hold flat as load grows.
		mallocs := msAfter.Mallocs - msBefore.Mallocs
		heapB := msAfter.TotalAlloc - msBefore.TotalAlloc
		fmt.Printf("memory      allocs/op=%.1f heap-bytes/op=%.0f gc-cycles=%d heap-live=%dKB\n",
			float64(mallocs)/float64(res.Ops), float64(heapB)/float64(res.Ops),
			msAfter.NumGC-msBefore.NumGC, msAfter.HeapAlloc/1024)
	}
	if *pprofDir != "" {
		hp, err := os.Create(filepath.Join(*pprofDir, "heap.pprof"))
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC() // up-to-date heap profile
		if err := pprof.WriteHeapProfile(hp); err != nil {
			log.Fatal(err)
		}
		hp.Close() //nolint:errcheck
		for _, prof := range []string{"mutex", "block"} {
			f, err := os.Create(filepath.Join(*pprofDir, prof+".pprof"))
			if err != nil {
				log.Fatal(err)
			}
			if err := pprof.Lookup(prof).WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			f.Close() //nolint:errcheck
		}
		fmt.Printf("pprof       wrote cpu/heap/mutex/block .pprof in %s\n", *pprofDir)
	}
	if *faults != "" {
		fs := net.Fabric().FaultCounters()
		fmt.Printf("faults      rc-dropped=%d link-down=%d corrupted=%d delayed=%d failed-ops=%d\n",
			fs.RCDropped, fs.LinkDownDrops, fs.Corrupted, fs.RCDelayed, res.Failed)
		var rec flock.NodeMetrics
		for _, cn := range star.Clients {
			cm := cn.Metrics()
			rec.QPRecycles += cm.QPRecycles
			rec.QPQuarantines += cm.QPQuarantines
			rec.RPCTimeouts += cm.RPCTimeouts
		}
		fmt.Printf("recovery    recycles=%d quarantines=%d rpc-timeouts=%d (clients) recycles=%d quarantines=%d (server)\n",
			rec.QPRecycles, rec.QPQuarantines, rec.RPCTimeouts,
			m.QPRecycles, m.QPQuarantines)
	}
	if resilient {
		var cl flock.NodeMetrics
		for _, cn := range star.Clients {
			cm := cn.Metrics()
			cl.Retries += cm.Retries
			cl.RetryBudgetExhausted += cm.RetryBudgetExhausted
		}
		fmt.Printf("resilience  rejected=%d draining=%d dedup-hits=%d credit-withheld=%d (server) retries=%d budget-exhausted=%d (clients)\n",
			m.RPCRejected, m.RPCRejectedDraining, m.DedupHits, m.CreditWithheld,
			cl.Retries, cl.RetryBudgetExhausted)
	}
	if *metrics {
		snap := net.TelemetrySnapshot()
		b, err := snap.JSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(b) //nolint:errcheck
		fmt.Println()      // trailing newline after the JSON document
	}
	if resilient {
		// Graceful-drain epilogue: every node must quiesce (zero admitted
		// requests, zero outstanding client RPCs), and teardown must land
		// the pooled-buffer ledger at exactly zero leases — the same
		// invariant the package leak gate enforces on the test suite.
		drainAll("client", star.Clients)
		drainAll("server", []*flock.Node{server})
		star.Close()
		assertNoLeases()
		fmt.Println("drain       server=ok clients=ok leases=0")
	}
	if res.Ops == 0 {
		os.Exit(1)
	}
}

// setFaults installs the -faults plan on the fabric; no traffic has
// flowed yet, so the plan's attempt counters start with the workload.
func setFaults(net *flock.Network, spec string) {
	if spec == "" {
		return
	}
	plan, err := flock.ParseFaultPlan(spec)
	if err != nil {
		log.Fatal(err)
	}
	net.Fabric().SetFaultPlan(plan)
}

// reportWindow prints what the driver measured: the rate over the elapsed
// time of the window (warm-up excluded), the merged latency histogram, and
// any worker that retired on an unexpected error rather than hiding it in
// the rate.
func reportWindow(res loadgen.Result, workers int) {
	fmt.Printf("throughput  %.0f ops/s (%d ops in %v)\n",
		res.Rate(), res.Ops, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("latency     p50=%v p99=%v max=%v\n",
		time.Duration(res.Lat.Median()), time.Duration(res.Lat.P99()), time.Duration(res.Lat.Max()))
	if res.Retired > 0 {
		fmt.Printf(loadgen.RetiredWarning, res.Retired, workers, res.Err)
	}
}

// drainAll quiesces nodes; a node that cannot drain fails the run.
func drainAll(role string, nodes []*flock.Node) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.Drain(ctx); err != nil {
			log.Fatalf("%s %d drain: %v", role, n.ID(), err)
		}
	}
}

// assertNoLeases is the epilogue's ledger check, after drain and close.
func assertNoLeases() {
	if n := mempool.Default.Outstanding(); n != 0 {
		log.Fatalf("lease leak: %d pooled buffers still outstanding after drain+close", n)
	}
}

// runCluster is cluster mode: nMembers member nodes serve the sharded
// KV, nThreads router threads drive closed-loop puts/gets through the
// epoch-routing client, and halfway through the window the coordinator
// live-migrates two shards away from their owners — so the report's
// wrong-shard redirect and migration numbers come from a real move, not
// a synthetic NACK. With replicas > 0 the mid-window event is a primary
// kill instead: every put synchronously replicates to its backups, one
// shard primary drops off the fabric entirely, the detector walks it to
// dead, and the coordinator promotes backups — the report then shows
// detection + promotion timings and the replication counters. The
// epilogue mirrors the resilient mode's: every node drains, the topology
// closes, and the pooled-buffer ledger must be at exactly zero leases.
// Returns the process exit code.
func runCluster(nMembers, nShards, replicas, nThreads int, dur time.Duration, faults string) int {
	memberOpts := flock.Options{Workers: 2, RPCTimeout: 100 * time.Millisecond}
	kv, err := loadgen.NewKV(nMembers, nShards, replicas, memberOpts, flock.Options{RPCTimeout: 100 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	net, client, router := kv.Net, kv.Client, kv.Router
	setFaults(net, faults)
	coord := flock.NewClusterCoordinator(kv.Map)
	for _, svc := range kv.Services {
		coord.AddService(svc)
	}
	// The router is deliberately NOT registered with the coordinator:
	// it must discover each migration the production way — a WrongShard
	// NACK carrying the newer map — so the redirect stats below are real.
	mship := flock.NewClusterMembership(router)
	if replicas > 0 {
		// Failover mode: the victim's shards have nobody left to NACK a
		// stale route, so the router learns the promoted map the way a
		// production client would — from the control plane's publish.
		coord.AddRouter(router)
		mship.ProbeTimeout = 100 * time.Millisecond
	}

	// Per-shard op counts are kept per worker and summed for the report,
	// so the measured path shares no counter.
	shardOps := make([][]uint64, nThreads)
	run := loadgen.Begin(net, nThreads, dur, func(w *loadgen.Worker) loadgen.Step {
		w.Tolerate(flock.ErrTimeout, flock.ErrQPBroken, flock.ErrOverloaded, flock.ErrNoRoute, flock.ErrDraining)
		rt := router.Thread()
		mine := make([]uint64, nShards)
		shardOps[w.Index] = mine
		// Disjoint per-goroutine key range with strictly increasing
		// values — the sharded KV's non-decreasing value contract.
		base := uint64(w.Index) * 64
		i := 0
		return func() (int, error) {
			key := base + uint64(i%64)
			t0 := time.Now()
			var err error
			if i%2 == 0 {
				err = rt.Put(key, uint64(i+1))
			} else {
				_, _, err = rt.Get(key)
			}
			i++
			if err != nil {
				return 0, err
			}
			w.Observe(time.Since(t0))
			if w.InWindow() {
				mine[router.Map().ShardOf(key)]++
			}
			return 1, nil
		}
	})

	// Mid-window event: with replicas, one shard primary drops off the
	// fabric entirely and the cluster fails over; otherwise two live
	// migrations — both with traffic still flowing.
	time.Sleep(dur / 2)
	type move struct {
		shard    int
		from, to flock.NodeID
		took     time.Duration
	}
	var moves []move
	victim := flock.NodeID(-1)
	var victimShards, promoted int
	var detect, promote time.Duration
	if replicas > 0 && nMembers > 1 {
		victim = coord.Map().Owner(0)
		victimShards = len(coord.Map().ShardsOwnedBy(victim))
		fab := net.Fabric()
		t0 := time.Now()
		for _, peer := range append([]*flock.Node{client}, kv.Members...) {
			if id := peer.ID(); id != victim {
				fab.SetLinkDown(victim, id, true)
				fab.SetLinkDown(id, victim, true)
			}
		}
		for mship.State(victim) != flock.MemberDead {
			if time.Since(t0) > 30*time.Second {
				log.Fatal("detector never declared the victim dead")
			}
			mship.ProbeOnce()
		}
		detect = time.Since(t0)
		t1 := time.Now()
		p, err := coord.FailOver(victim, mship.Live())
		if err != nil {
			log.Fatalf("failover: %v", err)
		}
		promoted, promote = p, time.Since(t1)
	} else if nMembers > 1 {
		for _, shard := range []int{0, 1} {
			from := coord.Map().Owner(shard)
			to := kv.Members[(int(from)+1)%nMembers].ID()
			t0 := time.Now()
			if err := coord.MigrateShard(shard, to); err != nil {
				log.Printf("migration of shard %d failed: %v", shard, err)
				continue
			}
			moves = append(moves, move{shard, from, to, time.Since(t0)})
		}
	}
	time.Sleep(dur - dur/2)
	res := run.End()

	mship.ProbeOnce()
	live := mship.Live()

	fmt.Printf("mode=cluster members=%d shards=%d threads=%d\n", nMembers, nShards, nThreads)
	reportWindow(res, nThreads)
	fmt.Printf("routing     redirects=%d failed=%d epoch=%d\n",
		router.Redirects(), res.Failed, router.Map().Epoch)
	// Per-shard routing stats: ops routed to each shard and its final
	// owner, eight shards per line.
	final := router.Map()
	for s := 0; s < nShards; s++ {
		if s%8 == 0 {
			if s > 0 {
				fmt.Println()
			}
			fmt.Printf("shard-ops  ")
		}
		var ops uint64
		for _, mine := range shardOps {
			ops += mine[s]
		}
		fmt.Printf(" s%d=%d@n%d", s, ops, final.Owner(s))
	}
	fmt.Println()
	for _, mv := range moves {
		fmt.Printf("migration   shard=%d from=n%d to=n%d dur=%v\n",
			mv.shard, mv.from, mv.to, mv.took.Round(time.Microsecond))
	}
	if victim >= 0 {
		var fwds, promos, batches, entrySum, entryCount uint64
		var pendingLog int64
		for _, svc := range kv.Services {
			tl := svc.Node().Telemetry()
			fwds += tl.Counter("cluster.replica_forwards").Load()
			promos += tl.Counter("cluster.promotions").Load()
			batches += tl.Counter("cluster.repl_batches").Load()
			snap := tl.Hist("cluster.repl_batch_entries").Snapshot()
			entrySum += snap.Sum
			entryCount += snap.Count
			pendingLog += tl.Gauge("cluster.repl_log_pending").Load()
		}
		batchMean := 0.0
		if entryCount > 0 {
			batchMean = float64(entrySum) / float64(entryCount)
		}
		fmt.Printf("failover    victim=n%d shards=%d promoted=%d detect=%v promote=%v\n",
			victim, victimShards, promoted, detect.Round(time.Millisecond), promote.Round(time.Microsecond))
		fmt.Printf("replication replicas=%d forwards=%d promotions=%d batches=%d batch_mean=%.1f pending=%d\n",
			replicas, fwds, promos, batches, batchMean, pendingLog)
	}
	fmt.Printf("membership  live=%d/%d moves=%d\n", len(live), nMembers, len(moves))

	// Epilogue: drain everything and land the lease ledger at zero.
	drainAll("client", []*flock.Node{client})
	drainAll("member", kv.Members)
	kv.Close()
	assertNoLeases()
	fmt.Println("drain       members=ok client=ok leases=0")
	if res.Ops == 0 {
		return 1
	}
	return 0
}
