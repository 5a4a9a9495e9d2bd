package flock_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Figure benchmarks drive the deterministic DES models
// (internal/model) in quick mode and report the headline metric of the
// figure (throughput in Mops, or latency in µs) as custom benchmark
// metrics; run `go run ./cmd/flockbench -run <id>` for the full sweeps
// recorded in EXPERIMENTS.md. The Live* benchmarks exercise the real
// concurrent library: the TCQ-vs-spinlock comparison of §1 and the RPC
// hot paths.

import (
	"encoding/binary"
	"sync"
	"testing"

	"flock"
	"flock/internal/baseline/lockshare"
	"flock/internal/fabric"
	"flock/internal/kvstore"
	"flock/internal/loadgen"
	"flock/internal/model"
	"flock/internal/rnic"
)

// reportRows turns figure rows into benchmark metrics keyed by
// series/x so `go test -bench` output documents the reproduced shape.
func reportRows(b *testing.B, rows []model.Row, headline func(model.Row) (float64, string)) {
	b.Helper()
	for _, r := range rows {
		v, unit := headline(r)
		b.ReportMetric(v, r.Series+"/x"+trimFloat(r.X)+"_"+unit)
	}
}

func trimFloat(f float64) string {
	s := ""
	n := int(f)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func mops(r model.Row) (float64, string) { return r.Mops, "Mops" }

// benchFigure runs a figure generator once per b.N loop (the models are
// deterministic, so N=1 is typical) and reports the headline series.
func benchFigure(b *testing.B, gen func(bool) []model.Row, headline func(model.Row) (float64, string), keep func(model.Row) bool) {
	var rows []model.Row
	for i := 0; i < b.N; i++ {
		rows = gen(true)
	}
	if keep != nil {
		var filtered []model.Row
		for _, r := range rows {
			if keep(r) {
				filtered = append(filtered, r)
			}
		}
		rows = filtered
	}
	reportRows(b, rows, headline)
}

// BenchmarkTable1 validates the capability matrix (Table 1); it is a
// semantic table, so the "benchmark" asserts rather than measures.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !rnic.RC.Supports(rnic.OpFetchAdd) || rnic.UD.Supports(rnic.OpRead) || rnic.UC.Supports(rnic.OpCmpSwap) {
			b.Fatal("capability matrix violated")
		}
	}
}

// BenchmarkFig2a reproduces the RC read QP sweep (NIC cache cliff).
func BenchmarkFig2a(b *testing.B) { benchFigure(b, model.Fig2a, mops, nil) }

// BenchmarkFig2b reproduces the UD sender sweep (CPU saturation).
func BenchmarkFig2b(b *testing.B) { benchFigure(b, model.Fig2b, mops, nil) }

// BenchmarkFig6 reproduces the FLock-vs-eRPC throughput sweep (the
// one-outstanding panel; flockbench prints all three).
func BenchmarkFig6(b *testing.B) {
	benchFigure(b, model.Fig6, mops, func(r model.Row) bool { return r.Figure == "fig6a" })
}

// BenchmarkFig7 reports the median-latency view of the same sweep.
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, model.Fig6,
		func(r model.Row) (float64, string) { return r.P50us, "p50us" },
		func(r model.Row) bool { return r.Figure == "fig6a" })
}

// BenchmarkFig8 reports the tail-latency view of the same sweep.
func BenchmarkFig8(b *testing.B) {
	benchFigure(b, model.Fig6,
		func(r model.Row) (float64, string) { return r.P99us, "p99us" },
		func(r model.Row) bool { return r.Figure == "fig6a" })
}

// BenchmarkFig9 reproduces the QP-sharing comparison (48-thread column).
func BenchmarkFig9(b *testing.B) {
	benchFigure(b, model.Fig9, mops, func(r model.Row) bool { return r.X == 48 })
}

// BenchmarkFig10 reproduces the coalescing on/off comparison.
func BenchmarkFig10(b *testing.B) { benchFigure(b, model.Fig10, mops, nil) }

// BenchmarkFig11 reproduces the thread-scheduling on/off comparison.
func BenchmarkFig11(b *testing.B) { benchFigure(b, model.Fig11, mops, nil) }

// BenchmarkFig12 reproduces the node-scalability sweep (368 clients).
func BenchmarkFig12(b *testing.B) {
	benchFigure(b, model.Fig12, mops, func(r model.Row) bool { return r.X == 368 })
}

// BenchmarkFig14 reproduces TATP: FLockTX vs FaSST (16-thread column).
func BenchmarkFig14(b *testing.B) {
	benchFigure(b, model.Fig14,
		func(r model.Row) (float64, string) { return r.Mops, "Mtps" },
		func(r model.Row) bool { return r.X == 16 })
}

// BenchmarkFig15 reproduces Smallbank: FLockTX vs FaSST (8 threads).
func BenchmarkFig15(b *testing.B) {
	benchFigure(b, model.Fig15,
		func(r model.Row) (float64, string) { return r.Mops, "Mtps" },
		func(r model.Row) bool { return r.X == 8 })
}

// BenchmarkFig16 reproduces the HydraList throughput sweep (8 outstanding,
// 32 threads).
func BenchmarkFig16(b *testing.B) {
	benchFigure(b, model.Fig16, mops,
		func(r model.Row) bool { return r.Figure == "fig16c" && r.X == 32 })
}

// BenchmarkFig17 reports HydraList per-class median latency.
func BenchmarkFig17(b *testing.B) {
	benchFigure(b, model.Fig16,
		func(r model.Row) (float64, string) { return r.P50us, "p50us" },
		func(r model.Row) bool { return r.Figure == "fig17c" && r.X == 32 })
}

// BenchmarkFig18 reports HydraList per-class tail latency.
func BenchmarkFig18(b *testing.B) {
	benchFigure(b, model.Fig16,
		func(r model.Row) (float64, string) { return r.P99us, "p99us" },
		func(r model.Row) bool { return r.Figure == "fig17c" && r.X == 32 })
}

// --- Live-library microbenchmarks -----------------------------------------

// liveCluster builds a real server+client pair for the live benches: the
// echo star the load tools measure on, with one client.
func liveCluster(b *testing.B, opts flock.Options) (*flock.Node, *flock.Conn, func()) {
	b.Helper()
	star, err := loadgen.NewStar(opts, opts, 1, 0, loadgen.Echo)
	if err != nil {
		b.Fatal(err)
	}
	return star.Server, star.Conns[0], star.Close
}

// BenchmarkLiveRPCEcho measures the live library's synchronous echo path.
func BenchmarkLiveRPCEcho(b *testing.B) {
	_, conn, closeNet := liveCluster(b, flock.Options{})
	defer closeNet()
	th := conn.RegisterThread()
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := th.Call(1, payload)
		if err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}

// BenchmarkLiveRPCEchoParallel runs 8 threads over 1 shared QP.
func BenchmarkLiveRPCEchoParallel(b *testing.B) {
	server, conn, closeNet := liveCluster(b, flock.Options{QPsPerConn: 1})
	defer closeNet()
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		th := conn.RegisterThread()
		mu.Unlock()
		payload := make([]byte, 64)
		for pb.Next() {
			r, err := th.Call(1, payload)
			if err != nil {
				b.Fatal(err)
			}
			r.Release()
		}
	})
	b.StopTimer()
	m := server.Metrics()
	if m.MsgsIn > 0 {
		b.ReportMetric(float64(m.ItemsIn)/float64(m.MsgsIn), "coalesce-degree")
	}
}

// BenchmarkLiveOneSidedRead measures the live fl_read path.
func BenchmarkLiveOneSidedRead(b *testing.B) {
	_, conn, closeNet := liveCluster(b, flock.Options{})
	defer closeNet()
	region, err := conn.AttachMemRegion(4096)
	if err != nil {
		b.Fatal(err)
	}
	th := conn.RegisterThread()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := th.Read(region, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveFetchAdd measures the live remote-atomic path.
func BenchmarkLiveFetchAdd(b *testing.B) {
	_, conn, closeNet := liveCluster(b, flock.Options{})
	defer closeNet()
	region, err := conn.AttachMemRegion(64)
	if err != nil {
		b.Fatal(err)
	}
	th := conn.RegisterThread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.FetchAdd(region, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCQVsSpinlock is the §1 claim on real goroutines: FLock
// synchronization vs a FaRM-style spinlock around one shared QP, both
// carrying 8 threads of 64-byte echo over the same software RNIC.
func BenchmarkTCQVsSpinlock(b *testing.B) {
	const threads = 8
	b.Run("flock-tcq", func(b *testing.B) {
		_, conn, closeNet := liveCluster(b, flock.Options{QPsPerConn: 1})
		defer closeNet()
		ths := make([]*flock.Thread, threads)
		for i := range ths {
			ths[i] = conn.RegisterThread()
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/threads + 1
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(th *flock.Thread) {
				defer wg.Done()
				payload := make([]byte, 64)
				for j := 0; j < per; j++ {
					r, err := th.Call(1, payload)
					if err != nil {
						b.Error(err)
						return
					}
					r.Release()
				}
			}(ths[i])
		}
		wg.Wait()
	})
	b.Run("spinlock", func(b *testing.B) {
		fab := fabric.New(fabric.Config{})
		sdev, err := rnic.NewDevice(fab, rnic.Config{Node: 0})
		if err != nil {
			b.Fatal(err)
		}
		defer sdev.Close()
		cdev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer cdev.Close()
		cfg := lockshare.Config{ThreadsPerQP: threads}
		srv := lockshare.NewServer(sdev, cfg)
		defer srv.Close()
		srv.RegisterHandler(1, func(req []byte) []byte { return req })
		cl := lockshare.NewClient(cdev, cfg, srv)
		ths := make([]*lockshare.Thread, threads)
		for i := range ths {
			th, err := cl.RegisterThread()
			if err != nil {
				b.Fatal(err)
			}
			ths[i] = th
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/threads + 1
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(th *lockshare.Thread) {
				defer wg.Done()
				payload := make([]byte, 64)
				for j := 0; j < per; j++ {
					if _, err := th.Call(1, payload); err != nil {
						b.Error(err)
						return
					}
				}
			}(ths[i])
		}
		wg.Wait()
	})
}

// --- Allocation benchmarks (pooled hot path) -------------------------------

// BenchmarkEchoAllocs measures steady-state allocations on the synchronous
// echo path with the response lease recycled after every call. Before the
// registered-memory pool this path cost 17 allocs/op (1372 B/op); the
// pooled path holds it in the low single digits — the alloc-gate test in
// alloc_test.go enforces the ceiling.
func BenchmarkEchoAllocs(b *testing.B) {
	_, conn, closeNet := liveCluster(b, flock.Options{})
	defer closeNet()
	th := conn.RegisterThread()
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := th.Call(1, payload)
		if err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}

// BenchmarkKVAllocs measures allocations on a put+get pair against a
// kvstore arena served over FLock RPC — the realistic "handler touches
// state" shape, as opposed to pure echo. Handlers run inline on the
// server dispatcher (Workers=0), so the get handler can reuse one scratch
// value buffer: the response staging copies it out synchronously before
// the dispatcher moves on.
func BenchmarkKVAllocs(b *testing.B) {
	const capacity, valSize = 256, 8
	server, conn, closeNet := liveCluster(b, flock.Options{})
	defer closeNet()
	arena, err := server.ExportMR("bench-kv", kvstore.ArenaSize(capacity, valSize))
	if err != nil {
		b.Fatal(err)
	}
	store, err := kvstore.New(arena, capacity, valSize)
	if err != nil {
		b.Fatal(err)
	}
	server.RegisterHandler(2, func(req []byte) []byte { // put: key u64 | val
		if store.Apply(binary.LittleEndian.Uint64(req[:8]), req[8:16]) != nil {
			return nil
		}
		return req[:1]
	})
	getScratch := make([]byte, valSize)
	server.RegisterHandler(3, func(req []byte) []byte { // get: key u64
		if _, err := store.Get(binary.LittleEndian.Uint64(req[:8]), getScratch); err != nil {
			return nil
		}
		return getScratch
	})
	th := conn.RegisterThread()
	req := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(req[:8], uint64(i)%capacity)
		binary.LittleEndian.PutUint64(req[8:], uint64(i)+1)
		r, err := th.Call(2, req)
		if err != nil {
			b.Fatal(err)
		}
		r.Release()
		if r, err = th.Call(3, req[:8]); err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}
