package loadgen

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/core"
	"flock/internal/mem"
)

// TestWindowExcludesWarmup: operations finished before the window opens are
// in neither Result.Ops nor the telemetry delta. The worker performs one
// echo per token, so the test decides exactly how many operations fall on
// each side of the boundary.
func TestWindowExcludesWarmup(t *testing.T) {
	const before, inside = 5, 7
	star, err := NewStar(core.Options{}, core.Options{}, 1, 0, Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()

	tokens := make(chan struct{}, before+inside)
	acks := make(chan struct{}, before+inside)
	for i := 0; i < before; i++ {
		tokens <- struct{}{}
	}
	run := Begin(star.Net, 1, 400*time.Millisecond, func(*Worker) Step {
		th := star.Conns[0].RegisterThread()
		return func() (int, error) {
			if _, ok := <-tokens; !ok {
				return 0, nil
			}
			r, err := th.Call(1, []byte("x"))
			if err != nil {
				return 0, err
			}
			r.Release()
			acks <- struct{}{}
			return 1, nil
		}
	})
	if len(acks) != before {
		t.Fatalf("%d of %d warm-up operations finished inside a 100ms warm-up", len(acks), before)
	}
	for i := 0; i < inside; i++ {
		tokens <- struct{}{}
	}
	for i := 0; i < before+inside; i++ {
		<-acks
	}
	close(tokens)
	res := run.End()

	if res.Ops != inside {
		t.Errorf("Ops = %d, want the %d operations done inside the window", res.Ops, inside)
	}
	if got := res.Telemetry.Counters["node1.core.items_out"]; got != inside {
		t.Errorf("telemetry delta items_out = %d, want %d", got, inside)
	}
	if got := star.Clients[0].Metrics().ItemsOut; got != before+inside {
		t.Errorf("whole-run items_out = %d, want %d", got, before+inside)
	}
	if res.Retired != 0 || res.Err != nil {
		t.Errorf("retired %d workers: %v", res.Retired, res.Err)
	}
}

// TestElapsedIsMeasured: a window held open longer than its nominal length
// reports the time it was actually open, and the rate divides by that.
func TestElapsedIsMeasured(t *testing.T) {
	const nominal, held = 20 * time.Millisecond, 90 * time.Millisecond
	run := Begin(nil, 2, nominal, func(*Worker) Step {
		return func() (int, error) {
			time.Sleep(time.Millisecond)
			return 1, nil
		}
	})
	time.Sleep(held)
	res := run.End()
	if res.Elapsed < held {
		t.Fatalf("Elapsed = %v for a window held open %v (nominal %v)", res.Elapsed, held, nominal)
	}
	if res.Ops == 0 {
		t.Fatal("no operations counted")
	}
	if want := float64(res.Ops) / res.Elapsed.Seconds(); res.Rate() != want {
		t.Fatalf("Rate = %v, want ops/elapsed = %v", res.Rate(), want)
	}
}

// TestErrorsRetireOrAreRiddenOut: an error a worker does not tolerate
// retires it — counted, reported, the others unaffected — and a tolerated
// one is counted in Failed while the worker keeps driving.
func TestErrorsRetireOrAreRiddenOut(t *testing.T) {
	errFatal, errTransient := errors.New("fatal"), errors.New("transient")
	steps := make([]int, 3) // step calls per worker; read after End
	res := Measure(nil, 3, 40*time.Millisecond, func(w *Worker) Step {
		w.Tolerate(errTransient)
		return func() (int, error) {
			steps[w.Index]++
			time.Sleep(100 * time.Microsecond)
			switch {
			case w.Index == 0:
				return 0, errFatal
			case w.Index == 1 && steps[1]%2 == 0:
				return 0, errTransient
			}
			return 1, nil
		}
	})
	if res.Retired != 1 || !errors.Is(res.Err, errFatal) {
		t.Fatalf("Retired = %d, Err = %v; want 1 worker retired on %v", res.Retired, res.Err, errFatal)
	}
	if steps[0] != 1 {
		t.Errorf("the retired worker stepped %d times", steps[0])
	}
	if res.Ops == 0 || res.Failed == 0 {
		t.Errorf("Ops = %d, Failed = %d: the surviving workers should have produced both", res.Ops, res.Failed)
	}
	if steps[1] < 4 {
		t.Errorf("the tolerant worker stepped only %d times", steps[1])
	}
}

// holdUntil keeps run's window open until done() holds, so that a test's
// outcome does not hang on how long first-touch connection set-up takes on
// a busy box.
func holdUntil(t *testing.T, run *Run, done func() bool) Result {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			run.End()
			t.Fatal("no progress in 20s")
		}
	}
	return run.End()
}

// TestPipelinedWorkerLeavesNoLease: retire hooks run when End stops a
// worker, and a pipelined worker — stopped with calls in flight on a slow
// server — leaves the pool ledger at zero once the network is closed.
func TestPipelinedWorkerLeavesNoLease(t *testing.T) {
	slow := func(req []byte) []byte {
		time.Sleep(time.Millisecond)
		return req
	}
	star, err := NewStar(core.Options{Workers: 4}, core.Options{}, 1, 0, slow)
	if err != nil {
		t.Fatal(err)
	}
	hooked := make([]bool, 2)
	var progress atomic.Uint64
	run := Begin(star.Net, len(hooked), 40*time.Millisecond, func(w *Worker) Step {
		step := Pipelined(w, star.Conns[0].RegisterThread(), make([]byte, 64), 8, core.CallOptions{})
		w.OnRetire(func() { hooked[w.Index] = true })
		return func() (int, error) {
			n, err := step()
			if w.InWindow() {
				progress.Add(uint64(n))
			}
			return n, err
		}
	})
	res := holdUntil(t, run, func() bool { return progress.Load() >= 100 })
	star.Close()
	if res.Ops < 90 || res.Retired != 0 {
		t.Fatalf("Ops = %d, Retired = %d (%v)", res.Ops, res.Retired, res.Err)
	}
	// A call that completes as the window opens or closes may be on one side
	// for the histogram and on the other for the count.
	if d := int64(res.Lat.Count()) - int64(res.Ops); d < -2 || d > 2 {
		t.Errorf("latency samples = %d, Ops = %d", res.Lat.Count(), res.Ops)
	}
	for i, ran := range hooked {
		if !ran {
			t.Errorf("worker %d: retire hook did not run", i)
		}
	}
	if n := mem.Default.Outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers outstanding after Close", n)
	}
}

// TestKVCloseStopsReplicationForwarders: a service's replication forwarders
// are its own goroutines, parked on their queues, and Network.Close does
// not reach them. After a replicated run, KV.Close must return the process
// to the goroutine count it started from.
func TestKVCloseStopsReplicationForwarders(t *testing.T) {
	before := runtime.NumGoroutine()
	opts := core.Options{Workers: 8, QPsPerConn: 1} // nine lazily dialed handles: keep their rings few
	kv, err := NewKV(3, 4, 2, opts, opts)
	if err != nil {
		t.Fatal(err)
	}
	var progress atomic.Uint64
	run := Begin(kv.Net, 8, 40*time.Millisecond, func(w *Worker) Step {
		rt := kv.Router.Thread()
		key, val := uint64(w.Index), uint64(0)
		return func() (int, error) {
			val++
			if err := rt.Put(key, val); err != nil {
				return 0, err
			}
			if w.InWindow() {
				progress.Add(1)
			}
			return 1, nil
		}
	})
	res := holdUntil(t, run, func() bool { return progress.Load() >= 100 })
	if res.Ops < 90 || res.Retired != 0 {
		t.Fatalf("Ops = %d, Retired = %d (%v)", res.Ops, res.Retired, res.Err)
	}
	var forwards uint64
	for i := range kv.Members {
		forwards += res.Telemetry.Counters[fmt.Sprintf("node%d.cluster.replica_forwards", i)]
	}
	if forwards == 0 {
		t.Fatal("no replication forward in the window: the run started no forwarder to leak")
	}
	kv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the run:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
