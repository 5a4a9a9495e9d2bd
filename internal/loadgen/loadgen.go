// Package loadgen is the one closed-loop load driver behind cmd/flockbench
// and cmd/flockload: a population of workers, each looping the step its
// set-up function returned, measured over one window.
//
// The hand-rolled loops this package replaced had drifted into different
// experiments; the differences are resolved here, one way:
//
//   - Every run warms up for a quarter of its window (warmupDiv) before the
//     window opens. Nothing done during warm-up is counted, timed or in the
//     telemetry delta.
//   - A rate is operations completed inside the window divided by the
//     elapsed time actually measured, never by the nominal window.
//   - The measured path touches no shared cache line: a worker counts into
//     its own padded record and reads one flag that is written twice per run.
//   - Result.Telemetry is the Network.TelemetrySnapshot delta of the window,
//     not a snapshot of the run.
//   - A worker rides out only the errors it declared transient
//     (Worker.Tolerate), counted in Result.Failed. Any other error retires
//     it while the others keep running; retired workers are counted and the
//     first error kept, so a caller can say that a rate came from a shrunken
//     population instead of absorbing it.
//
// Begin/End expose the window for callers that act inside it (flockload
// -cluster fires a migration or a primary kill); Measure is the sleep-based
// wrapper everything else uses.
package loadgen

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/core"
	"flock/internal/stats"
	"flock/internal/telemetry"
)

// Step is one iteration of a worker's closed loop. It returns how many
// operations it completed, and the error that ended the iteration if one
// did (operations completed before the error still count).
type Step func() (done int, err error)

// Setup prepares worker w on the caller's goroutine, before any worker
// runs — register its thread, allocate its buffers — and returns its loop
// body.
type Setup func(w *Worker) Step

// warmupDiv is the one warm-up rule: a quarter of the window.
const warmupDiv = 4

// Worker is one goroutine's private state, padded so that neighbours never
// share a cache line.
type Worker struct {
	// Index is the worker's position in the population, 0..n-1.
	Index int

	run       *Run
	step      Step
	err       error       // the error that retired the worker, if one did
	ops       uint64      // operations completed inside the window
	failed    uint64      // tolerated errors inside the window
	hist      *stats.Hist // allocated by the first Observe
	transient []error
	retire    []func()
	_         [64]byte
}

// Tolerate declares the errors this worker's loop drives through (deadline
// expiry, pushback, a QP breaking under it) instead of retiring on.
func (w *Worker) Tolerate(errs ...error) { w.transient = append(w.transient, errs...) }

func (w *Worker) tolerates(err error) bool {
	for _, t := range w.transient {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// InWindow reports whether the measurement window is open.
func (w *Worker) InWindow() bool { return w.run.open.Load() }

// Observe records one operation's latency if the window is open. The
// histograms are per worker (stats.Hist is single-writer) and merged into
// Result.Lat by End.
func (w *Worker) Observe(d time.Duration) {
	if !w.InWindow() {
		return
	}
	if w.hist == nil {
		w.hist = stats.NewHist()
	}
	w.hist.Record(uint64(d.Nanoseconds()))
}

// OnRetire registers fn to run on the worker's goroutine when it leaves
// its loop, whether End stopped it or an error retired it. A pipelined
// worker cancels what it still has in flight here.
func (w *Worker) OnRetire(fn func()) { w.retire = append(w.retire, fn) }

// Run is a started population; End stops it.
type Run struct {
	nw      *core.Network
	workers []*Worker
	stop    chan struct{}
	wg      sync.WaitGroup
	open    atomic.Bool

	start time.Time
	base  telemetry.Snapshot
}

// Result is one measured window.
type Result struct {
	Ops     uint64        // operations completed inside the window
	Failed  uint64        // tolerated errors inside the window
	Elapsed time.Duration // measured, not nominal
	// Lat merges what the workers Observed; empty if none did.
	Lat *stats.Hist
	// Telemetry is the network's snapshot delta over the window; zero when
	// the run had no network.
	Telemetry telemetry.Snapshot
	// Retired counts workers that met an error they do not tolerate; Err is
	// the first such worker's.
	Retired int
	Err     error
}

// RetiredWarning is the line both tools print for a Result with Retired > 0
// (count, population, Err); ci.sh looks for it.
const RetiredWarning = "WARNING: %d of %d workers retired early: %v\n"

// Rate is operations per second of measured time.
func (r Result) Rate() float64 { return float64(r.Ops) / r.Elapsed.Seconds() }

// Begin sets up n workers, starts them, lets them warm up for
// window/warmupDiv and opens the window. nw supplies the telemetry delta and
// may be nil (a baseline that runs on bare devices has no registry).
func Begin(nw *core.Network, n int, window time.Duration, setup Setup) *Run {
	r := &Run{nw: nw, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		w := &Worker{Index: i, run: r}
		w.step = setup(w)
		r.workers = append(r.workers, w)
	}
	r.wg.Add(n)
	for _, w := range r.workers {
		go r.loop(w)
	}
	time.Sleep(window / warmupDiv)
	if nw != nil {
		r.base = nw.TelemetrySnapshot()
	}
	r.start = time.Now()
	r.open.Store(true)
	return r
}

// loop is the only closed loop: step until stopped or retired.
func (r *Run) loop(w *Worker) {
	defer r.wg.Done()
	defer func() {
		for _, fn := range w.retire {
			fn()
		}
	}()
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		done, err := w.step()
		tolerated := err != nil && w.tolerates(err)
		if r.open.Load() {
			w.ops += uint64(done)
			if tolerated {
				w.failed++
			}
		}
		if err != nil && !tolerated {
			w.err = err
			return
		}
	}
}

// End closes the window, then stops the workers and waits for them (and
// their retire hooks). What completes after the window closed is not
// counted.
func (r *Run) End() Result {
	r.open.Store(false)
	res := Result{Elapsed: time.Since(r.start), Lat: stats.NewHist()}
	if r.nw != nil {
		res.Telemetry = r.nw.TelemetrySnapshot().Delta(r.base)
	}
	close(r.stop)
	r.wg.Wait()
	for _, w := range r.workers {
		res.Ops += w.ops
		res.Failed += w.failed
		if w.hist != nil {
			res.Lat.Merge(w.hist)
		}
		if w.err != nil {
			if res.Retired++; res.Err == nil {
				res.Err = w.err
			}
		}
	}
	return res
}

// Measure is the plain run: warm up, hold the window open for its nominal
// length, stop.
func Measure(nw *core.Network, n int, window time.Duration, setup Setup) Result {
	r := Begin(nw, n, window, setup)
	time.Sleep(window)
	return r.End()
}
