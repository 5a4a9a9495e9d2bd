package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flock/internal/core"
	"flock/internal/mem"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64       // measured span, split into windows
	windows   int           // number of equal windows in that span
	warmup    time.Duration // unrecorded load before the first window
	trace     bool          // per-layer pass instead of the end-to-end one
	setupReps int           // at most this many set-ups are timed for setup_s (the last one is kept)
	setupTime time.Duration // and no new one is started after this long, past the fifth
}

// defaultConfig sizes a full run: 150 windows of 100 ms at the default
// length. See quietShare for what the windows are reduced to.
func defaultConfig(workload string, seed uint64, seconds float64, trace bool) runConfig {
	cfg := runConfig{
		workload: workload, seed: seed, seconds: seconds, windows: 150,
		// A one-QP set-up takes under a millisecond: it takes hundreds of
		// repetitions for its median to hold still.
		warmup: 2 * time.Second, trace: trace, setupReps: 400, setupTime: 1500 * time.Millisecond,
	}
	if trace {
		cfg.setupReps = 1 // the traced pass does not report setup_s
	}
	return cfg
}

// quietShare picks the windows a timing metric is read from. On the
// two-vCPU virtual machines this benchmark runs on, the same binary
// drifts by 10-20 % over seconds to minutes (the cost of parking and
// waking an OS thread moves with the host), and the median window drifts
// with it. Interference only ever slows a window down, so the quiet end
// of the window distribution is what the code costs: throughput is the
// 90th percentile over the windows, a latency or a CPU cost the 10th.
// Over ten runs that halves the spread the median window shows (see
// README.md). Allocation counts do not drift and stay medians.
const quietShare = 0.10

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. Problems lists every failed
// verification check; Correct is true only when it is empty.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Problems  []string               `json:"problems,omitempty"`
	OpErrors  map[string]int         `json:"op_errors,omitempty"`
	Windows   map[string][]float64   `json:"window_values,omitempty"`

	clockNS float64 // calibrated cost of one time.Now/Since pair
}

// Latency classes a caller records into. Workloads with one kind of op
// use classAll only; the others split into write-class and read-class.
const (
	classAll = iota
	classPut
	classGet
	numClasses
)

// winRec is what one load goroutine records during one window.
type winRec struct {
	lat          [numClasses]latHist
	attempted    uint64
	failed       uint64
	payloadBytes uint64 // application bytes sent plus received
}

func (r *winRec) ok(class int, d time.Duration, payloadBytes int) {
	r.attempted++
	r.lat[class].record(uint64(d))
	r.payloadBytes += uint64(payloadBytes)
}

func (r *winRec) fail() {
	r.attempted++
	r.failed++
}

// caller is one closed-loop load goroutine's view of the system. step
// completes (and records) at most one op and issues the next; drain waits
// out whatever is still in flight.
type caller interface {
	step(rec *winRec)
	drain(rec *winRec)
}

// problemLog collects failed verification checks from every goroutine,
// and what the ops that failed said, by message.
type problemLog struct {
	mu     sync.Mutex
	list   []string
	opErrs map[string]int
}

// opError notes why an op failed. A failed op is not a failed check: it
// is counted against ok_share and the run goes on.
func (p *problemLog) opError(err error) {
	p.mu.Lock()
	if p.opErrs == nil {
		p.opErrs = map[string]int{}
	}
	if len(p.opErrs) < 20 || p.opErrs[err.Error()] > 0 {
		p.opErrs[err.Error()]++
	}
	p.mu.Unlock()
}

func (p *problemLog) addf(format string, args ...any) {
	p.mu.Lock()
	if len(p.list) < 20 {
		p.list = append(p.list, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// rig is one workload's system under test, as built by its set-up.
type rig struct {
	nw      *core.Network
	client  *core.Node // the node whose TraceRing the traced pass switches on
	callers []caller
	// newProber builds the layer-ladder prober that takes the last
	// caller's place in the ladder phase.
	newProber func(clockNS float64) (*prober, error)
	// replLogPending reads the members' replication-log depth; nil on
	// workloads without a cluster.
	replLogPending func() int64
	// finish runs the end-of-run output checks after the load has
	// quiesced and before anything is closed.
	finish func(p *problemLog)
	// close tears the system down: everything above the network first.
	close func()
}

// Window indices in control.window: recs[0] is the warm-up sink, windows
// are 1..n, and winStop ends the run.
const (
	winWarm = 0
	winStop = -1
)

// control is how the controller steers the load goroutines. They read it
// after every op; nothing else is shared on the measured path.
type control struct {
	window atomic.Int32
	ladder atomic.Bool
}

// mark is the process state at a window boundary.
type mark struct {
	at     time.Time
	cpu    time.Duration // user+system CPU of the process
	allocs uint64
	bytes  uint64
	gcNS   uint64
	gcNum  uint32
}

func takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return mark{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcNS: ms.PauseTotalNs, gcNum: ms.NumGC,
	}
}

// phase is a run of consecutive windows measured the same way.
type phase struct {
	first, n int // windows first..first+n-1 (1-based, as in control.window)
}

func (p phase) last() int { return p.first + p.n - 1 }

// runWorkload performs one run and returns its result. An error means the
// run could not be carried out at all (unknown workload, set-up failed).
func runWorkload(cfg runConfig) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	problems := &problemLog{}
	clockNS := calibrateClock()

	// Set-up, timed. All but the last are torn down again.
	var setups []float64
	var r *rig
	for began := time.Now(); ; {
		// The same heap before every repetition, and the one a fresh
		// process has: nothing to reuse, every ring page faulted in.
		// After a plain GC the rings land on recycled or on scavenged
		// spans as the scavenger's timing has it, 3 ms or 15 ms apart.
		debug.FreeOSMemory()
		t0 := time.Now()
		built, err := w.setup(cfg.seed, problems)
		if err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); n >= cfg.setupReps || (n >= 5 && time.Since(began) > cfg.setupTime) {
			r = built
			break
		}
		built.close()
	}

	// Phases. The end-to-end run is one phase; the traced run spends 4/15
	// of its windows untraced (the reference), 5/15 traced under full
	// load, and the rest with the prober in the last caller's place.
	measure := phase{1, cfg.windows}
	var traced, ladder phase
	if cfg.trace {
		na := max(1, cfg.windows*4/15)
		nb := max(1, cfg.windows*5/15)
		measure = phase{1, na}
		traced = phase{na + 1, nb}
		ladder = phase{na + nb + 1, max(1, cfg.windows-na-nb)}
	}
	nWin := max(measure.last(), ladder.last())
	winLen := time.Duration(cfg.seconds / float64(cfg.windows) * float64(time.Second))

	var pr *prober
	if cfg.trace {
		var err error
		if pr, err = r.newProber(clockNS); err != nil {
			r.close()
			return nil, fmt.Errorf("prober for %s: %w", cfg.workload, err)
		}
	}

	// Load goroutines.
	ctl := &control{}
	recs := make([][]winRec, len(r.callers))
	var wg sync.WaitGroup
	for i, c := range r.callers {
		recs[i] = make([]winRec, nWin+1)
		var p *prober
		if i == len(r.callers)-1 {
			p = pr
		}
		wg.Add(1)
		go func(c caller, recs []winRec, p *prober) {
			defer wg.Done()
			loadLoop(ctl, c, recs, p)
		}(c, recs[i], p)
	}

	// The controller: sleeps to each boundary, marks it, flips the window.
	// It is the only goroutine of the benchmark that sleeps.
	time.Sleep(cfg.warmup)
	marks := make([]mark, nWin+2) // marks[w] opens window w, marks[w+1] closes it
	var layers *layerProbe
	for win := 1; win <= nWin; win++ {
		switch {
		case cfg.trace && win == traced.first:
			layers = startLayerProbe(r)
		case cfg.trace && win == ladder.first:
			layers.stop()
			ctl.ladder.Store(true)
		}
		marks[win] = takeMark()
		ctl.window.Store(int32(win))
		time.Sleep(time.Until(marks[win].at.Add(winLen)))
	}
	marks[nWin+1] = takeMark()
	ctl.window.Store(winStop)
	wg.Wait()

	// Output checks, then teardown, then the lease ledger.
	r.finish(problems)
	if pr != nil {
		pr.close()
	}
	r.close()
	outstanding := awaitLeaseDrain(3 * time.Second)
	if outstanding != 0 {
		problems.addf("%d pooled buffer leases outstanding after Network.Close", outstanding)
	}

	res := &result{Metrics: map[string]metricValue{}, Windows: map[string][]float64{}, clockNS: clockNS}
	for _, cr := range recs {
		for w := range cr {
			res.Attempted += cr[w].attempted
			res.Failed += cr[w].failed
		}
	}
	if pr != nil {
		res.Attempted += pr.attempted
		res.Failed += pr.failed
	}
	if res.Attempted == 0 {
		problems.addf("no operation was attempted")
	}

	ref := summarize(recs, marks, measure, w.splitClasses)
	if !cfg.trace {
		vals := ref.endToEnd()
		vals["ok_share"] = 1 - ratio(float64(res.Failed), float64(res.Attempted))
		vals["setup_s"] = median(setups)
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
		res.Windows["ops_per_s"] = ref.opsPerS
		res.Windows["lat_p50_us"] = ref.p50[classAll]
		res.Windows["lat_p99_us"] = ref.p99[classAll]
		res.Windows["cpu_us_per_op"] = ref.cpuPerOp
		res.Windows["setup_s"] = setups
	} else {
		tr := summarize(recs, marks, traced, w.splitClasses)
		vals := layers.metrics(tr)
		for k, v := range pr.metrics(ladder) {
			vals[k] = v
		}
		refOps := quantileOf(ref.opsPerS, 1-quietShare)
		vals["bench.clock_ns"] = clockNS
		vals["bench.trace_overhead_share"] = 1 - ratio(quantileOf(tr.opsPerS, 1-quietShare), refOps)
		vals["bench.window_spread"] = spread(ref.opsPerS)
		vals["bench.ref_ops_per_s"] = refOps
		vals["bench.ref_lat_p50_us"] = quantileOf(ref.p50[classAll], quietShare)
		// Tails: the median window, because no statistic of a tail is
		// steady enough here to carry a bound (see README.md).
		vals["bench.lat_p99_us"] = median(ref.p99[classAll])
		vals["bench.put_p99_us"] = median(ref.p99[classPut])
		vals["bench.get_p99_us"] = median(ref.p99[classGet])
		vals["bench.lat_p999_us"] = ref.whole.quantile(0.999) / 1e3
		vals["bench.samples"] = float64(ref.whole.n)
		vals["bench.fail_share"] = ratio(float64(res.Failed), float64(res.Attempted))
		first, end := marks[measure.first], marks[measure.last()+1]
		vals["bench.gc_pause_share"] = ratio(float64(end.gcNS-first.gcNS), float64(end.at.Sub(first.at)))
		vals["bench.gc_cycles"] = float64(end.gcNum - first.gcNum)
		vals["mem.outstanding_end"] = float64(outstanding)
		for _, d := range perLayerDefs {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
	}
	res.Problems, res.OpErrors = problems.list, problems.opErrs
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// loadLoop is one load goroutine. In the ladder phase the goroutine that
// holds the prober stops issuing load and climbs the ladder instead.
func loadLoop(ctl *control, c caller, recs []winRec, p *prober) {
	for {
		w := ctl.window.Load()
		if w == winStop {
			break
		}
		if p != nil && ctl.ladder.Load() {
			c.drain(&recs[winWarm])
			p.cycle(int(w))
			continue
		}
		c.step(&recs[w])
	}
	c.drain(&recs[winWarm])
}

// calibrateClock returns the cost in nanoseconds of one time.Now /
// time.Since pair, which every timed rung and op includes.
func calibrateClock() float64 {
	// What a timed region of zero length reads, as the median of batch
	// means: a batch that was descheduled half-way does not count.
	const batches, n = 31, 2000
	means := make([]float64, batches)
	for b := range means {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		means[b] = float64(sum) / n
	}
	return median(means)
}

// awaitLeaseDrain polls the default pool until no lease is outstanding or
// the timeout expires: device pipelines may still be flushing pooled work
// requests when Close returns.
func awaitLeaseDrain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		n := mem.Default.Outstanding()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// summary holds one phase's per-window values.
type summary struct {
	opsPerS     []float64
	p50, p99    [numClasses][]float64 // microseconds, per window
	cpuPerOp    []float64             // microseconds
	allocsPerOp []float64
	bytesPerOp  []float64
	whole       latHist // every sample of the phase
	ops         uint64
	puts, gets  uint64
	payload     uint64
}

// summarize merges the callers' records window by window. With
// splitClasses the all-ops histogram is the union of the put and get
// classes; otherwise there is one class and put/get read the same as all.
func summarize(recs [][]winRec, marks []mark, ph phase, splitClasses bool) *summary {
	s := &summary{}
	if ph.n == 0 {
		return s
	}
	for w := ph.first; w <= ph.last(); w++ {
		var lat [numClasses]latHist
		var payload uint64
		for _, cr := range recs {
			for c := range lat {
				lat[c].merge(&cr[w].lat[c])
			}
			payload += cr[w].payloadBytes
		}
		if splitClasses {
			lat[classAll].merge(&lat[classPut])
			lat[classAll].merge(&lat[classGet])
		} else {
			lat[classPut], lat[classGet] = lat[classAll], lat[classAll]
		}
		ops := float64(lat[classAll].n)
		dur := marks[w+1].at.Sub(marks[w].at)
		s.opsPerS = append(s.opsPerS, ops/dur.Seconds())
		for c := range lat {
			s.p50[c] = append(s.p50[c], lat[c].quantile(0.50)/1e3)
			s.p99[c] = append(s.p99[c], lat[c].quantile(0.99)/1e3)
		}
		s.cpuPerOp = append(s.cpuPerOp, ratio(float64(marks[w+1].cpu-marks[w].cpu)/1e3, ops))
		s.allocsPerOp = append(s.allocsPerOp, ratio(float64(marks[w+1].allocs-marks[w].allocs), ops))
		s.bytesPerOp = append(s.bytesPerOp, ratio(float64(marks[w+1].bytes-marks[w].bytes), ops))
		s.whole.merge(&lat[classAll])
		s.ops += lat[classAll].n
		s.puts += lat[classPut].n
		s.gets += lat[classGet].n
		s.payload += payload
	}
	return s
}

// endToEnd reduces the windows to the reported values: timings from the
// quiet end of the window distribution, allocation counts as medians.
func (s *summary) endToEnd() map[string]float64 {
	return map[string]float64{
		"ops_per_s":          quantileOf(s.opsPerS, 1-quietShare),
		"lat_p50_us":         quantileOf(s.p50[classAll], quietShare),
		"put_p50_us":         quantileOf(s.p50[classPut], quietShare),
		"get_p50_us":         quantileOf(s.p50[classGet], quietShare),
		"cpu_us_per_op":      quantileOf(s.cpuPerOp, quietShare),
		"allocs_per_op":      median(s.allocsPerOp),
		"alloc_bytes_per_op": median(s.bytesPerOp),
	}
}

// ratio is num/den, and 0 when there is nothing to divide by: a layer
// that did no work in a run reads 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantileOf is the q-quantile of vs, interpolated between neighbours; 0
// when empty. vs is not modified.
func quantileOf(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantileOf(vs, 0.5) }

// spread is (max-min)/median of vs.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return ratio(hi-lo, median(vs))
}
