package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Hist is a log-linear latency histogram in nanoseconds, in the spirit of
// HdrHistogram: values are bucketed with bounded relative error (~3.2%,
// 32 sub-buckets per power of two), supporting values up to ~1.1 hours.
// It answers percentile queries without retaining samples.
//
// Hist is not safe for concurrent use; aggregate per-thread histograms
// with Merge.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSubBits = 5 // 32 linear sub-buckets per octave
	histSub     = 1 << histSubBits
	histOctaves = 42 - histSubBits // values up to 2^42 ns (~73 min)
	histBuckets = (histOctaves + 1) * histSub
)

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{min: math.MaxUint64}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	// Position of the leading bit determines the octave.
	exp := 63 - bits.LeadingZeros64(v)
	shift := uint(exp - histSubBits)
	sub := (v >> shift) & (histSub - 1)
	idx := (exp-histSubBits+1)*histSub + int(sub)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketLow returns the lowest value mapping to bucket idx (the inverse of
// bucketOf, up to bucket granularity).
func bucketLow(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	octave := idx/histSub - 1 + histSubBits
	sub := uint64(idx % histSub)
	return (1 << uint(octave)) + sub<<uint(octave-histSubBits)
}

// Record adds one observation of v nanoseconds.
func (h *Hist) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Hist) Min() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Hist) Max() uint64 { return h.max }

// Percentile returns the value at percentile p in [0,100]. The answer is
// the lower bound of the bucket containing the p-th observation, so it is
// within the histogram's relative error of the true order statistic.
func (h *Hist) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Median is shorthand for Percentile(50).
func (h *Hist) Median() uint64 { return h.Percentile(50) }

// P99 is shorthand for Percentile(99).
func (h *Hist) P99() uint64 { return h.Percentile(99) }

// Merge adds all of o's observations into h.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset returns the histogram to its empty state.
func (h *Hist) Reset() {
	*h = Hist{min: math.MaxUint64}
}

// String summarizes the distribution for logs and harness output.
func (h *Hist) String() string {
	if h.n == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d mean=%.0fns p50=%dns p99=%dns max=%dns}",
		h.n, h.Mean(), h.Median(), h.P99(), h.max)
}

// RunningMedian tracks an approximate running median over a bounded window
// using a ring of recent samples. The sender-side thread scheduler (§5.2)
// keeps one per thread for "median request size since last scheduling".
type RunningMedian struct {
	window  []uint64
	next    int
	filled  bool
	scratch []uint64
}

// NewRunningMedian returns a tracker over a window of size n (n >= 1).
func NewRunningMedian(n int) *RunningMedian {
	if n < 1 {
		n = 1
	}
	return &RunningMedian{window: make([]uint64, n), scratch: make([]uint64, n)}
}

// Add records one sample.
func (m *RunningMedian) Add(v uint64) {
	m.window[m.next] = v
	m.next++
	if m.next == len(m.window) {
		m.next = 0
		m.filled = true
	}
}

// Len reports how many samples are currently in the window.
func (m *RunningMedian) Len() int {
	if m.filled {
		return len(m.window)
	}
	return m.next
}

// Median returns the median of the samples in the window, or 0 if empty.
func (m *RunningMedian) Median() uint64 {
	n := m.Len()
	if n == 0 {
		return 0
	}
	s := m.scratch[:n]
	copy(s, m.window[:n])
	slices.Sort(s)
	return s[n/2]
}

// Reset empties the window.
func (m *RunningMedian) Reset() {
	m.next = 0
	m.filled = false
}
