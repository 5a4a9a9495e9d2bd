package main

import "math/bits"

// latHist is a log-linear latency histogram in nanoseconds: 64 linear
// sub-buckets per power of two (1.6 % wide) and quantiles interpolated
// inside the bucket. internal/stats.Hist answers with the lower edge of a
// 3.2 % bucket, which is a third of the 10 % regression bound on its own
// and makes two runs read exactly alike; the benchmark needs a continuous
// estimate, so it keeps its own counts. Recording is one shift, one add,
// no allocation. Not safe for concurrent use: one per load goroutine per
// window, merged when the run ends.
type latHist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 36 // values at or above 2^36 ns (~69 s) share the top bucket
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histBucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	return (exp-histSubBits+1)*histSub + int((v>>uint(exp-histSubBits))&(histSub-1))
}

// histBucketSpan returns the lowest value of bucket idx and its width.
func histBucketSpan(idx int) (low, width uint64) {
	if idx < histSub {
		return uint64(idx), 1
	}
	shift := uint(idx/histSub - 1)
	return (histSub + uint64(idx%histSub)) << shift, 1 << shift
}

func (h *latHist) record(ns uint64) {
	h.counts[histBucketOf(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds, linearly
// interpolated inside the bucket that holds it; 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			low, width := histBucketSpan(i)
			return float64(low) + float64(width)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	low, width := histBucketSpan(histBuckets - 1)
	return float64(low + width)
}
