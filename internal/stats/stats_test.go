package stats

import (
	"math"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-seeded RNG looks stuck at zero")
	}
}

func TestUint64nRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformity(t *testing.T) {
	r := NewRNG(11)
	const buckets = 16
	const samples = 160000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	want := samples / buckets
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d count %d outside 10%% of %d", i, c, want)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Mean() != 0 || h.Median() != 0 || h.P99() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.String() != "hist{empty}" {
		t.Fatalf("unexpected String: %q", h.String())
	}
}

func TestHistSingleValue(t *testing.T) {
	h := NewHist()
	h.Record(1000)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	// Bucketed value must be within 3.2% relative error.
	med := h.Median()
	if float64(med) < 1000*0.968 || med > 1000 {
		t.Fatalf("median %d not within bucket error of 1000", med)
	}
}

func TestHistBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketOf(v)) must be <= v and within one sub-bucket.
	f := func(v uint64) bool {
		v &= (1 << 40) - 1 // stay in range
		idx := bucketOf(v)
		low := bucketLow(idx)
		if low > v {
			return false
		}
		// width of the bucket
		var width uint64 = 1
		if v >= histSub {
			exp := 63 - bits.LeadingZeros64(v)
			width = 1 << uint(exp-histSubBits)
		}
		return v-low < width
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistPercentilesAgainstSorted(t *testing.T) {
	r := NewRNG(99)
	h := NewHist()
	var vals []uint64
	for i := 0; i < 20000; i++ {
		v := r.Uint64n(1_000_000) + 1
		vals = append(vals, v)
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		rank := int(math.Ceil(p/100*float64(len(vals)))) - 1
		exact := vals[rank]
		got := h.Percentile(p)
		lo := float64(exact) * 0.90
		hi := float64(exact) * 1.05
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("p%.1f: hist %d vs exact %d (allowed [%.0f, %.0f])", p, got, exact, lo, hi)
		}
	}
}

func TestHistMerge(t *testing.T) {
	a, b := NewHist(), NewHist()
	r := NewRNG(5)
	whole := NewHist()
	for i := 0; i < 1000; i++ {
		v := r.Uint64n(10000)
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), whole.Count())
	}
	if a.Median() != whole.Median() || a.P99() != whole.P99() {
		t.Fatalf("merged percentiles differ: p50 %d vs %d, p99 %d vs %d",
			a.Median(), whole.Median(), a.P99(), whole.P99())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged min/max differ")
	}
}

func TestHistMergeNil(t *testing.T) {
	h := NewHist()
	h.Record(5)
	h.Merge(nil) // must not panic
	if h.Count() != 1 {
		t.Fatal("merge(nil) changed the histogram")
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Record(123)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.Record(7)
	if h.Min() != 7 {
		t.Fatal("min tracking broken after reset")
	}
}

func TestHistExtremeValues(t *testing.T) {
	h := NewHist()
	h.Record(0)
	h.Record(math.MaxUint64) // clamps to top bucket, must not panic
	if h.Count() != 2 {
		t.Fatal("records lost")
	}
	if h.Percentile(0) != 0 {
		t.Fatalf("p0 = %d", h.Percentile(0))
	}
	if h.Percentile(100) != math.MaxUint64 {
		t.Fatalf("p100 = %d", h.Percentile(100))
	}
}

func TestRunningMedian(t *testing.T) {
	m := NewRunningMedian(5)
	if m.Median() != 0 {
		t.Fatal("empty median should be 0")
	}
	for _, v := range []uint64{10, 20, 30} {
		m.Add(v)
	}
	if got := m.Median(); got != 20 {
		t.Fatalf("median of {10,20,30} = %d", got)
	}
	// Fill past the window: oldest values are evicted.
	for _, v := range []uint64{100, 100, 100, 100, 100} {
		m.Add(v)
	}
	if got := m.Median(); got != 100 {
		t.Fatalf("median after window overwrite = %d", got)
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatal("reset did not clear window")
	}
}

func TestRunningMedianWindowOne(t *testing.T) {
	m := NewRunningMedian(0) // clamped to 1
	m.Add(42)
	if m.Median() != 42 {
		t.Fatalf("median = %d", m.Median())
	}
	m.Add(7)
	if m.Median() != 7 {
		t.Fatalf("median after overwrite = %d", m.Median())
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(13)
	z := NewZipf(r, 0.99, 1000)
	const samples = 100000
	counts := make(map[uint64]int)
	for i := 0; i < samples; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be much more popular than rank 500.
	if counts[0] < 20*counts[500]+1 {
		t.Errorf("zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// Top 10% of keys should capture the majority of traffic at s=0.99.
	top := 0
	for k, c := range counts {
		if k < 100 {
			top += c
		}
	}
	if top < samples/2 {
		t.Errorf("top decile has only %d/%d accesses", top, samples)
	}
}

func TestZipfSEqualsOne(t *testing.T) {
	z := NewZipf(NewRNG(1), 1.0, 100) // must not panic / divide by zero
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestHotSet(t *testing.T) {
	r := NewRNG(21)
	hs := NewHotSet(r, 100000, 0.04, 0.90)
	if hs.HotKeys() != 4000 {
		t.Fatalf("hot keys = %d", hs.HotKeys())
	}
	const samples = 100000
	hot := 0
	for i := 0; i < samples; i++ {
		v := hs.Next()
		if v >= 100000 {
			t.Fatalf("out of range: %d", v)
		}
		if v < 4000 {
			hot++
		}
	}
	frac := float64(hot) / samples
	if frac < 0.87 || frac > 0.93 {
		t.Errorf("hot traffic fraction %.3f, want ~0.90", frac)
	}
}

func TestHotSetDegenerate(t *testing.T) {
	hs := NewHotSet(NewRNG(2), 1, 1.0, 1.0)
	for i := 0; i < 100; i++ {
		if hs.Next() != 0 {
			t.Fatal("single-key hot set must return 0")
		}
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Fatalf("mul64 max*max = (%d, %d)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul64 2^32*2^32 = (%d, %d)", hi, lo)
	}
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkHistRecord(b *testing.B) {
	h := NewHist()
	r := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(r.Uint64n(1_000_000))
	}
}

func BenchmarkZipf(b *testing.B) {
	z := NewZipf(NewRNG(1), 0.99, 1<<20)
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
