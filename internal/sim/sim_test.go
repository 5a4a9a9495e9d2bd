package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := New()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Drain()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	e.At(100, func() {
		e.At(50, func() { // in the past: runs "now"
			if e.Now() != 100 {
				t.Errorf("past event ran at %d", e.Now())
			}
		})
	})
	e.Drain()
}

func TestRunUntil(t *testing.T) {
	e := New()
	ran := 0
	for _, at := range []Time{10, 20, 30, 40} {
		e.At(at, func() { ran++ })
	}
	e.RunUntil(25)
	if ran != 2 {
		t.Fatalf("ran %d events by t=25", ran)
	}
	if e.Now() != 25 {
		t.Fatalf("now = %d", e.Now())
	}
	e.Drain()
	if ran != 4 {
		t.Fatalf("ran %d events total", ran)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	var completions []Time
	for i := 0; i < 3; i++ {
		r.Use(10, func() { completions = append(completions, e.Now()) })
	}
	e.Drain()
	// FCFS on one unit: completions at 10, 20, 30.
	want := []Time{10, 20, 30}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("completions = %v", completions)
		}
	}
	if r.Served() != 3 || r.BusyTime() != 30 {
		t.Fatalf("served=%d busy=%d", r.Served(), r.BusyTime())
	}
}

func TestResourceParallelUnits(t *testing.T) {
	e := New()
	r := NewResource(e, 2)
	var completions []Time
	for i := 0; i < 4; i++ {
		r.Use(10, func() { completions = append(completions, e.Now()) })
	}
	e.Drain()
	// Two units: (10,10), then (20,20).
	if completions[0] != 10 || completions[1] != 10 || completions[2] != 20 || completions[3] != 20 {
		t.Fatalf("completions = %v", completions)
	}
}

func TestResourceFCFS(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	var order []int
	// Long job first, then short ones; FCFS means no overtaking.
	r.Use(100, func() { order = append(order, 0) })
	r.Use(1, func() { order = append(order, 1) })
	r.Use(1, func() { order = append(order, 2) })
	e.Drain()
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceArrivalDuringService(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	var at []Time
	r.Use(10, func() { at = append(at, e.Now()) })
	e.At(5, func() {
		r.Use(10, func() { at = append(at, e.Now()) })
	})
	e.Drain()
	// Second arrives at 5, waits until 10, completes at 20.
	if at[0] != 10 || at[1] != 20 {
		t.Fatalf("completions = %v", at)
	}
}

func TestResourceUtilizationProperty(t *testing.T) {
	// Total busy time equals the sum of service durations regardless of
	// arrival pattern and unit count.
	f := func(units uint8, durs []uint16) bool {
		e := New()
		r := NewResource(e, int(units)%4+1)
		var want Time
		for i, d := range durs {
			if len(durs) > 50 && i >= 50 {
				break
			}
			dur := Time(d)%100 + 1
			want += dur
			e.At(Time(i), func() { r.Use(dur, nil) })
		}
		e.Drain()
		return r.BusyTime() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueLen(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	r.Use(100, nil)
	r.Use(100, nil)
	r.Use(100, nil)
	if r.QueueLen() != 2 {
		t.Fatalf("queue = %d", r.QueueLen())
	}
	e.Drain()
	if r.QueueLen() != 0 {
		t.Fatalf("queue = %d after drain", r.QueueLen())
	}
}

func TestMMQueueMatchesTheory(t *testing.T) {
	// Sanity: a D/D/1 queue at 50% utilization has no waiting; at 200%
	// it grows unboundedly. Check service counts over a window.
	e := New()
	r := NewResource(e, 1)
	// Arrivals every 20ns, service 10ns → all served promptly.
	n := 0
	var tick func()
	tick = func() {
		if e.Now() >= 10000 {
			return
		}
		r.Use(10, func() { n++ })
		e.After(20, tick)
	}
	e.At(0, tick)
	e.Drain()
	if n < 490 || n > 510 {
		t.Fatalf("served %d in 10µs at λ=50/µs", n)
	}
}

// FIFO among equal timestamps must hold while the heap grows through many
// reallocations and while events at other times are pushed and popped in
// between: (at, seq) is the order every model figure's determinism rests on.
func TestFIFOAmongEqualTimesAcrossGrowth(t *testing.T) {
	e := New()
	const perTime = 700 // several doublings of the heap's backing array
	times := []Time{50, 10, 30}
	got := map[Time][]int{}
	for i := 0; i < perTime; i++ {
		for _, at := range times {
			at, i := at, i
			e.At(at, func() {
				got[at] = append(got[at], i)
				if i%3 == 0 {
					// Scheduling "now" from inside an event queues behind
					// everything already due at this timestamp.
					e.At(at, func() { got[at] = append(got[at], perTime+i) })
				}
			})
		}
	}
	var clock []Time
	for e.Step() {
		clock = append(clock, e.Now())
	}
	for i := 1; i < len(clock); i++ {
		if clock[i] < clock[i-1] {
			t.Fatalf("clock ran backwards at event %d: %d after %d", i, clock[i], clock[i-1])
		}
	}
	for _, at := range times {
		seq := got[at]
		if len(seq) != perTime+(perTime+2)/3 {
			t.Fatalf("t=%d ran %d events, want %d", at, len(seq), perTime+(perTime+2)/3)
		}
		for i := 0; i < perTime; i++ {
			if seq[i] != i {
				t.Fatalf("t=%d: position %d ran event %d; equal timestamps must run in scheduling order", at, i, seq[i])
			}
		}
		for i := perTime + 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				t.Fatalf("t=%d: nested events out of order: %d then %d", at, seq[i-1], seq[i])
			}
		}
	}
}

// A Resource's waiters leave in arrival order while arrivals and
// completions interleave, so the queue's head walks round its storage many
// times at a small, changing occupancy and grows in the middle of a lap.
func TestResourceQueueWrapAround(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	var order []int
	next := 0
	use := func() {
		id := next
		next++
		r.Use(10, func() { order = append(order, id) })
	}
	// Three up front, then for a while two arrivals per completion (the
	// queue grows while its head is mid-storage), then one per completion,
	// then none.
	for i := 0; i < 3; i++ {
		use()
	}
	for i := 0; i < 40; i++ {
		i := i
		e.At(Time(10*i+5), func() {
			use()
			if i < 12 {
				use()
			}
		})
	}
	e.At(200, func() {
		if r.QueueLen() < 8 {
			t.Errorf("queue holds %d waiters at t=200; the test wants it to have grown past its first allocation", r.QueueLen())
		}
	})
	e.Drain()
	if len(order) != next || r.QueueLen() != 0 || r.Served() != uint64(next) {
		t.Fatalf("completed %d of %d, %d still queued, %d served", len(order), next, r.QueueLen(), r.Served())
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("completion %d was request %d; FCFS broken", i, id)
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	e := New()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			e.After(10, pump)
		}
	}
	e.At(0, pump)
	b.ResetTimer()
	e.Drain()
}
