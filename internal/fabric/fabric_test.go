package fabric

import (
	"sync"
	"testing"
)

type fakeEndpoint struct{ id NodeID }

func (e *fakeEndpoint) Node() NodeID { return e.id }

func TestRegisterLookup(t *testing.T) {
	f := New(Config{})
	a := &fakeEndpoint{id: 1}
	if err := f.Register(a); err != nil {
		t.Fatal(err)
	}
	if got := f.Lookup(1); got != a {
		t.Fatalf("Lookup(1) = %v", got)
	}
	if got := f.Lookup(2); got != nil {
		t.Fatalf("Lookup(2) = %v, want nil", got)
	}
	if f.Nodes() != 1 {
		t.Fatalf("Nodes() = %d", f.Nodes())
	}
}

func TestRegisterDuplicate(t *testing.T) {
	f := New(Config{})
	if err := f.Register(&fakeEndpoint{id: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(&fakeEndpoint{id: 3}); err == nil {
		t.Fatal("duplicate registration did not error")
	}
}

func TestUnregister(t *testing.T) {
	f := New(Config{})
	f.Register(&fakeEndpoint{id: 4})
	f.Unregister(4)
	if f.Lookup(4) != nil {
		t.Fatal("endpoint still present after Unregister")
	}
	f.Unregister(99) // absent: no panic
}

func TestDefaultMTU(t *testing.T) {
	if got := New(Config{}).MTU(); got != DefaultMTU {
		t.Fatalf("MTU = %d, want %d", got, DefaultMTU)
	}
	if got := New(Config{MTU: 1024}).MTU(); got != 1024 {
		t.Fatalf("MTU = %d, want 1024", got)
	}
}

func TestChargeTXPacketization(t *testing.T) {
	f := New(Config{MTU: 1000})
	cases := []struct {
		bytes, pkts int
	}{
		{0, 1}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {5000, 5}, {5001, 6},
	}
	for _, c := range cases {
		if got := f.ChargeTX(1, 2, c.bytes); got != c.pkts {
			t.Errorf("ChargeTX(%d bytes) = %d pkts, want %d", c.bytes, got, c.pkts)
		}
	}
	ls := f.Link(1, 2)
	if ls.Bytes != 0+1+999+1000+1001+5000+5001 {
		t.Errorf("link bytes = %d", ls.Bytes)
	}
	if ls.Packets != 1+1+1+1+2+5+6 {
		t.Errorf("link packets = %d", ls.Packets)
	}
	// Reverse direction is a separate link.
	if rev := f.Link(2, 1); rev.Packets != 0 {
		t.Errorf("reverse link has traffic: %+v", rev)
	}
}

func TestDropUDDisabled(t *testing.T) {
	f := New(Config{UDLossProb: 0})
	for i := 0; i < 1000; i++ {
		if f.DropUD(1, 2) {
			t.Fatal("dropped with loss probability 0")
		}
	}
}

func TestDropUDRate(t *testing.T) {
	f := New(Config{UDLossProb: 0.1, Seed: 7})
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if f.DropUD(1, 2) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("drop rate %.3f, want ~0.10", frac)
	}
	if got := f.Link(1, 2).Dropped; got != uint64(drops) {
		t.Errorf("link dropped = %d, counted %d", got, drops)
	}
}

func TestDropUDDeterministic(t *testing.T) {
	a := New(Config{UDLossProb: 0.5, Seed: 42})
	b := New(Config{UDLossProb: 0.5, Seed: 42})
	for i := 0; i < 1000; i++ {
		if a.DropUD(1, 2) != b.DropUD(1, 2) {
			t.Fatalf("same-seed fabrics disagreed at packet %d", i)
		}
	}
}

func TestTotals(t *testing.T) {
	f := New(Config{MTU: 100})
	f.ChargeTX(1, 2, 250) // 3 pkts
	f.ChargeTX(2, 1, 50)  // 1 pkt
	f.ChargeTX(3, 2, 100) // 1 pkt
	tot := f.Totals()
	if tot.Packets != 5 || tot.Bytes != 400 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestConcurrentAccess(t *testing.T) {
	f := New(Config{UDLossProb: 0.01, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ep := &fakeEndpoint{id: NodeID(id)}
			f.Register(ep)
			for i := 0; i < 1000; i++ {
				f.ChargeTX(NodeID(id), NodeID((id+1)%8), 64)
				f.DropUD(NodeID(id), NodeID((id+1)%8))
				f.Lookup(NodeID(i % 8))
			}
		}(g)
	}
	wg.Wait()
	if f.Totals().Packets != 8000 {
		t.Errorf("total packets = %d, want 8000", f.Totals().Packets)
	}
}

// TestLockFreePaths covers what every work request asks of the fabric
// without its lock: wire charges summed by atomics, the armed flag that
// lets an unarmed fabric skip fault injection, and the promise that the
// skip draws nothing, so seeded fault runs replay.
func TestLockFreePaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"concurrent ChargeTX sums exactly", func(t *testing.T) {
			f := New(Config{MTU: 100})
			const goroutines, iters = 8, 2000
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range iters {
						// Half the goroutines race to create each link.
						f.ChargeTX(NodeID(g%2), NodeID(2+i%3), 150) // 2 packets
					}
				}()
			}
			wg.Wait()
			var sum LinkStats
			for src := NodeID(0); src < 2; src++ {
				for dst := NodeID(2); dst < 5; dst++ {
					ls := f.Link(src, dst)
					sum.Packets += ls.Packets
					sum.Bytes += ls.Bytes
				}
			}
			want := LinkStats{Packets: 2 * goroutines * iters, Bytes: 150 * goroutines * iters}
			if sum != want {
				t.Errorf("links sum to %+v, want %+v", sum, want)
			}
			if tot := f.Totals(); tot != want {
				t.Errorf("Totals = %+v, want %+v", tot, want)
			}
		}},
		{"armed follows every installer", func(t *testing.T) {
			f := New(Config{})
			steps := []struct {
				name  string
				apply func()
				armed bool
			}{
				{"fresh", func() {}, false},
				{"plan", func() { f.SetFaultPlan(&FaultPlan{RCLossProb: 0.1}) }, true},
				{"nil plan", func() { f.SetFaultPlan(nil) }, false},
				{"link down", func() { f.SetLinkDown(1, 2, true) }, true},
				{"link up", func() { f.SetLinkDown(1, 2, false) }, false},
				{"link fault", func() { f.AddLinkFault(LinkFault{Src: 1, Dst: 2}) }, true},
				{"clear link faults, plan kept", func() { f.ClearLinkFaults() }, true},
				{"nil plan again", func() { f.SetFaultPlan(nil) }, false},
				{"plan with links", func() { f.SetFaultPlan(&FaultPlan{Links: []LinkFault{{Src: AnyNode, Dst: AnyNode}}}) }, true},
				{"clear its links", func() { f.ClearLinkFaults() }, true},
				{"cleared", func() { f.SetFaultPlan(nil) }, false},
			}
			for _, s := range steps {
				s.apply()
				if got := f.armed.Load(); got != s.armed {
					t.Errorf("after %s: armed = %v, want %v", s.name, got, s.armed)
				}
			}
		}},
		{"unarmed FaultRC draws nothing", func(t *testing.T) {
			plan := &FaultPlan{Seed: 9, RCLossProb: 0.3, CorruptProb: 0.1, RCDelayProb: 0.2}
			used, fresh := New(Config{}), New(Config{})
			for range 1000 {
				if drop, delay := used.FaultRC(1, 2, 1); drop || delay != 0 {
					t.Fatal("unarmed fabric injected a fault")
				}
			}
			used.SetFaultPlan(plan)
			fresh.SetFaultPlan(plan)
			for i := range 1000 {
				d1, w1 := used.FaultRC(1, 2, 1)
				d2, w2 := fresh.FaultRC(1, 2, 1)
				if d1 != d2 || w1 != w2 {
					t.Fatalf("attempt %d: (%v, %v) after unarmed calls, (%v, %v) fresh", i, d1, w1, d2, w2)
				}
			}
			if used.FaultCounters() != fresh.FaultCounters() {
				t.Errorf("fault counters %+v, fresh %+v", used.FaultCounters(), fresh.FaultCounters())
			}
		}},
		{"unarmed UD paths touch nothing", func(t *testing.T) {
			f := New(Config{})
			payload := []byte{1, 2, 3}
			for range 100 {
				if f.DropUD(1, 2) {
					t.Fatal("unarmed fabric dropped a datagram")
				}
				if out, ok := f.MangleUD(1, 2, payload); ok || &out[0] != &payload[0] {
					t.Fatal("unarmed fabric corrupted a datagram")
				}
			}
			if ls, fc := f.Link(1, 2), f.FaultCounters(); ls != (LinkStats{}) || fc != (FaultStats{}) {
				t.Errorf("link %+v, faults %+v: want zeros", ls, fc)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// TestCut: only a link forced down, or a whole-link fault that never
// recovers once it has started, cuts two nodes apart — in either direction.
// A finite window, a flapping link and a one-QP fault do not.
func TestCut(t *testing.T) {
	f := New(Config{})
	if f.Cut(1, 2) {
		t.Fatal("a fresh fabric reports a cut")
	}
	f.SetLinkDown(2, 1, true)
	if !f.Cut(1, 2) || !f.Cut(2, 1) || f.Cut(1, 3) {
		t.Fatal("SetLinkDown(2, 1): want 1–2 cut both ways and 1–3 not")
	}
	f.SetLinkDown(2, 1, false)
	if f.Cut(1, 2) {
		t.Fatal("a healed link still reports a cut")
	}
	for _, lf := range []LinkFault{
		{Src: 1, Dst: 2, DownFor: 5},                     // finite window
		{Src: 1, Dst: 2, DownFor: 5, Repeat: true},       // flapping
		{Src: AnyNode, Dst: AnyNode, QPN: 7, DownFor: 0}, // one QP only
		{Src: 1, Dst: 2, DownAfter: 1 << 30, DownFor: 0}, // not started
	} {
		f.SetFaultPlan(&FaultPlan{Links: []LinkFault{lf}})
		for range 10 {
			f.FaultRC(1, 2, 7)
		}
		if f.Cut(1, 2) {
			t.Errorf("%+v reports a cut", lf)
		}
	}
	f.SetFaultPlan(&FaultPlan{Links: []LinkFault{{Src: AnyNode, Dst: 2, DownAfter: 3, DownFor: 0}}})
	for i := range 4 {
		if f.Cut(2, 1) {
			t.Fatalf("cut after %d of the 3 attempts the link carries", i)
		}
		f.FaultRC(1, 2, 7)
	}
	if !f.Cut(2, 1) {
		t.Fatal("a started permanent whole-link fault is not a cut")
	}
}
