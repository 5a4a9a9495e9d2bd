package rnic

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
)

// TestPostSendNeverBlocks posts a WR that has to wait — for a receive
// buffer, an injected delay, a link that is down — and checks the three
// things the run-to-completion doorbell promises: PostSend returns at once,
// a sibling QP on the same device keeps flowing while the first is stalled,
// and the stalled WR still completes with the status a blocking wait gave.
func TestPostSendNeverBlocks(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		op   Opcode
		// stall makes qa's next WR wait for at least 10 ms (in practice far
		// longer: every pause is a timer); it returns what lifts the faults
		// it installed, run before the sibling posts.
		stall func(fab *fabric.Fabric, qa *QP) (lift func())
		want  Status
	}{
		{
			// The default 1000 retries 10 µs apart, never a buffer.
			name:  "no receive posted",
			op:    OpSend,
			stall: func(*fabric.Fabric, *QP) func() { return func() {} },
			want:  StatusRNRExceeded,
		},
		{
			name: "RC delay",
			op:   OpWrite,
			stall: func(fab *fabric.Fabric, _ *QP) func() {
				fab.SetFaultPlan(&fabric.FaultPlan{RCDelayProb: 1, RCDelay: 50 * time.Millisecond})
				return func() { fab.SetFaultPlan(nil) }
			},
			want: StatusOK,
		},
		{
			// The link drops qa's first 200 attempts, then carries: 198
			// backoffs of up to 64 µs, inside a budget of 1000.
			name: "link-down window",
			cfg:  Config{RCRetries: 1000},
			op:   OpWrite,
			stall: func(fab *fabric.Fabric, qa *QP) func() {
				fab.SetFaultPlan(&fabric.FaultPlan{
					Links: []fabric.LinkFault{{Src: 1, Dst: 2, QPN: qa.QPN(), DownFor: 200}},
				})
				return func() {}
			},
			want: StatusOK,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d1, d2 := testPair(t, fabric.Config{}, tc.cfg, Config{})
			qa, _, err := ConnectPair(d1, d2, RC)
			if err != nil {
				t.Fatal(err)
			}
			sibling, _, err := ConnectPair(d1, d2, RC)
			if err != nil {
				t.Fatal(err)
			}
			remote, _ := d2.RegisterMR(64, PermRemoteWrite)
			lift := tc.stall(d1.Fabric(), qa)

			start := time.Now()
			err = qa.PostSend(SendWR{WRID: 1, Op: tc.op, Inline: []byte("stalled"), RKey: remote.RKey(), Signaled: true})
			if took := time.Since(start); err != nil || took > 5*time.Millisecond {
				t.Fatalf("PostSend of a WR that must wait: err=%v after %v", err, took)
			}
			lift()

			// Later posts queue behind the stalled head without blocking either.
			start = time.Now()
			err = qa.PostSend(SendWR{WRID: 2, Op: OpWrite, Inline: []byte("behind"), RKey: remote.RKey(), RemoteOff: 8})
			if took := time.Since(start); err != nil || took > 5*time.Millisecond {
				t.Fatalf("PostSend behind a stalled head: err=%v after %v", err, took)
			}

			err = sibling.PostSend(SendWR{WRID: 3, Op: OpWrite, Inline: []byte("sibling"), RKey: remote.RKey(), RemoteOff: 32, Signaled: true})
			if err != nil {
				t.Fatal(err)
			}
			if c := pollOne(t, sibling.SendCQ()); c.WRID != 3 || c.Status != StatusOK {
				t.Fatalf("sibling write: %+v", c)
			}
			if n := qa.SendCQ().Len(); n != 0 {
				t.Fatalf("sibling finished after the stalled QP (%d completions): the stall was device-wide or too short", n)
			}

			// Sleep between polls: a re-ring is a timer, and timers armed on a
			// CPU that spins without yielding fire a millisecond late.
			if c, ok := pollDeadline(t, qa.SendCQ(), 10*time.Second); !ok || c.WRID != 1 || c.Status != tc.want {
				t.Fatalf("stalled WR: ok=%v %+v, want status %v", ok, c, tc.want)
			}
			d1.Quiesce()
			st := d1.Stats()
			if st.DeferredRings == 0 {
				t.Fatal("the WR waited without a deferred re-ring")
			}
			// (A failed head flushes what queued behind it without executing it.)
			if tc.want == StatusOK && st.Processed != st.WorkRequests {
				t.Fatalf("processed %d of %d WRs", st.Processed, st.WorkRequests)
			}
		})
	}
}

// TestDoorbellStress has G goroutines post to Q shared QPs while pollers
// drain the send CQs. Posts to one QP are serialized by a lock that also
// numbers them, as a combining leader would; whoever holds the unit role,
// each QP must complete in post order and every WR must be executed.
func TestDoorbellStress(t *testing.T) {
	const (
		G    = 4
		Q    = 3
		N    = 300
		deep = 4 * drainBudget // one post that outlasts a ringer's stint
	)
	perQP := G * (N + deep)
	d1, d2 := testPair(t, fabric.Config{}, Config{cqDepth: perQP}, Config{})
	remote, _ := d2.RegisterMR(4096, PermRemoteWrite)

	type lane struct {
		mu   sync.Mutex
		next uint64
		qp   *QP
	}
	lanes := make([]*lane, Q)
	for i := range lanes {
		qp, _, err := ConnectPair(d1, d2, RC)
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = &lane{qp: qp}
	}
	post := func(l *lane, n int) error {
		wrs := make([]SendWR, n)
		l.mu.Lock()
		defer l.mu.Unlock()
		for i := range wrs {
			wrs[i] = SendWR{WRID: l.next, Op: OpWrite, Inline: []byte{byte(l.next)}, RKey: remote.RKey(), RemoteOff: int(l.next % 4096), Signaled: true}
			l.next++
		}
		return l.qp.PostSend(wrs...)
	}

	var pollers sync.WaitGroup
	for _, l := range lanes {
		pollers.Add(1)
		go func(l *lane) {
			defer pollers.Done()
			var buf [32]Completion
			deadline := time.Now().Add(20 * time.Second)
			for want := uint64(0); want < uint64(perQP); {
				k := l.qp.SendCQ().Poll(buf[:])
				if k == 0 && time.Now().After(deadline) {
					t.Errorf("QP %d: %d of %d completions", l.qp.QPN(), want, perQP)
					return
				}
				for _, c := range buf[:k] {
					if c.WRID != want || c.Status != StatusOK {
						t.Errorf("QP %d: completion %+v, want WRID %d ok", l.qp.QPN(), c, want)
						return
					}
					want++
				}
			}
		}(l)
	}

	var posters sync.WaitGroup
	for g := 0; g < G; g++ {
		posters.Add(1)
		go func(g int) {
			defer posters.Done()
			for _, l := range lanes {
				if err := post(l, deep); err != nil {
					t.Error(err)
					return
				}
			}
			for i := 0; i < N; i++ {
				for q := range lanes {
					if err := post(lanes[(g+q)%Q], 1); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	posters.Wait()
	pollers.Wait()
	d1.Quiesce()

	st := d1.Stats()
	if st.WorkRequests != uint64(Q*perQP) || st.Processed != st.WorkRequests {
		t.Fatalf("posted %d, processed %d, want %d", st.WorkRequests, st.Processed, Q*perQP)
	}
	if st.ForeignDoorbells == 0 {
		t.Fatal("no doorbell was served for another poster: a deep post must outlast its ringer's stint")
	}
	for _, l := range lanes {
		if l.qp.SendCQ().Overflows() != 0 {
			t.Fatal("send CQ overflowed")
		}
	}
}

// TestCloseDuringDrain closes the device under posters that hand it pooled
// leases. Every post must be either refused, the lease staying with the
// poster, or accepted and its lease released by execution or by Close.
func TestCloseDuringDrain(t *testing.T) {
	base := mem.Default.Outstanding()
	fab := fabric.New(fabric.Config{})
	d1, err := NewDevice(fab, Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDevice(fab, Config{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	remote, _ := d2.RegisterMR(4096, PermRemoteWrite)

	const G = 4
	var accepted, refused atomic.Int64
	var posters sync.WaitGroup
	for g := 0; g < G; g++ {
		qp, _, err := ConnectPair(d1, d2, RC)
		if err != nil {
			t.Fatal(err)
		}
		posters.Add(1)
		go func(g int, qp *QP) {
			defer posters.Done()
			for i := 0; ; i++ {
				b := mem.Get(64)
				err := qp.PostSend(SendWR{Op: OpWrite, Inline: b.Data(), Pooled: b, RKey: remote.RKey(), RemoteOff: g * 64})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrDeviceClosed):
					b.Release()
					refused.Add(1)
					return
				default:
					b.Release()
					t.Errorf("PostSend across Close: %v", err)
					return
				}
			}
		}(g, qp)
	}
	for accepted.Load() < 1000 {
		time.Sleep(50 * time.Microsecond)
	}
	d1.Close()
	posters.Wait()

	if refused.Load() != G {
		t.Fatalf("%d of %d posters saw ErrDeviceClosed", refused.Load(), G)
	}
	if n := mem.Default.Outstanding() - base; n != 0 {
		t.Fatalf("%d pool leases outstanding after Close", n)
	}
}
