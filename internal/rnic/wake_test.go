package rnic

import (
	"encoding/binary"
	"testing"
	"time"

	"flock/internal/fabric"
)

// signals drains a completion channel without blocking and returns how many
// signals it held.
func signals(wake chan struct{}) int {
	n := 0
	for {
		select {
		case <-wake:
			n++
		default:
			return n
		}
	}
}

// TestArmedRegionSignalsOnce pins the region half of the completion channel:
// a write placed into an unarmed region signals nothing, a write that lands
// between Arm and the poller's block signals exactly once, and the arm is
// spent by it. An exported region nobody arms takes writes and atomics
// without a signal.
func TestArmedRegionSignalsOnce(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := d2.RegisterMR(64, PermRemoteWrite)
	exported, _ := d2.RegisterMR(64, PermRemoteWrite|PermRemoteAtomic)
	local, _ := d1.RegisterMR(8, 0)
	write := func(mr *MemRegion, v byte) {
		t.Helper()
		if err := qa.PostSend(SendWR{Op: OpWrite, Inline: []byte{v}, RKey: mr.RKey()}); err != nil {
			t.Fatal(err)
		}
		d1.Quiesce()
	}

	write(ring, 1)
	if n := signals(d2.Wake()); n != 0 {
		t.Fatalf("a write into an unarmed region sent %d signals", n)
	}
	ring.Arm()
	write(ring, 2) // lands after the arm, before the poller would block
	write(ring, 3) // the arm is spent
	if n := signals(d2.Wake()); n != 1 {
		t.Fatalf("two writes after one Arm sent %d signals, want 1", n)
	}
	ring.Arm()
	ring.Arm()
	write(ring, 4)
	if n := signals(d2.Wake()); n != 1 {
		t.Fatalf("one write after two Arms sent %d signals, want 1", n)
	}
	ring.WriteAt([]byte{5}, 0) //nolint:errcheck // in range
	if n := signals(d2.Wake()); n != 0 {
		t.Fatalf("a host write sent %d signals", n)
	}

	write(exported, 1)
	if err := qa.PostSend(SendWR{Op: OpFetchAdd, RKey: exported.RKey(), CompareAdd: 1, LocalMR: local, LocalLen: 8}); err != nil {
		t.Fatal(err)
	}
	d1.Quiesce()
	if n := signals(d2.Wake()) + signals(d1.Wake()); n != 0 {
		t.Fatalf("a write and an atomic on an unarmed exported region sent %d signals", n)
	}
}

// TestArmedCQSignalsOnce pins the CQ half: a completion pushed onto an
// unarmed CQ signals nothing, one pushed between Arm and the poller's block
// signals exactly once, and the arm is spent by it.
func TestArmedCQSignalsOnce(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := d2.RegisterMR(8, PermRemoteWrite)
	signaledWrite := func() {
		t.Helper()
		if err := qa.PostSend(SendWR{Op: OpWrite, Inline: []byte{1}, RKey: remote.RKey(), Signaled: true}); err != nil {
			t.Fatal(err)
		}
		d1.Quiesce()
	}
	cq := qa.SendCQ()
	signaledWrite()
	if n := signals(d1.Wake()); n != 0 {
		t.Fatalf("a completion on an unarmed CQ sent %d signals", n)
	}
	cq.Arm()
	signaledWrite()
	signaledWrite()
	if n := signals(d1.Wake()); n != 1 {
		t.Fatalf("two completions after one Arm sent %d signals, want 1", n)
	}
	var buf [8]Completion
	if k := cq.Poll(buf[:]); k != 3 {
		t.Fatalf("polled %d completions, want 3", k)
	}
	if n := signals(d2.Wake()); n != 0 {
		t.Fatalf("the responder's channel got %d signals from the requester's CQ", n)
	}
}

// TestArmThenLookLosesNoWake runs the poller's protocol against a writer on
// another goroutine: look, arm, look once more, then block on the channel.
// The writer waits for each value to be seen before it writes the next, so a
// lost wake leaves the poller blocked and the writer timed out.
func TestArmThenLookLosesNoWake(t *testing.T) {
	const writes = 300
	for _, kind := range []string{"region", "cq"} {
		t.Run(kind, func(t *testing.T) {
			d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
			qa, _, err := ConnectPair(d1, d2, RC)
			if err != nil {
				t.Fatal(err)
			}
			ring, _ := d2.RegisterMR(8, PermRemoteWrite)
			cq := qa.SendCQ()
			wake := d2.Wake()
			if kind == "cq" {
				wake = d1.Wake()
			}
			seen := make(chan uint64)
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				var last uint64
				var buf [4]Completion
				look := func() bool { // the poller's poll
					if kind == "cq" {
						k := cq.Poll(buf[:])
						last += uint64(k)
						return k > 0
					}
					if v := ring.Load64(0); v > last {
						last = v
						return true
					}
					return false
				}
				for {
					if !look() {
						if kind == "cq" {
							cq.Arm()
						} else {
							ring.Arm()
						}
						if !look() { // once more, then block
							select {
							case <-wake:
							case <-stop:
								return
							}
							continue
						}
					}
					select {
					case seen <- last:
					case <-stop:
						return
					}
				}
			}()
			for i := uint64(1); i <= writes; i++ {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], i)
				if err := qa.PostSend(SendWR{Op: OpWrite, Inline: b[:], RKey: ring.RKey(), Signaled: kind == "cq"}); err != nil {
					t.Fatal(err)
				}
				select {
				case v := <-seen:
					if v != i {
						t.Fatalf("poller saw %d, want %d", v, i)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("write %d never seen: a wake was lost", i)
				}
			}
		})
	}
}
