package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSubmitChain drives Thread.submit — the one way onto a combining queue —
// through every arm of its round loop and of awaitChain, as a chain of one
// (Pending.startAttempt, the path of Call, CallAsync, SendRPC and the memory
// operations) and as a chain of eight (SendBatch). The thread under test is
// homed on QP 0 of two; in the rows with a blocker another thread takes QP 0's
// leadership first and leaderStallHook holds it at the door until the row's
// condition on the chain queued behind it is met.
func TestSubmitChain(t *testing.T) {
	const home, other = 0, 1
	rows := []struct {
		name    string
		stall   time.Duration // client StallTimeout; zero = never trips
		budget  time.Duration
		blocker bool
		// held is the blocker's hold: it reports whether the leader may go on,
		// given the chain linked behind it (called once all of it is).
		held func(c *Conn, chain []*tcqNode) bool
		// atDoor runs when the thread under test itself first leads on home.
		atDoor func(q *connQP, budget time.Duration)

		wantErr     error
		wantVerdict uint32
		wantQP      int32 // QP the chain ended on
		wantAvoid   int32 // avoidQP as the thread leads on other, -1 if it never does
		wantMsgs    int   // messages the client posted, 0 = not asserted
	}{
		{
			name:        "leads at push",
			wantVerdict: stateSent, wantQP: home, wantAvoid: -1, wantMsgs: 1,
		},
		{
			name:    "follower claimed",
			blocker: true,
			held:    func(c *Conn, chain []*tcqNode) bool { return true },
			// The blocker's request and the chain leave as one message.
			wantVerdict: stateSent, wantQP: home, wantAvoid: -1, wantMsgs: 1,
		},
		{
			name:    "leader stalls past StallTimeout",
			stall:   3 * time.Millisecond,
			blocker: true,
			held: func(c *Conn, chain []*tcqNode) bool {
				for _, n := range chain {
					if n.state.Load() != stateTimedOut {
						return false
					}
				}
				return true
			},
			// Re-elected on the other QP, sidestepping the stalled one.
			wantVerdict: stateSent, wantQP: other, wantAvoid: home,
		},
		{
			name:        "QP deactivated",
			atDoor:      func(q *connQP, _ time.Duration) { q.ctrl.Store64(ctrlActiveOff, 0) },
			wantVerdict: stateSent, wantQP: other, wantAvoid: -1,
		},
		{
			name:   "deadline passes between rounds",
			budget: 5 * time.Millisecond,
			atDoor: func(q *connQP, budget time.Duration) {
				time.Sleep(2 * budget)
				q.ctrl.Store64(ctrlActiveOff, 0)
			},
			wantErr: ErrTimeout, wantVerdict: stateWaiting, wantQP: home, wantAvoid: -1,
		},
		{
			name:    "handle closed mid-wait",
			blocker: true,
			held: func(c *Conn, chain []*tcqNode) bool {
				c.Close()
				return true
			},
			wantErr: ErrConnClosed, wantVerdict: stateAborted, wantQP: home, wantAvoid: -1,
		},
	}
	defer func() { leaderStallHook = nil }()
	for _, row := range rows {
		for _, chainLen := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/chain of %d", row.name, chainLen), func(t *testing.T) {
				stall := row.stall
				if stall == 0 {
					stall = chaosDeadline
				}
				tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, Options{QPsPerConn: 2, StallTimeout: stall})
				registerEcho(tc.server)
				conn, err := tc.clients[0].Connect(0)
				if err != nil {
					t.Fatal(err)
				}
				blocker, th := conn.RegisterThread(), conn.RegisterThread()
				th.assigned.Store(home)
				th.curQP.Store(home)

				leading := make(chan struct{})
				avoidSeen := int32(-1)
				var hold, door sync.Once
				leaderStallHook = func(c *Conn, q *connQP) {
					switch {
					case row.blocker && q.idx == home:
						hold.Do(func() {
							own := q.tcq.tail.Load() // nobody else has submitted yet
							close(leading)
							for {
								if chain := queuedBehind(own); len(chain) == chainLen && row.held(c, chain) {
									return
								}
								time.Sleep(10 * time.Microsecond)
							}
						})
					case row.atDoor != nil && q.idx == home:
						door.Do(func() { row.atDoor(q, row.budget) })
					case q.idx == other:
						avoidSeen = th.avoidQP // only the thread under test leads here: its own goroutine
					}
				}
				var wg sync.WaitGroup
				if row.blocker {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := callDrop(blocker, echoID, []byte("blocker")); !errors.Is(err, row.wantErr) {
							t.Errorf("blocker: %v, want %v", err, row.wantErr)
						}
					}()
					<-leading
				}

				m := &tc.clients[0].metrics
				msgs, items := m.msgsOut.Load(), m.itemsOut.Load()
				// Too large for a leader to copy unasked: a chain of one behind
				// the blocker runs the copy handshake, and a chain of eight
				// that leads itself would wait for itself were its nodes not
				// marked for the leader to copy.
				payloads := make([][]byte, chainLen)
				for i := range payloads {
					payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, leaderCopyMax+1)
				}
				opts := CallOptions{Budget: row.budget}
				var pends []*Pending
				if chainLen == 1 {
					p := new(Pending)
					if err := th.newPending(p, echoID, payloads[0], opts); err != nil {
						t.Fatal(err)
					}
					p.startAttempt(true)
					pends = []*Pending{p}
				} else {
					ops := make([]BatchOp, chainLen)
					for i := range ops {
						ops[i] = BatchOp{RPCID: echoID, Payload: payloads[i]}
					}
					if pends, err = th.SendBatch(ops, opts); err != nil {
						t.Fatal(err)
					}
				}
				for i, p := range pends {
					if p.verdict != row.wantVerdict || p.node != nil {
						t.Errorf("call %d: verdict %d (node %v), want %d and no node", i, p.verdict, p.node, row.wantVerdict)
					}
					r, err := p.Wait()
					if !errors.Is(err, row.wantErr) {
						t.Errorf("call %d: %v, want %v", i, err, row.wantErr)
					}
					if err == nil && !bytes.Equal(r.Data, payloads[i]) {
						t.Errorf("call %d: reply %q, want %q", i, r.Data, payloads[i])
					}
					r.Release()
				}
				wg.Wait()
				if got := th.curQP.Load(); got != row.wantQP {
					t.Errorf("chain ended on QP %d, want %d", got, row.wantQP)
				}
				if avoidSeen != row.wantAvoid {
					t.Errorf("avoidQP while leading on QP %d was %d, want %d", other, avoidSeen, row.wantAvoid)
				}
				if th.avoidQP != -1 && row.wantErr == nil {
					t.Errorf("avoidQP %d after a clean round, want -1", th.avoidQP)
				}
				wantItems := chainLen
				if row.blocker {
					wantItems++ // its own request
				}
				if dm, di := int(m.msgsOut.Load()-msgs), int(m.itemsOut.Load()-items); row.wantMsgs != 0 &&
					(dm != row.wantMsgs || di != wantItems) {
					t.Errorf("%d messages carrying %d requests, want %d and %d", dm, di, row.wantMsgs, wantItems)
				}
				left := liveSlots(th)
				if left != 0 || th.Outstanding() != 0 {
					t.Errorf("pending-call table holds %d records (depth %d), want empty", left, th.Outstanding())
				}
				if n := awaitLeaseDrain(time.Second); n != 0 {
					t.Errorf("%d pooled leases outstanding", n)
				}
			})
		}
	}
}

// TestPickQPFollowsAssignmentForBatches pins §5.2's migration rule for a
// submission of any size: a thread with nothing else outstanding follows the
// thread scheduler's assignment whether it places one operation or four
// (pickQP once compared the table depth with 1, so a batch — which registers
// all its records first — always looked like traffic still due on the old QP
// and never migrated), and one with an earlier call outstanding on its old,
// still active QP defers.
func TestPickQPFollowsAssignmentForBatches(t *testing.T) {
	tc := newTestCluster(t, 1, Options{QPsPerConn: 2}, Options{QPsPerConn: 2})
	registerEcho(tc.server)
	release := make(chan struct{})
	tc.server.RegisterHandler(2, func(req []byte) []byte { <-release; return nil })
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	batch := func(n int, rpcID uint32) []*Pending {
		t.Helper()
		ops := make([]BatchOp, n)
		for i := range ops {
			ops[i] = BatchOp{RPCID: rpcID, Payload: []byte("x")}
		}
		pends, err := th.SendBatch(ops, CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return pends
	}
	wait := func(pends []*Pending) {
		t.Helper()
		for _, p := range pends {
			r, err := p.Wait()
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
		}
	}
	for _, n := range []int{1, 4} {
		to := 1 - th.curQP.Load()
		th.assigned.Store(to)
		pends := batch(n, echoID)
		if got := th.curQP.Load(); got != to {
			t.Errorf("batch of %d with an empty table used QP %d, assigned QP %d", n, got, to)
		}
		wait(pends)
	}
	// An earlier call still outstanding on the old QP: the batch defers.
	old := th.curQP.Load()
	slow := batch(1, 2)
	th.assigned.Store(1 - old)
	pends := batch(4, echoID)
	if got := th.curQP.Load(); got != old {
		t.Errorf("batch behind an outstanding call used QP %d, want to stay on QP %d", got, old)
	}
	close(release)
	wait(slow)
	wait(pends)
}
