package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// loopWakes reads a node's core.loop_wakes from its telemetry.
func loopWakes(n *Node) uint64 {
	return n.Telemetry().Snapshot().Counters["core.loop_wakes"]
}

// TestIdlePairParksItsLoops: once a connected pair goes idle, each node's
// loop parks on its device's completion channel and wakes for its schedule
// alone — about one pass per DefaultSchedInterval, neither spinning (which
// would count no wakes at all) nor napping on a timer of its own.
func TestIdlePairParksItsLoops(t *testing.T) {
	const window = 100 * time.Millisecond
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tc := newTestCluster(t, 1, Options{Workers: workers}, Options{})
			registerEcho(tc.server)
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			th := conn.RegisterThread()
			for i := 0; i < 100; i++ {
				if err := callDrop(th, echoID, []byte("warm")); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(2 * DefaultSchedInterval) // every stint has run out
			nodes := []*Node{tc.server, tc.clients[0]}
			before := []uint64{loopWakes(nodes[0]), loopWakes(nodes[1])}
			time.Sleep(window)
			most := uint64(window/DefaultSchedInterval) * 3 / 2
			for i, n := range nodes {
				got := loopWakes(n) - before[i]
				t.Logf("node %d: %d loop wakes in %v", n.ID(), got, window)
				if got == 0 || got > most {
					t.Errorf("node %d's loop woke %d times in %v idle, want between 1 and %d", n.ID(), got, window, most)
				}
			}
		})
	}
}

// TestParkedWaiterWokenByItsRing: a waiter parked on a call its server
// answers late is woken through its armed response ring — the landing wakes
// the client's parked loop, which drains the QP — not by the loop's next
// schedule, which is up to DefaultSchedInterval away.
func TestParkedWaiterWokenByItsRing(t *testing.T) {
	const laterID = 47
	tc := newTestCluster(t, 1, Options{}, Options{})
	sentAt := make(chan time.Time, 1)
	tc.server.RegisterReplyHandler(laterID, false, func(_ []byte, r *Reply) {
		go func() {
			// Long past the waiter's stint, and well inside the client
			// loop's park: only the waiter's own arm wakes the loop in time.
			time.Sleep(DefaultSchedInterval / 4)
			sentAt <- time.Now()
			r.Send(nil, StatusOK)
		}()
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	var lags []time.Duration
	for i := 0; i < 15; i++ {
		if err := callDrop(th, laterID, nil); err != nil {
			t.Fatal(err)
		}
		lags = append(lags, time.Since(<-sentAt))
	}
	slices.Sort(lags)
	t.Logf("reply-to-return lags: %v", lags)
	if med := lags[len(lags)/2]; med > DefaultSchedInterval/4 {
		t.Fatalf("a parked waiter was answered a median %v after the reply (all: %v), want within %v", med, lags, DefaultSchedInterval/4)
	}
}
