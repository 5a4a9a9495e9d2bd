package core

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// White-box tests of the combining queue's queueing discipline, separate
// from the full RPC paths: we drive pushChain/claimBatch/handoff directly
// with a synthetic leader loop. The waiting side of the protocol (promotion,
// the copy handshake, the stall guard) is Thread.awaitChain's and is tested
// through the real submit path: TestSubmitChain, TestCombineBothCopyArms.

// awaitTurn spins until n is promoted or handed a verdict.
func awaitTurn(n *tcqNode) uint32 {
	for {
		if s := n.state.Load(); s != stateWaiting {
			return s
		}
		runtime.Gosched()
	}
}

// queuedBehind returns the nodes linked behind own so far: what a test's
// held leader looks at to decide it has waited long enough.
func queuedBehind(own *tcqNode) []*tcqNode {
	var nodes []*tcqNode
	for n := own.next.Load(); n != nil; n = n.next.Load() {
		nodes = append(nodes, n)
	}
	return nodes
}

// runTCQ drives ops submissions from nThreads goroutines through one tcq,
// with each leader claiming batches of up to maxBatch and "processing"
// them by setting verdicts. Returns total processed and the batch sizes.
func runTCQ(t *testing.T, nThreads, opsPerThread, maxBatch int) []int {
	t.Helper()
	var q tcq
	var mu sync.Mutex
	var batches []int
	var wg sync.WaitGroup
	for g := 0; g < nThreads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerThread; i++ {
				n := &tcqNode{kind: opMem}
				if !q.pushChain(n, n) {
					// Followers wait for a verdict or promotion.
					if v := awaitTurn(n); v != stateLeader {
						if v != stateSent {
							t.Errorf("verdict %d", v)
						}
						continue
					}
				}
				// Leader path: claim, "process", set verdicts, hand off.
				batch := q.claimBatch(n, maxBatch)
				mu.Lock()
				batches = append(batches, len(batch))
				mu.Unlock()
				for _, b := range batch {
					if b != n {
						b.state.Store(stateSent)
					}
				}
				q.handoff(batch[len(batch)-1])
			}
		}()
	}
	wg.Wait()
	return batches
}

func TestTCQAllSubmissionsProcessed(t *testing.T) {
	const nThreads, ops, maxBatch = 8, 500, 16
	batches := runTCQ(t, nThreads, ops, maxBatch)
	total := 0
	for _, b := range batches {
		total += b
		if b < 1 || b > maxBatch {
			t.Fatalf("batch size %d outside [1,%d]", b, maxBatch)
		}
	}
	if total != nThreads*ops {
		t.Fatalf("processed %d, want %d", total, nThreads*ops)
	}
}

func TestTCQBatchBound(t *testing.T) {
	for _, maxBatch := range []int{1, 2, 4} {
		batches := runTCQ(t, 6, 200, maxBatch)
		for _, b := range batches {
			if b > maxBatch {
				t.Fatalf("maxBatch %d violated: batch of %d", maxBatch, b)
			}
		}
	}
}

func TestTCQSingleThreadNeverCombines(t *testing.T) {
	batches := runTCQ(t, 1, 300, 16)
	for _, b := range batches {
		if b != 1 {
			t.Fatalf("solo thread combined a batch of %d", b)
		}
	}
	if len(batches) != 300 {
		t.Fatalf("%d batches", len(batches))
	}
}

func TestTCQPushLeaderElection(t *testing.T) {
	var q tcq
	a := &tcqNode{}
	if !q.pushChain(a, a) {
		t.Fatal("first push should lead")
	}
	b := &tcqNode{}
	if q.pushChain(b, b) {
		t.Fatal("second push should follow")
	}
	// Claim both; handoff with nothing after ends the queue.
	batch := q.claimBatch(a, 16)
	if len(batch) != 2 || batch[0] != a || batch[1] != b {
		t.Fatalf("batch: %v", batch)
	}
	q.handoff(b)
	// Queue is empty: a fresh push leads again.
	c := &tcqNode{}
	if !q.pushChain(c, c) {
		t.Fatal("push after drain should lead")
	}
	q.claimBatch(c, 16)
	q.handoff(c)
}

func TestTCQPromotionBeyondBatch(t *testing.T) {
	var q tcq
	nodes := make([]*tcqNode, 5)
	for i := range nodes {
		nodes[i] = &tcqNode{}
		q.pushChain(nodes[i], nodes[i])
	}
	// Leader claims only 3 of 5; node 3 must be promoted on handoff.
	batch := q.claimBatch(nodes[0], 3)
	if len(batch) != 3 {
		t.Fatalf("claimed %d", len(batch))
	}
	for _, b := range batch[1:] {
		b.state.Store(stateSent)
	}
	q.handoff(batch[2])
	if nodes[3].state.Load() != stateLeader {
		t.Fatalf("node 3 state = %d, want leader", nodes[3].state.Load())
	}
	// The promoted leader claims the rest.
	rest := q.claimBatch(nodes[3], 16)
	if len(rest) != 2 || rest[0] != nodes[3] || rest[1] != nodes[4] {
		t.Fatalf("promoted batch: %v", rest)
	}
	rest[1].state.Store(stateSent)
	q.handoff(rest[1])
}

func TestTCQStressManyThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	var processed atomic.Int64
	batches := runTCQ(t, 16, 400, 8)
	for _, b := range batches {
		processed.Add(int64(b))
	}
	if processed.Load() != 16*400 {
		t.Fatalf("processed %d", processed.Load())
	}
}

// TestCombineBothCopyArms forces a combine behind a held leader on each side
// of leaderCopyMax — a follower payload the leader copies itself, and one
// byte more, which goes through the copy handshake when it arrives as a chain
// of one (the §4.2 protocol, the follower's half of it in Thread.awaitChain)
// and is the leader's to copy when it arrives as a chain of eight, whose
// submitter polls all eight nodes at once — and checks that each left with
// the leader's own request as one message and came back intact.
func TestCombineBothCopyArms(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	leader, follower := conn.RegisterThread(), conn.RegisterThread()
	defer func() { leaderStallHook = nil }()
	for _, row := range []struct {
		size, chain  int
		leaderCopies bool // the arm the chain's nodes are marked for
	}{
		{leaderCopyMax, 1, false}, // small enough that the leader copies it anyway
		{leaderCopyMax + 1, 1, false},
		{leaderCopyMax + 1, 8, true},
	} {
		// The first leader waits at the door until the chain is queued behind
		// its own node, so claimBatch takes all of it.
		leading := make(chan struct{})
		var once sync.Once
		leaderStallHook = func(c *Conn, q *connQP) {
			once.Do(func() {
				own := q.tcq.tail.Load()
				close(leading)
				for len(queuedBehind(own)) < row.chain {
					time.Sleep(10 * time.Microsecond)
				}
				for i, n := range queuedBehind(own) {
					if n.leaderCopies != row.leaderCopies {
						t.Errorf("%d-byte chain of %d: node %d leaderCopies=%v", row.size, row.chain, i, n.leaderCopies)
					}
				}
			})
		}
		m := &tc.clients[0].metrics
		msgs, items := m.msgsOut.Load(), m.itemsOut.Load()
		payloads := make([][]byte, 1+row.chain)
		for i := range payloads {
			payloads[i] = make([]byte, row.size)
			for k := range payloads[i] {
				payloads[i][k] = byte(k + i)
			}
		}
		check := func(r Response, err error, want []byte) {
			if err != nil {
				t.Errorf("%d-byte call: %v", row.size, err)
				return
			}
			if !bytes.Equal(r.Data, want) {
				t.Errorf("%d-byte call: reply differs from the request", row.size)
			}
			r.Release()
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := leader.Call(echoID, payloads[0])
			check(r, err, payloads[0])
		}()
		<-leading
		if row.chain == 1 {
			r, err := follower.Call(echoID, payloads[1])
			check(r, err, payloads[1])
		} else {
			ops := make([]BatchOp, row.chain)
			for i := range ops {
				ops[i] = BatchOp{RPCID: echoID, Payload: payloads[1+i]}
			}
			pends, err := follower.SendBatch(ops, CallOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pends {
				r, err := p.Wait()
				check(r, err, payloads[1+i])
			}
		}
		wg.Wait()
		if dm, di := m.msgsOut.Load()-msgs, m.itemsOut.Load()-items; dm != 1 || int(di) != 1+row.chain {
			t.Fatalf("%d-byte chain of %d left as %d messages carrying %d requests, want 1 and %d",
				row.size, row.chain, dm, di, 1+row.chain)
		}
	}
}
