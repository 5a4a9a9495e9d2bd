package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// White-box tests of the combining queue's queueing discipline, separate
// from the full RPC paths: we drive push/claimBatch/handoff directly with
// a synthetic leader loop.

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
				lead := q.push(n)
				if !lead {
					// Followers wait for a verdict or promotion (no
					// staging region needed for opMem nodes).
					if v := n.awaitVerdict(nil, time.Minute); v != stateLeader {
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
	if !q.push(a) {
		t.Fatal("first push should lead")
	}
	b := &tcqNode{}
	if q.push(b) {
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
	if !q.push(c) {
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
		q.push(nodes[i])
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

func TestTCQCopyPhaseHandshake(t *testing.T) {
	// A follower in awaitVerdict must perform the copy phase exactly once
	// and then accept the final verdict.
	var q tcq
	leader := &tcqNode{}
	q.push(leader)
	follower := &tcqNode{payload: []byte{}} // empty payload: no staging write
	q.push(follower)

	done := make(chan uint32, 1)
	go func() {
		done <- follower.awaitVerdict(nil, time.Minute)
	}()
	// Leader assigns the copy phase and polls the flag.
	follower.state.Store(stateCopy)
	for follower.copied.Load() == 0 {
	}
	follower.state.Store(stateSent)
	if v := <-done; v != stateSent {
		t.Fatalf("verdict %d", v)
	}
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

// TestCombineBothCopyArms forces a two-request combine on each side of
// leaderCopyMax — a follower payload the leader copies itself, and one
// byte more, which goes through the copy handshake — and checks that each
// pair left as one message and came back intact.
func TestCombineBothCopyArms(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{QPsPerConn: 1})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	threads := []*Thread{conn.RegisterThread(), conn.RegisterThread()}
	defer func() { leaderStallHook = nil }()
	for _, size := range []int{leaderCopyMax, leaderCopyMax + 1} {
		// The first leader waits at the door until a second node is queued
		// behind its own, so claimBatch takes both.
		leading := make(chan struct{})
		var once sync.Once
		leaderStallHook = func(c *Conn, q *connQP) {
			once.Do(func() {
				own := q.tcq.tail.Load()
				close(leading)
				for q.tcq.tail.Load() == own {
					time.Sleep(10 * time.Microsecond)
				}
			})
		}
		m := &tc.clients[0].metrics
		msgs, items := m.msgsOut.Load(), m.itemsOut.Load()
		var wg sync.WaitGroup
		for i, th := range threads {
			if i == 1 {
				<-leading
			}
			payload := make([]byte, size)
			for k := range payload {
				payload[k] = byte(k + i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := th.Call(echoID, payload)
				if err != nil {
					t.Errorf("%d-byte call: %v", size, err)
					return
				}
				if !bytes.Equal(r.Data, payload) {
					t.Errorf("%d-byte call: reply differs from the request", size)
				}
				r.Release()
			}()
		}
		wg.Wait()
		if dm, di := m.msgsOut.Load()-msgs, m.itemsOut.Load()-items; dm != 1 || di != 2 {
			t.Fatalf("%d-byte pair left as %d messages carrying %d requests, want 1 and 2", size, dm, di)
		}
	}
}
