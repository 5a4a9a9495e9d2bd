package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/fabric"
)

// TestCallPlans pins the one rule every RPC entry point follows: a call is
// (attempts, budget) and nothing else. Each row spells one plan through one
// entry point — Call, Call under Options.RPCTimeout, CallWithDeadline,
// CallOpts, CallAsync+Wait — and what is asserted is computed from the plan's
// two numbers alone, never from the entry point: how many copies of the
// request executed, whether the copies were keyed (the row's own dedup
// window on the server), how many deadline strikes the client took, how long
// the call ran, and the error. Every row has a client node, hence a QP, a
// retry budget and a dedup window, to itself; the rows run side by side.
//
// Two handlers: one answers after 150 ms, one never answers. Both reply
// later, so neither occupies a worker while a row waits.
//
//   - one attempt: the request executes once, keyless. Against the slow
//     handler it waits the answer out with no strike, whatever the budget
//     (a 300 ms budget is not carved into quarters: the parent commit's
//     CallWithDeadline row read 2 executions and 1 strike here). Against
//     the silent handler it returns ErrTimeout when the budget is spent,
//     one strike; without a budget it would wait for ever, so that row is
//     not run.
//   - three attempts: keyed. The first attempt's wait — a quarter of the
//     budget, 4 × DefaultStallTimeout without one — expires before either
//     handler answers: one strike, and the retries find the original still
//     admitted and are pushed back rather than executed, so the handler
//     still runs once. The call ends ErrOverloaded, or nil if the box
//     stalled long enough for a retry to find the answer in the window.
func TestCallPlans(t *testing.T) {
	const (
		slowID, silentID = 30, 31
		handlerTime      = 150 * time.Millisecond // twice a three-attempt plan's first wait, half the budget
		budget           = 300 * time.Millisecond
		slack            = 120 * time.Millisecond // scheduling noise allowed on top of a wait
	)
	small := Options{MaxBatch: 4, QPsPerConn: 1, test: testKnobs{ringBytes: 8192, maxPayload: 512}}
	tc := newTestCluster(t, 0, small, small)

	var (
		execs  [64]atomic.Int32 // per row, indexed by the payload's one byte
		timers sync.WaitGroup
		mu     sync.Mutex
		silent []*Reply
	)
	tc.server.RegisterReplyHandler(slowID, false, func(req []byte, r *Reply) {
		execs[req[0]].Add(1)
		row := req[0]
		timers.Add(1)
		time.AfterFunc(handlerTime, func() {
			defer timers.Done()
			r.Send(append(r.Buf(), row), StatusOK)
		})
	})
	tc.server.RegisterReplyHandler(silentID, false, func(req []byte, r *Reply) {
		execs[req[0]].Add(1)
		mu.Lock()
		silent = append(silent, r)
		mu.Unlock()
	})
	t.Cleanup(func() { // before the nodes close: every admitted request gets its answer
		timers.Wait()
		mu.Lock()
		defer mu.Unlock()
		for _, r := range silent {
			r.Send(nil, StatusOK)
		}
	})

	type entry struct {
		name       string
		rpcTimeout time.Duration // the client node's Options.RPCTimeout
		// spells reports whether the entry point can express o at all.
		spells func(o CallOptions) bool
		call   func(th *Thread, id uint32, payload []byte, o CallOptions) (Response, error)
	}
	entries := []entry{
		{"Call", 0,
			func(o CallOptions) bool { return o == CallOptions{} },
			func(th *Thread, id uint32, payload []byte, _ CallOptions) (Response, error) {
				return th.Call(id, payload)
			}},
		{"Call+RPCTimeout", budget,
			func(o CallOptions) bool { return o == CallOptions{} },
			func(th *Thread, id uint32, payload []byte, _ CallOptions) (Response, error) {
				return th.Call(id, payload)
			}},
		{"CallWithDeadline", 0,
			func(o CallOptions) bool { return o.MaxAttempts == 0 },
			func(th *Thread, id uint32, payload []byte, o CallOptions) (Response, error) {
				return th.CallWithDeadline(id, payload, o.Budget)
			}},
		{"CallOpts", 0,
			func(CallOptions) bool { return true },
			func(th *Thread, id uint32, payload []byte, o CallOptions) (Response, error) {
				return th.CallOpts(id, payload, o)
			}},
		{"CallAsync", 0,
			func(CallOptions) bool { return true },
			func(th *Thread, id uint32, payload []byte, o CallOptions) (Response, error) {
				p, err := th.CallAsync(id, payload, o)
				if err != nil {
					return Response{}, err
				}
				return p.Wait()
			}},
	}

	var wg sync.WaitGroup
	row := 0
	for _, e := range entries {
		for _, attempts := range []int{0, 1, 3} {
			for _, b := range []time.Duration{0, budget} {
				o := CallOptions{MaxAttempts: attempts, Budget: b}
				if !e.spells(o) {
					continue
				}
				for _, id := range []uint32{slowID, silentID} {
					// The plan, as the two numbers: nothing below reads e or o again.
					planAttempts, planBudget := max(attempts, 1), max(b, e.rpcTimeout)
					if id == silentID && planAttempts == 1 && planBudget == 0 {
						continue // waits for ever, by design
					}
					row++
					name := fmt.Sprintf("%s(attempts=%d,budget=%v) on rpc %d", e.name, attempts, b, id)
					cOpts := small
					cOpts.RPCTimeout = e.rpcTimeout
					client, err := tc.net.NewNode(fabric.NodeID(row), cOpts, 0)
					if err != nil {
						t.Fatal(err)
					}
					conn, err := client.Connect(0)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(row int) {
						defer wg.Done()
						start := time.Now()
						r, err := e.call(conn.RegisterThread(), id, []byte{byte(row)}, o)
						elapsed := time.Since(start)
						r.Release()

						// What the plan predicts.
						var (
							wantErr  []error
							lo       time.Duration
							strikes  uint64
							keyedLen int
						)
						switch {
						case planAttempts > 1:
							lo = 4 * DefaultStallTimeout
							if planBudget > 0 {
								lo = planBudget / 4
							}
							wantErr, strikes, keyedLen = []error{ErrOverloaded, nil}, 1, 1
						case id == slowID:
							wantErr, lo = []error{nil}, handlerTime
						default:
							wantErr, lo, strikes = []error{ErrTimeout}, planBudget, 1
						}
						okErr := false
						for _, w := range wantErr {
							okErr = okErr || errors.Is(err, w) // errors.Is(nil, nil) holds
						}
						if !okErr {
							t.Errorf("%s: error %v, want one of %v", name, err, wantErr)
						}
						if n := execs[row].Load(); n != 1 {
							t.Errorf("%s: the handler executed %d copies, want 1", name, n)
						}
						if n := dedupLen(tc.server, client.ID()); n != keyedLen {
							t.Errorf("%s: %d keyed requests in the server's dedup window, want %d", name, n, keyedLen)
						}
						if n := client.Metrics().RPCTimeouts; n != strikes {
							t.Errorf("%s: core.rpc_timeouts = %d, want %d", name, n, strikes)
						}
						if elapsed < lo || elapsed > lo+slack {
							t.Errorf("%s: returned after %v, want %v to %v", name, elapsed, lo, lo+slack)
						}
					}(row)
				}
			}
		}
	}
	wg.Wait()
}

// dedupLen reports how many keyed requests the server holds for client.
func dedupLen(srv *Node, client fabric.NodeID) int {
	for _, sc := range srv.snapshotSconns() {
		if sc.sender == client {
			return sc.dedup.Len()
		}
	}
	return -1
}
