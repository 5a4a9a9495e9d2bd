package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
)

// The chaos matrix: the suite's seeded fault plans as a table of named
// scenarios instead of ad-hoc per-test constants. Every cell drives the
// same mixed echo+kv workload and asserts the same recovery invariants;
// what varies is the named fault plan and its seed. On failure the test
// logs the seed and the plan's schedule hash plus the exact one-command
// rerun, so a CI flake reproduces locally without archaeology. (Plans
// 1–3 keep their dedicated tests above — they need the stall hook or
// QPN retargeting that doesn't fit a flat table.)

// planHash fingerprints a fault plan the way Schedule.Hash fingerprints
// an explorer schedule: a stable FNV-1a fold over every field that
// affects injection, for log correlation across runs.
func planHash(p *fabric.FaultPlan) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(p.Seed)
	mix(math.Float64bits(p.RCLossProb))
	mix(math.Float64bits(p.CorruptProb))
	mix(math.Float64bits(p.RCDelayProb))
	mix(uint64(p.RCDelay))
	for _, l := range p.Links {
		mix(uint64(l.Src))
		mix(uint64(l.Dst))
		mix(uint64(l.QPN))
		mix(l.DownAfter)
		mix(l.DownFor)
		if l.Repeat {
			mix(1)
		}
	}
	return h
}

func TestChaosMatrix(t *testing.T) {
	type cell struct {
		name string
		seed uint64
		// plan builds the fault plan for this cell; src/dst are the
		// client and server node IDs.
		plan func(src, dst fabric.NodeID) *fabric.FaultPlan
	}
	cells := []cell{
		{name: "outage-window", seed: 21, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 21, Links: []fabric.LinkFault{
				{Src: src, Dst: dst, DownAfter: 50, DownFor: 300},
			}}
		}},
		{name: "outage-window", seed: 22, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 22, Links: []fabric.LinkFault{
				{Src: src, Dst: dst, DownAfter: 25, DownFor: 150},
			}}
		}},
		{name: "rc-loss", seed: 31, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 31, RCLossProb: 0.03}
		}},
		{name: "rc-loss", seed: 32, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 32, RCLossProb: 0.05}
		}},
		{name: "corruption-as-loss", seed: 41, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 41, CorruptProb: 0.02}
		}},
		{name: "congested-link", seed: 51, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 51, RCDelayProb: 0.10, RCDelay: 50 * time.Microsecond}
		}},
		{name: "loss-plus-outage", seed: 61, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 61, RCLossProb: 0.02, Links: []fabric.LinkFault{
				{Src: src, Dst: dst, DownAfter: 80, DownFor: 200},
			}}
		}},
		{name: "flapping-link", seed: 71, plan: func(src, dst fabric.NodeID) *fabric.FaultPlan {
			return &fabric.FaultPlan{Seed: 71, Links: []fabric.LinkFault{
				{Src: src, Dst: dst, DownAfter: 40, DownFor: 80, Repeat: true},
			}}
		}},
	}

	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s/seed=%d", c.name, c.seed), func(t *testing.T) {
			sOpts := Options{QPsPerConn: 2}
			cOpts := Options{
				QPsPerConn:   2,
				RPCTimeout:   100 * time.Millisecond,
				StallTimeout: 10 * time.Millisecond,
				test:         testKnobs{rcRetries: 3},
			}
			tc := newTestCluster(t, 1, sOpts, cOpts)
			registerEcho(tc.server)
			registerKV(t, tc.server)
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			plan := c.plan(tc.clients[0].ID(), tc.server.ID())
			// The one-command rerun, logged up front so any failure below
			// — including a timeout panic — carries it.
			t.Logf("scenario=%s seed=%d schedule-hash=%016x rerun: go test -run 'TestChaosMatrix/%s/seed=%d' ./internal/core",
				c.name, c.seed, planHash(plan), c.name, c.seed)
			tc.net.Fabric().SetFaultPlan(plan)

			const nEcho, perEcho = 3, 12
			const kvKey, kvRounds = uint64(500), uint64(20)
			var wg sync.WaitGroup
			for g := 0; g < nEcho; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					th := conn.RegisterThread()
					for i := 0; i < perEcho; i++ {
						callUntilOK(t, th, []byte(fmt.Sprintf("%s-%d-%d", c.name, g, i)))
					}
				}(g)
			}
			var kvFinal uint64
			wg.Add(1)
			go func() {
				defer wg.Done()
				kvFinal = kvDrive(t, conn.RegisterThread(), kvKey, kvRounds)
			}()
			wg.Wait()
			if t.Failed() {
				return
			}
			if kvFinal != kvRounds {
				t.Fatalf("kv finished at %d/%d acknowledged puts", kvFinal, kvRounds)
			}
			// The plan must actually have injected something, or the cell
			// is vacuous and belongs out of the matrix.
			fs := tc.net.Fabric().FaultCounters()
			if fs.RCDropped == 0 && fs.LinkDownDrops == 0 && fs.Corrupted == 0 && fs.RCDelayed == 0 {
				t.Fatal("fault plan injected nothing — vacuous scenario")
			}
			// Recovered: fresh traffic flows and the final kv state holds
			// exactly the last acknowledged counter.
			th := conn.RegisterThread()
			callUntilOK(t, th, []byte("post-"+c.name))
			req := make([]byte, 8)
			binary.LittleEndian.PutUint64(req, kvKey)
			deadline := time.Now().Add(chaosDeadline)
			for {
				resp, err := th.Call(kvGetID, req)
				if err == nil && resp.Status == StatusOK && len(resp.Data) >= 8 {
					got := binary.LittleEndian.Uint64(resp.Data[:8])
					resp.Release()
					if got != kvRounds {
						t.Fatalf("final kv counter %d != %d — lost or replayed put", got, kvRounds)
					}
					break
				}
				resp.Release()
				if time.Now().After(deadline) {
					t.Fatalf("final kv get never succeeded: %v", err)
				}
			}
		})
	}
}
