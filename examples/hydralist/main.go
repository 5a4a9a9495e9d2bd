// hydralist: the §8.6 scenario — an ordered in-memory index served over
// FLock. The server hosts the index and registers get and scan handlers;
// client threads issue the paper's 90 % get / 10 % scan(64) mix with
// several outstanding requests each.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"flock"
	"flock/internal/hydralist"
	"flock/internal/stats"
)

const (
	rpcGet  = 1
	rpcScan = 2

	keys      = 200_000
	nThreads  = 4
	window    = 4 // outstanding requests per thread
	runWindow = 500 * time.Millisecond
)

func main() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()

	// --- Server: build and populate the index, register handlers ---
	server, err := net.NewNode(1, flock.Options{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	index := hydralist.New()
	rng := stats.NewRNG(1)
	for k := uint64(1); k <= keys; k++ {
		index.Insert(k, k*3, rng)
	}
	server.RegisterHandler(rpcGet, func(req []byte) []byte {
		key := binary.LittleEndian.Uint64(req)
		v, ok := index.Get(key)
		if !ok {
			return nil
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, v)
		return out
	})
	server.RegisterHandler(rpcScan, func(req []byte) []byte {
		start := binary.LittleEndian.Uint64(req)
		count := int(binary.LittleEndian.Uint64(req[8:]))
		n := index.Scan(start, count, nil)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(n)) // reply: #keys found (§8.6)
		return out
	})
	server.Serve()

	// --- Clients: the 90/10 mix with latency accounting per class ---
	client, err := net.NewNode(2, flock.Options{QPsPerConn: 2}, 0)
	if err != nil {
		log.Fatal(err)
	}
	conn, err := client.Connect(1)
	if err != nil {
		log.Fatal(err)
	}

	var gets, scans atomic.Uint64
	getHist := make([]*stats.Hist, nThreads)
	scanHist := make([]*stats.Hist, nThreads)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < nThreads; w++ {
		getHist[w] = stats.NewHist()
		scanHist[w] = stats.NewHist()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := conn.RegisterThread()
			r := stats.NewRNG(uint64(w) + 99)
			type inflight struct {
				p      *flock.Pending
				isScan bool
				at     time.Time
			}
			// CallAsync pipeline: a FIFO window of futures, each matched
			// to its call by the per-call completion table — no sequence
			// bookkeeping on this side of the API.
			var pending []inflight
			for {
				select {
				case <-stop:
					for _, f := range pending {
						f.p.Cancel()
					}
					return
				default:
				}
				for len(pending) < window {
					key := r.Uint64n(keys) + 1
					isScan := r.Uint64n(10) == 0
					req := make([]byte, 16)
					binary.LittleEndian.PutUint64(req, key)
					var p *flock.Pending
					var err error
					if isScan {
						binary.LittleEndian.PutUint64(req[8:], 64)
						p, err = th.CallAsync(rpcScan, req, flock.CallOptions{})
					} else {
						p, err = th.CallAsync(rpcGet, req[:8], flock.CallOptions{})
					}
					if err != nil {
						return
					}
					pending = append(pending, inflight{p: p, isScan: isScan, at: time.Now()})
				}
				f := pending[0]
				pending = pending[:copy(pending, pending[1:])]
				resp, err := f.p.Wait()
				if err != nil {
					return
				}
				resp.Release() // only the completion is needed; recycle the buffer
				lat := uint64(time.Since(f.at).Nanoseconds())
				if f.isScan {
					scans.Add(1)
					scanHist[w].Record(lat)
				} else {
					gets.Add(1)
					getHist[w].Record(lat)
				}
			}
		}(w)
	}
	time.Sleep(runWindow)
	close(stop)
	wg.Wait()

	allGet, allScan := stats.NewHist(), stats.NewHist()
	for w := 0; w < nThreads; w++ {
		allGet.Merge(getHist[w])
		allScan.Merge(scanHist[w])
	}
	total := gets.Load() + scans.Load()
	fmt.Printf("ops=%d (%.1f%% get) throughput=%.0f ops/s\n",
		total, 100*float64(gets.Load())/float64(total), float64(total)/runWindow.Seconds())
	fmt.Printf("get  p50=%-8v p99=%v\n", time.Duration(allGet.Median()), time.Duration(allGet.P99()))
	fmt.Printf("scan p50=%-8v p99=%v\n", time.Duration(allScan.Median()), time.Duration(allScan.P99()))
	m := server.Metrics()
	fmt.Printf("coalescing degree at server: %.2f\n", float64(m.ItemsIn)/float64(m.MsgsIn))
}
