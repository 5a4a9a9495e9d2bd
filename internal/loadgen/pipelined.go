package loadgen

import (
	"fmt"
	"time"

	"flock/internal/core"
)

// Pipelined returns the step of a worker that keeps depth calls of RPC 1 in
// flight on th, each submitted with the plan opts, and retires the oldest
// (which is where a plan of more than one attempt runs its retries). Each
// Pending owns its completion record, so this is the supported interleaving
// pattern — no sequence matching. A completed call's latency, submission to
// completion, is Observed; whatever is still in flight when the worker
// leaves its loop is canceled.
func Pipelined(w *Worker, th *core.Thread, payload []byte, depth int, opts core.CallOptions) Step {
	type call struct {
		p  *core.Pending
		at time.Time
	}
	var fly []call
	w.OnRetire(func() {
		for _, c := range fly {
			c.p.Cancel()
		}
	})
	return func() (int, error) {
		// A submission that fails does not stop the oldest call in flight
		// from being retired first: a worker that tolerates the error must
		// not spin on a refusing handle with its window full.
		var submitErr error
		for len(fly) < depth && submitErr == nil {
			p, err := th.CallAsync(1, payload, opts)
			if submitErr = err; err == nil {
				fly = append(fly, call{p: p, at: time.Now()})
			}
		}
		if len(fly) == 0 {
			return 0, submitErr
		}
		c := fly[0]
		fly = fly[:copy(fly, fly[1:])]
		r, err := c.p.Wait()
		if err != nil {
			return 0, err
		}
		defer r.Release()
		if r.Status != core.StatusOK {
			return 0, fmt.Errorf("loadgen: response status %d", r.Status)
		}
		w.Observe(time.Since(c.at))
		return 1, submitErr
	}
}
