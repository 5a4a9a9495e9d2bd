package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func opSequence(seed uint64, caller int, mix opMix, n int) []op {
	g := newOpGen(seed, caller, mix)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// The generator is the only place the seed enters: the same seed must
// give the same inputs, another seed other inputs.
func TestGeneratorIsSeeded(t *testing.T) {
	for _, mix := range []opMix{mixOneSided, mixKV} {
		a := opSequence(7, 3, mix, 2000)
		if b := opSequence(7, 3, mix, 2000); !reflect.DeepEqual(a, b) {
			t.Errorf("mix %v: the same seed gave two op sequences", mix)
		}
		if b := opSequence(8, 3, mix, 2000); reflect.DeepEqual(a, b) {
			t.Errorf("mix %v: seeds 7 and 8 gave the same op sequence", mix)
		}
		if b := opSequence(7, 4, mix, 2000); reflect.DeepEqual(a, b) {
			t.Errorf("mix %v: callers 3 and 4 gave the same op sequence", mix)
		}
	}

	shardOf := func(k uint64) int { return int(k % kvShards) }
	keys := kvKeyTable(7, kvShards, shardOf)
	if again := kvKeyTable(7, kvShards, shardOf); !reflect.DeepEqual(keys, again) {
		t.Error("the same seed gave two key tables")
	}
	if other := kvKeyTable(8, kvShards, shardOf); reflect.DeepEqual(keys, other) {
		t.Error("seeds 7 and 8 gave the same key table")
	}
	for i, k := range keys {
		if shardOf(k) != i%kvShards {
			t.Errorf("key %d is in shard %d, want %d", i, shardOf(k), i%kvShards)
		}
	}

	a, b, c := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	fillPattern(a, 7, 1)
	fillPattern(b, 7, 1)
	fillPattern(c, 8, 1)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("payload pattern does not follow the seed")
	}
}

// The op mix is honoured and a caller writes only its own keys.
func TestGeneratorMix(t *testing.T) {
	const n, caller = 40000, 5
	var puts, gets int
	for _, o := range opSequence(1, caller, mixKV, n) {
		switch o.kind {
		case opPut:
			puts++
			if o.key/keysPerCaller != caller {
				t.Fatalf("caller %d was told to put key %d", caller, o.key)
			}
		case opGet:
			gets++
			if o.key < 0 || o.key >= kvKeys {
				t.Fatalf("get of key %d", o.key)
			}
		default:
			t.Fatalf("kind %d in the KV mix", o.kind)
		}
	}
	if share := float64(puts) / n; math.Abs(share-0.75) > 0.01 {
		t.Errorf("put share %.3f, want 0.75", share)
	}
}

func TestLadderSelf(t *testing.T) {
	cases := []struct {
		name  string
		rungs map[string]float64
		want  map[string]float64
	}{
		{
			name: "echo workload: no worker or cluster rungs",
			rungs: map[string]float64{
				rungRnicSelf: 3, rungReadRTT: 7, rungEchoInline: 15,
			},
			want: map[string]float64{
				"core.memop_self_us": 4, "core.rpc_self_us": 8, "core.worker_self_us": 0,
				"cluster.service_get_self_us": 0, "cluster.service_put_self_us": 0, "cluster.router_self_us": 0,
			},
		},
		{
			name: "KV workload: every rung",
			rungs: map[string]float64{
				rungRnicSelf: 3, rungReadRTT: 7, rungEchoInline: 15, rungEchoWorker: 25,
				rungDirectGet: 40, rungDirectPut: 125, rungRouterGet: 44, rungRouterPut: 131,
			},
			want: map[string]float64{
				"core.memop_self_us": 4, "core.rpc_self_us": 8, "core.worker_self_us": 10,
				"cluster.service_get_self_us": 15, "cluster.service_put_self_us": 100, "cluster.router_self_us": 5,
			},
		},
		{
			name:  "a rung that read 0 gives no self time",
			rungs: map[string]float64{rungRnicSelf: 0, rungReadRTT: 7, rungEchoInline: 15},
			want: map[string]float64{
				"core.memop_self_us": 0, "core.rpc_self_us": 8, "core.worker_self_us": 0,
				"cluster.service_get_self_us": 0, "cluster.service_put_self_us": 0, "cluster.router_self_us": 0,
			},
		},
	}
	for _, c := range cases {
		if got := ladderSelf(c.rungs); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

func TestRatioArithmetic(t *testing.T) {
	for _, c := range []struct{ num, den, want float64 }{
		{10, 4, 2.5}, {0, 4, 0}, {10, 0, 0}, {0, 0, 0},
	} {
		if got := ratio(c.num, c.den); got != c.want {
			t.Errorf("ratio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrShare(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestLatHist(t *testing.T) {
	// Bucket edges round-trip and widths stay within 1.6 %.
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 15_000, 1 << 20, 1<<36 - 1} {
		low, width := histBucketSpan(histBucketOf(v))
		if v < low || v >= low+width {
			t.Errorf("value %d landed in bucket [%d, %d)", v, low, low+width)
		}
		if v >= histSub && float64(width)/float64(low) > 1.0/histSub {
			t.Errorf("bucket of %d is %d wide", v, width)
		}
	}
	var h latHist
	for v := uint64(1); v <= 100_000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	var a, b latHist
	a.record(100)
	b.record(300)
	a.merge(&b)
	if a.n != 2 || a.quantile(0.99) < 290 {
		t.Errorf("merge lost samples: n=%d p99=%v", a.n, a.quantile(0.99))
	}
}

// Registry names are summed over the network registry and every node.
func TestRegView(t *testing.T) {
	if got := baseName("node12.core.msgs_out"); got != "core.msgs_out" {
		t.Errorf("baseName = %q", got)
	}
	if got := baseName("fabric.packets"); got != "fabric.packets" {
		t.Errorf("baseName = %q", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The tables in defs.go obey the manifest's limits, and BENCHMARK.json at
// the repository root is exactly what they render to.
func TestManifest(t *testing.T) {
	m := buildManifest()
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not a valid manifest name", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("%d workloads named, %d implemented", len(m.Workloads), len(workloads))
	}
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %v", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
	}
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(m.PerLayer))
	}

	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	var got, want any
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	rendered, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rendered, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from defs.go; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
}

// TestSmoke drives every workload through both passes with verification
// on, so a change that breaks a public function the benchmark calls
// fails here and not in the pipeline. The numbers mean nothing at this
// length; only names, correctness and the absence of failed ops count.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six in-process clusters")
	}
	for _, wd := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(smokeConfig(wd.Name, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wd.Name, trace, err)
			}
			// A deadline missed while the rest of the test suite competes
			// for two CPUs is not a defect; a broken call fails every op.
			if !res.Correct || res.Attempted == 0 || res.Failed*100 > res.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					wd.Name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wd.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present=%v)", wd.Name, trace, d.Name, m, ok)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", wd.Name, d.Name)
				}
			}
			if trace && wd.Name == "kv_r0" {
				for _, name := range []string{"cluster.repl_forwards_per_put", "cluster.repl_batch_entries_mean", "cluster.read_gate_waits_per_get"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("kv_r0: %s = %v, want 0", name, v)
					}
				}
			}
		}
	}
}
