// Command bench is the repository's benchmark: one closed-loop load
// generator for the RPC, one-sided and replicated-KV paths of the FLock
// library, run over the in-process software fabric. See README.md in this
// directory for the workloads, the metrics and how to read the ladder.
//
//	go run ./bench                                  # every workload, both passes
//	go run ./bench -workload kv_r2 -trace 0         # one end-to-end run
//	go run ./bench -workload kv_r2 -trace 1         # one per-layer run
//	go run ./bench -agree -runs 10                  # the acceptance check
//	go run ./bench -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload    = flag.String("workload", "", "run one workload and print its result as one JSON line (default: all, as a table)")
		seed        = flag.Uint64("seed", 1, "seed of the input generator: op mix, keys, payload bytes")
		seconds     = flag.Float64("seconds", runSeconds, "measured span of a run")
		trace       = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		outDir      = flag.String("out", "bench/out", "directory for result files; empty writes none")
		smoke       = flag.Bool("smoke", false, "every workload, both passes, a fraction of a second each")
		agree       = flag.Bool("agree", false, "run the suite twice in fresh processes and compare against the bounds")
		runs        = flag.Int("runs", 1, "with -agree: runs per workload and set, each with its own seed")
		manifestOut = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}

	switch {
	case *manifestOut:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	case *agree:
		return runAgree(*seed, *seconds, *runs)
	case *workload != "":
		return runOne(defaultConfig(*workload, *seed, *seconds, *trace == 1), *outDir)
	}
	return runSuite(*seed, *seconds, *smoke, *outDir)
}

// runOne is the driver's entry: one workload, one pass, the result as the
// last line of standard output.
func runOne(cfg runConfig, outDir string) int {
	res, err := runAndWrite(cfg, outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	reportProblems(cfg.workload, res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAndWrite performs one run and leaves its result file.
func runAndWrite(cfg runConfig, outDir string) (*result, error) {
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	return res, writeResultFile(outDir, cfg, res)
}

func reportProblems(workload string, res *result) {
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: verification failed: %s\n", workload, p)
	}
	for msg, n := range res.OpErrors {
		fmt.Fprintf(os.Stderr, "bench: %s: %d ops failed: %s\n", workload, n, msg)
	}
}

// smokeConfig is a run short enough for the test suite: every code path,
// no claim to a stable number.
func smokeConfig(workload string, seed uint64, trace bool) runConfig {
	cfg := runConfig{
		workload: workload, seed: seed, seconds: 0.2, windows: 2,
		warmup: 30 * time.Millisecond, trace: trace, setupReps: 1,
	}
	if trace {
		cfg.seconds, cfg.windows = 0.3, 3
	}
	return cfg
}

// runSuite runs every workload, the end-to-end pass then the traced one,
// and prints every metric by name with its unit.
func runSuite(seed uint64, seconds float64, smoke bool, outDir string) int {
	code := 0
	for _, wd := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := defaultConfig(wd.Name, seed, seconds, trace)
			if smoke {
				cfg = smokeConfig(wd.Name, seed, trace)
			}
			res, err := runAndWrite(cfg, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			pass, defs := "end-to-end", endToEndDefs
			if trace {
				pass, defs = "per-layer", perLayerDefs
			}
			fmt.Printf("== %s  %s  seed=%d  attempted=%d failed=%d correct=%v\n",
				wd.Name, pass, seed, res.Attempted, res.Failed, res.Correct)
			for _, d := range defs {
				fmt.Printf("%-36s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
			reportProblems(wd.Name, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// resultFile is what a run leaves under -out: the result with the
// environment it was measured in.
type resultFile struct {
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	*result
}

// writeResultFile writes the run to a new timestamped file; an existing
// file is never rewritten.
func writeResultFile(dir string, cfg runConfig, res *result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pass := "e2e"
	if cfg.trace {
		pass = "layers"
	}
	name := fmt.Sprintf("%s/%s-%s-%s-seed%d-%d.json", dir,
		time.Now().UTC().Format("20060102T150405.000000000Z"), cfg.workload, pass, cfg.seed, os.Getpid())
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(resultFile{Env: stampEnv(cfg, res), Workload: cfg.workload, Trace: cfg.trace, result: res})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
