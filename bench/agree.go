package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// -agree is the acceptance check the benchmark is held to, run by hand:
// two sets of runs of the same code, every run a fresh process, run i of
// a set with seed+i. For every (end-to-end metric, workload) pair it
// prints both medians, how much worse the second is, the bound, and the
// spread of each set (interquartile range over median, from -runs 2 up).
// It exits non-zero when a second median is worse than the first by more
// than the bound, when a spread other than setup_s's exceeds the bound,
// or when any run failed an op or a verification check.

func runAgree(seed uint64, seconds float64, runs int) int {
	if runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -runs is at least 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// sets[set][workload][metric] holds one value per run.
	var sets [2]map[string]map[string][]float64
	clean := true
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, wd := range workloadDefs {
			vals := map[string][]float64{}
			sets[set][wd.Name] = vals
			for i := 0; i < runs; i++ {
				res, err := runChild(exe, wd.Name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d: %v\n", set+1, wd.Name, seed+uint64(i), err)
					return 1
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Fprintf(os.Stderr, "bench: set %d %s seed %d: correct=%v failed=%d of %d\n",
						set+1, wd.Name, seed+uint64(i), res.Correct, res.Failed, res.Attempted)
					clean = false
				}
				for name, m := range res.Metrics {
					vals[name] = append(vals[name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: set %d %s done\n", set+1, wd.Name)
		}
	}

	fmt.Printf("%-15s %-19s %14s %14s %8s %7s %8s %8s\n",
		"workload", "metric", "median 1", "median 2", "worse", "bound", "spread 1", "spread 2")
	misses := 0
	for _, wd := range workloadDefs {
		for _, d := range endToEndDefs {
			a, b := sets[0][wd.Name][d.Name], sets[1][wd.Name][d.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.Better == higher {
				worse = -worse
			}
			sa, sb := iqrShare(a), iqrShare(b)
			verdict := ""
			if worse > d.Bound || (d.Name != "setup_s" && max(sa, sb) > d.Bound) {
				verdict = "  MISS"
				misses++
			}
			fmt.Printf("%-15s %-19s %14.4f %14.4f %+8.4f %7.3f %8.4f %8.4f%s\n",
				wd.Name, d.Name, ma, mb, worse, d.Bound, sa, sb, verdict)
		}
	}
	if misses != 0 || !clean {
		fmt.Printf("%d of %d pairs outside their bound\n", misses, len(workloadDefs)*len(endToEndDefs))
		return 1
	}
	return 0
}

// runChild runs one end-to-end pass in a fresh process and parses the
// result line it ends with.
func runChild(exe, workload string, seed uint64, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-trace", "0",
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	res := &result{}
	if jerr := json.Unmarshal(last, res); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no result line: %v", jerr)
	}
	return res, nil // a run that printed a result and exited 1 is reported by its Correct
}

// iqrShare is the distance between the first and third quartile of vs as
// a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives; 0 for fewer than two values.
func iqrShare(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}
