package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envStamp says where and how a result was measured, so two result files
// can be told comparable or not without asking anyone.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	WarmupS    float64 `json:"warmup_s"`
	ClockNS    float64 `json:"bench.clock_ns"`
}

func stampEnv(cfg runConfig, res *result) envStamp {
	return envStamp{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Windows:    cfg.windows,
		WarmupS:    cfg.warmup.Seconds(),
		ClockNS:    res.clockNS,
	}
}

// gitCommit is HEAD of the working directory's repository, or "unknown"
// outside one (the driver's checkout is not a repository).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
