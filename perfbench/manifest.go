package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"p2pbackup/internal/sim"
)

// manifest records what produced a result: the code, the machine and
// the workload's parameters, so any number can be traced back to them.
type manifest struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	RunSeconds int    `json:"run_seconds"`
	Units      int    `json:"units"`
	Digest     string `json:"digest"`
	// SetupBatch is how many set-ups one setup_s sample times.
	SetupBatch int `json:"setup_batch,omitempty"`
	// StealRatio is the share of all CPUs' time the hypervisor gave to
	// other guests while the units ran (-1 where /proc/stat is
	// unavailable); a set of runs that drifts slower shows it here.
	StealRatio float64 `json:"steal_ratio"`

	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`

	Params params `json:"params"`
	// Validation states how the simulated statistics relate to the paper.
	Validation string `json:"validation"`
}

// params are the workload's simulation parameters.
type params struct {
	Runs        int    `json:"runs"`
	Peers       int    `json:"peers"`
	Rounds      int64  `json:"rounds_per_run"`
	Blocks      string `json:"code_n_k"`
	Thresholds  []int  `json:"thresholds"`
	Walk        string `json:"walk"`
	Shards      int    `json:"shards"`
	Redundancy  string `json:"redundancy"`
	Bandwidth   bool   `json:"bandwidth_dsl"`
	Shocks      int    `json:"shock_specs"`
	Restores    int    `json:"restore_crowds"`
	Parallelism int    `json:"runner_parallelism"`
}

func newManifest(w workload, seed uint64, trace bool, p plan) manifest {
	m := manifest{
		Workload:   w.name,
		Seed:       seed,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
		Validation: "none: the repository holds no reference numbers from the paper, so the simulated statistics carry no error figure",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	c := p.configs[0]
	m.Params = params{
		Runs:       len(p.configs),
		Peers:      c.NumPeers,
		Rounds:     c.Rounds,
		Blocks:     fmt.Sprintf("%d/%d", c.TotalBlocks, c.DataBlocks),
		Walk:       c.Walk,
		Shards:     c.Shards,
		Redundancy: c.RedundancySpec,
		Bandwidth:  c.Bandwidth != nil,
		Shocks:     len(c.Shocks),
		Restores:   len(c.Restores),
	}
	if m.Params.Walk == "" {
		m.Params.Walk = sim.WalkV1
	}
	if m.Params.Redundancy == "" {
		m.Params.Redundancy = "fixed"
	}
	for _, cfg := range p.configs {
		m.Params.Thresholds = append(m.Params.Thresholds, cfg.RepairThreshold)
	}
	if p.campaign != nil {
		m.Params.Parallelism = min(runtime.NumCPU(), len(p.configs))
	}
	return m
}

// cpuModel reads the processor name from /proc/cpuinfo; "unknown"
// where it is unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is a reading of the machine-wide CPU time counters.
type cpuTicks struct {
	steal, total uint64
	ok           bool
}

// readSteal reads the steal and total ticks of all CPUs from /proc/stat.
func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var c cpuTicks
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		c.total += n
		if i == 7 {
			c.steal = n
		}
	}
	c.ok = true
	return c
}

// since is the steal share of the CPU time elapsed since c was read, or
// -1 when it cannot be read.
func (c cpuTicks) since() float64 {
	now := readSteal()
	if !c.ok || !now.ok || now.total <= c.total {
		return -1
	}
	return float64(now.steal-c.steal) / float64(now.total-c.total)
}
