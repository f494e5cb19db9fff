package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"p2pbackup/internal/experiments"
	"p2pbackup/internal/sim"
)

// unitRun is the outcome of one unit: its host cost, every
// simulation's result in variant order (nil where the run failed), and
// the traced instrumentation when a tracer was attached.
type unitRun struct {
	wall, cpu time.Duration
	// parts split wall and cpu by simulation for single runs; a sweep is
	// one part.
	partWall, partCPU []time.Duration
	rounds            int64
	results           []*sim.Result
	failures          []string
	digest            string
	model             modelStats

	// Traced runs only.
	probes    []*countingProbe // variant order
	roundTime []time.Duration  // StepRound durations (single runs)
	engine    *sim.Simulation  // the last single run's end state

	// Sweep only: each variant's wall time, from its Variant.Probes
	// factory call to its EventRow, and the worker pool size.
	variantWall []time.Duration
	workers     int
}

// runUnit executes one unit of a workload's plan. tr, when non-nil,
// decorates every simulation with the tracer's instrumentation.
func runUnit(ctx context.Context, p plan, tr *tracer) (unitRun, error) {
	var u unitRun
	if p.campaign != nil {
		if err := u.sweep(ctx, p, tr); err != nil {
			return u, err
		}
	} else {
		for _, cfg := range p.configs {
			if err := u.single(ctx, cfg, tr); err != nil {
				return u, err
			}
		}
	}
	u.rounds = p.rounds()
	h := sha256.New()
	for i, res := range u.results {
		fmt.Fprintf(h, "run %d\n", i)
		if res == nil {
			fmt.Fprintln(h, "failed")
			continue
		}
		if err := checkResult(res); err != nil {
			u.fail(i, res, fmt.Errorf("post-run check: %w", err))
			continue
		}
		if tr != nil {
			if err := checkTrace(res, u.probes[i]); err != nil {
				u.fail(i, res, fmt.Errorf("trace check: %w", err))
				continue
			}
		}
		if err := writeDigest(h, res); err != nil {
			return u, fmt.Errorf("digest: %w", err)
		}
		u.model.add(res)
	}
	u.digest = fmt.Sprintf("sha256:%x", h.Sum(nil))
	return u, nil
}

// fail records a failed run.
func (u *unitRun) fail(i int, res *sim.Result, err error) {
	u.results[i] = nil
	name := fmt.Sprintf("run %d", i)
	if res != nil {
		name = fmt.Sprintf("run %d (seed %d, threshold %d)", i, res.Config.Seed, res.Config.RepairThreshold)
	}
	u.failures = append(u.failures, fmt.Sprintf("%s: %v", name, err))
}

// failAll fails every run of the unit for a unit-level reason.
func (u *unitRun) failAll(reason string) {
	for i := range u.results {
		u.results[i] = nil
	}
	u.failures = append(u.failures, reason)
}

// single runs one simulation through sim.New and StepRound/Run,
// appending its result to the unit's. Only the rounds are timed.
func (u *unitRun) single(ctx context.Context, cfg sim.Config, tr *tracer) error {
	if tr != nil {
		var err error
		if cfg, err = tr.decorate(cfg); err != nil {
			return err
		}
		probe := &countingProbe{}
		cfg.Probes = append(append([]sim.Probe(nil), cfg.Probes...), probe)
		cfg.PhaseTimes = true
		u.probes = append(u.probes, probe)
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	c0, t0 := cpuTime(), time.Now()
	if tr != nil {
		err = stepAll(s, &u.roundTime)
	}
	var res *sim.Result
	if err == nil {
		res, err = s.RunContext(ctx)
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	u.wall += wall
	u.cpu += cpu
	u.partWall = append(u.partWall, wall)
	u.partCPU = append(u.partCPU, cpu)
	if tr != nil {
		u.engine = s
	}
	u.results = append(u.results, res)
	if err != nil {
		u.fail(len(u.results)-1, nil, err)
	}
	return nil
}

// stepAll advances s to its horizon one StepRound at a time, recording
// each round's host time. An engine panic is returned as an error, as
// RunContext would.
func stepAll(s *sim.Simulation, times *[]time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in round %d: %v", s.Round(), r)
		}
	}()
	for {
		t := time.Now()
		if !s.StepRound() {
			return nil
		}
		*times = append(*times, time.Since(t))
	}
}

// sweep runs the plan's campaign through experiments.Runner on every
// core.
func (u *unitRun) sweep(ctx context.Context, p plan, tr *tracer) error {
	camp := *p.campaign
	n := len(camp.Variants)
	u.results = make([]*sim.Result, n)
	u.workers = min(runtime.NumCPU(), n)
	start := make([]time.Time, n)
	if tr != nil {
		var err error
		if camp.Base, err = tr.decorate(camp.Base); err != nil {
			return err
		}
		camp.Base.PhaseTimes = true
		u.probes = make([]*countingProbe, n)
		u.variantWall = make([]time.Duration, n)
		camp.Variants = append([]experiments.Variant(nil), camp.Variants...)
		for i := range camp.Variants {
			// The factory runs on the worker goroutine just before the
			// variant's sim.New; each index is written by one goroutine
			// and read after its EventRow arrives.
			camp.Variants[i].Probes = func() []sim.Probe {
				start[i] = time.Now()
				u.probes[i] = &countingProbe{gaps: true}
				return []sim.Probe{u.probes[i]}
			}
		}
	}
	c0, t0 := cpuTime(), time.Now()
	var done error
	for ev := range (experiments.Runner{Parallelism: u.workers}).Stream(ctx, camp) {
		switch ev.Kind {
		case experiments.EventRow:
			u.results[ev.Variant] = ev.Row.Result
			if tr != nil {
				u.variantWall[ev.Variant] = time.Since(start[ev.Variant])
			}
		case experiments.EventFailed:
			u.fail(ev.Variant, nil, ev.Err)
		case experiments.EventDone:
			done = ev.Err
		}
	}
	u.wall, u.cpu = time.Since(t0), cpuTime()-c0
	u.partWall, u.partCPU = []time.Duration{u.wall}, []time.Duration{u.cpu}
	if done != nil {
		return fmt.Errorf("campaign: %w", done)
	}
	return nil
}

// setupBatch times n back-to-back set-ups of a workload's unit as one
// interval: each builds the plan from the seed and constructs every
// simulation it runs, ready for round 0, dropping the previous set-up's
// engines.
func setupBatch(w workload, seed uint64, n int) (time.Duration, error) {
	var sims []*sim.Simulation
	t := time.Now()
	for range n {
		p, err := newPlan(w, seed, 0)
		if err != nil {
			return 0, err
		}
		sims = sims[:0]
		for _, cfg := range p.configs {
			s, err := sim.New(cfg)
			if err != nil {
				return 0, err
			}
			sims = append(sims, s)
		}
	}
	d := time.Since(t)
	runtime.KeepAlive(sims)
	return d, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
