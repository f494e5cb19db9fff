package main

import (
	"fmt"
	"runtime"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/experiments"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// workload is one named input set. A unit of work is one execution of
// the workload: every simulation it builds, run for rounds rounds from
// a fresh engine. The workload seed is the only input that varies
// between runs of the benchmark.
type workload struct {
	name string
	// rounds is each simulation's length in one unit.
	rounds int64
	// runs is how many independent simulations, on seeds derived from
	// the workload seed, one unit pools: more archives per unit average
	// out seed-to-seed variation.
	runs int
	// sweep runs the paper's threshold campaign over the (single) run's
	// config through experiments.Runner instead of sim.New.
	sweep bool
	// config builds the workload's base configuration.
	config func(seed uint64, rounds int64) (sim.Config, error)
}

var workloads = []workload{
	{
		name:   "fig1-sweep",
		rounds: 4000,
		runs:   1,
		sweep:  true,
		config: smokeConfig,
	},
	{
		name:   "adaptive-smoke",
		rounds: 200,
		runs:   3,
		config: func(seed uint64, rounds int64) (sim.Config, error) {
			cfg, err := smokeConfig(seed, rounds)
			cfg.RedundancySpec = "adaptive"
			return cfg, err
		},
	},
	{
		name:   "flashcrowd-dsl",
		rounds: 1500,
		runs:   3,
		config: flashCrowdConfig,
	},
	{
		name:   "paper-pop-v3",
		rounds: 1500,
		runs:   1,
		config: func(seed uint64, rounds int64) (sim.Config, error) {
			cfg := sim.DefaultConfig()
			cfg.Seed = seed
			cfg.Rounds = rounds
			cfg.Walk = sim.WalkV3
			cfg.Shards = runtime.NumCPU()
			return cfg, nil
		},
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// smokeConfig is the smoke-scale paper configuration: 600 peers, fixed
// n=256/k=128, instant links, the default (v1) engine.
func smokeConfig(seed uint64, rounds int64) (sim.Config, error) {
	cfg, err := experiments.BaseConfig(experiments.ScaleSmoke)
	cfg.Seed = seed
	cfg.Rounds = rounds
	return cfg, err
}

// flashCrowdStart is the first restore crowd's round: two weeks, so
// initial backups have completed and repairs are under way.
const flashCrowdStart = 2 * churn.Week

// flashCrowdConfig is BenchmarkFlashCrowdRound's regime at smoke scale:
// DSL-class links, regional kill shocks at one per week taking 20% of a
// region, and a restore crowd of 30% of peers every week after warm-up.
func flashCrowdConfig(seed uint64, rounds int64) (sim.Config, error) {
	cfg, err := smokeConfig(seed, rounds)
	if err != nil {
		return cfg, err
	}
	if cfg.Bandwidth, err = transfer.Parse("dsl"); err != nil {
		return cfg, err
	}
	for round := int64(churn.Week); round < rounds; round += churn.Week {
		cfg.Shocks = append(cfg.Shocks, sim.ShockSpec{Name: "attrition", Round: round, Fraction: 0.2, Regions: 8, Kill: true})
	}
	for round := int64(flashCrowdStart); round < rounds; round += churn.Week {
		cfg.Restores = append(cfg.Restores, sim.RestoreSpec{Name: "crowd", Round: round, Fraction: 0.3})
	}
	return cfg, nil
}

// plan is one unit's work: the workload's simulation configs, in
// variant order, plus the campaign that runs them for a sweep.
type plan struct {
	configs  []sim.Config
	campaign *experiments.Campaign
}

// newPlan builds a workload's unit for a seed. shards, when positive,
// overrides the configured shard count.
func newPlan(w workload, seed uint64, shards int) (plan, error) {
	var p plan
	for i := 0; i < w.runs; i++ {
		cfg, err := w.config(seed*uint64(w.runs)+uint64(i), w.rounds)
		if err != nil {
			return plan{}, fmt.Errorf("%s: %w", w.name, err)
		}
		if shards > 0 {
			cfg.Shards = shards
		}
		p.configs = append(p.configs, cfg)
	}
	if !w.sweep {
		return p, nil
	}
	p, err := sweepPlan(p.configs[0], experiments.PaperThresholds())
	if err != nil {
		return plan{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return p, nil
}

// sweepPlan is a threshold campaign over base: its variant configs, as
// experiments.Runner materialises them, and the campaign itself.
func sweepPlan(base sim.Config, thresholds []int) (plan, error) {
	camp, err := experiments.ThresholdCampaign(base, thresholds)
	if err != nil {
		return plan{}, err
	}
	p := plan{campaign: &camp}
	for _, v := range camp.Variants {
		// The Runner's materialisation order: base, variant seed, mutation.
		cfg := camp.Base
		if v.Seed != 0 {
			cfg.Seed = v.Seed
		}
		if v.Mutate != nil {
			v.Mutate(&cfg)
		}
		p.configs = append(p.configs, cfg)
	}
	return p, nil
}

// rounds is the number of simulated rounds one unit executes.
func (p plan) rounds() int64 {
	var n int64
	for _, c := range p.configs {
		n += c.Rounds
	}
	return n
}
