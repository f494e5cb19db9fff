package main

import (
	"context"
	"strings"
	"testing"

	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// tinyConfig is a population small enough for unit tests that still
// churns, repairs and loses archives.
func tinyConfig(walk string) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 60
	cfg.Rounds = 400
	cfg.Seed = 7
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 48
	cfg.Walk = walk
	if walk == sim.WalkV3 {
		cfg.Shards = 2
	}
	return cfg
}

// tinyPlans are one single-run plan per feature the workloads use, plus
// a sweep through experiments.Runner.
func tinyPlans(t *testing.T, walk string) map[string]plan {
	t.Helper()
	adaptive := tinyConfig(walk)
	adaptive.RedundancySpec = "adaptive"
	flash := tinyConfig(walk)
	bw, err := transfer.Parse("dsl")
	if err != nil {
		t.Fatal(err)
	}
	flash.Bandwidth = bw
	flash.Shocks = []sim.ShockSpec{{Name: "attrition", Rate: 0.01, Fraction: 0.2, Regions: 4, Kill: true}}
	flash.Restores = []sim.RestoreSpec{{Name: "crowd", Round: 200, Fraction: 0.3}, {Name: "crowd", Round: 300, Fraction: 0.3}}
	sweep, err := sweepPlan(tinyConfig(walk), []int{9, 10, 12})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]plan{
		"fixed":    {configs: []sim.Config{tinyConfig(walk)}},
		"adaptive": {configs: []sim.Config{adaptive}},
		"flash":    {configs: []sim.Config{flash}},
		"sweep":    sweep,
	}
}

func forEachWalk(t *testing.T, f func(t *testing.T, walk string)) {
	for _, walk := range []string{sim.WalkV1, sim.WalkV3} {
		t.Run(walk, func(t *testing.T) { f(t, walk) })
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	forEachWalk(t, func(t *testing.T, walk string) {
		for name, p := range tinyPlans(t, walk) {
			t.Run(name, func(t *testing.T) {
				ctx := context.Background()
				plain, err := runUnit(ctx, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				traced, err := runUnit(ctx, p, &tracer{})
				if err != nil {
					t.Fatal(err)
				}
				if len(plain.failures)+len(traced.failures) > 0 {
					t.Fatalf("failed runs: %v %v", plain.failures, traced.failures)
				}
				if plain.digest != traced.digest {
					t.Fatalf("traced digest %s != untraced %s", traced.digest, plain.digest)
				}
				var repairs int64
				for _, res := range plain.results {
					repairs += res.Collector.TotalRepairs()
				}
				if repairs == 0 {
					t.Fatal("the tiny run did no repairs; the digest proves little")
				}
			})
		}
	})
}

func TestDecoratedPolicyValidatesUnderV3(t *testing.T) {
	for _, spec := range []string{"", "random", "monitored-availability"} {
		cfg := tinyConfig(sim.WalkV3)
		cfg.StrategySpec = spec
		dec, err := (&tracer{}).decorate(cfg)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		norm, err := dec.Validate()
		if err != nil {
			t.Fatalf("%q: decorated config rejected: %v", spec, err)
		}
		if _, ok := norm.Policy.(countingPolicy); !ok {
			t.Fatalf("%q: Validate replaced the decorated policy with %T", spec, norm.Policy)
		}
	}
}

func TestTargetCallsZeroOnFixedPolicy(t *testing.T) {
	forEachWalk(t, func(t *testing.T, walk string) {
		plans := tinyPlans(t, walk)
		for name, want := range map[string]bool{"fixed": false, "adaptive": true} {
			tr := &tracer{}
			if _, err := runUnit(context.Background(), plans[name], tr); err != nil {
				t.Fatal(err)
			}
			if calls := len(tr.redun.targets); (calls > 0) != want {
				t.Errorf("%s: %d Target calls, want calls=%v", name, calls, want)
			}
		}
	})
}

func TestTracedRunConfirmsBypasses(t *testing.T) {
	p := tinyPlans(t, sim.WalkV1)["fixed"]
	tr := &tracer{}
	u, err := runUnit(context.Background(), p, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := report{metrics: map[string]metric{}}
	rep.layerMetrics(u, tr)
	norm, err := p.configs[0].Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.checkBypasses(norm, u.rounds); len(v) > 0 || len(rep.bypasses) != 3 {
		t.Fatalf("bypasses %v, violated %v", rep.bypasses, v)
	}
	// A layer that did work where none was predicted is reported.
	rep.metrics["transfer.completed"] = metric{Value: 1}
	if v := rep.checkBypasses(norm, u.rounds); len(v) != 1 || !strings.Contains(v[0], "transfer") {
		t.Fatalf("injected transfer work not reported: %v", v)
	}
}

func TestCheckResultRejectsImpossibleOutput(t *testing.T) {
	u, err := runUnit(context.Background(), tinyPlans(t, sim.WalkV1)["fixed"], nil)
	if err != nil {
		t.Fatal(err)
	}
	res := *u.results[0]
	if err := checkResult(&res); err != nil {
		t.Fatalf("a correct run failed its checks: %v", err)
	}
	res.FinalIncluded = res.Config.NumPeers + 1
	if err := checkResult(&res); err == nil {
		t.Fatal("FinalIncluded > NumPeers passed the checks")
	}
}

func TestWorkloadsBuild(t *testing.T) {
	for _, w := range workloads {
		p, err := newPlan(w, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, cfg := range p.configs {
			if _, err := cfg.Validate(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
	}
	if _, err := lookupWorkload("no-such-workload"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
