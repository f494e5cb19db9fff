package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
)

// The traced run measures the layers from the outside: decorators
// around the selection and redundancy policies passed in through
// sim.Config, and a counting probe attached through sim.Config.Probes
// (experiments.Variant.Probes for the sweep). Nothing here changes a
// trajectory: the decorators forward every call and every capability
// marker, and probes consume no randomness.

// selectionCounters accumulates calls and busy time of a policy. The
// v3 plan phase and concurrent sweep variants score in parallel, so
// every field is atomic.
type selectionCounters struct {
	scoreCalls, scoreNs   atomic.Int64
	acceptCalls, acceptNs atomic.Int64
}

// countingPolicy times and counts a selection.Policy's calls.
type countingPolicy struct {
	inner selection.Policy
	c     *selectionCounters
}

func (p countingPolicy) Name() string { return p.inner.Name() }

func (p countingPolicy) AcceptProb(ctx selection.Context, acceptor, requester selection.View) float64 {
	t := time.Now()
	v := p.inner.AcceptProb(ctx, acceptor, requester)
	p.c.acceptNs.Add(int64(time.Since(t)))
	p.c.acceptCalls.Add(1)
	return v
}

func (p countingPolicy) Score(ctx selection.Context, candidate selection.View) float64 {
	t := time.Now()
	v := p.inner.Score(ctx, candidate)
	p.c.scoreNs.Add(int64(time.Since(t)))
	p.c.scoreCalls.Add(1)
	return v
}

// PureScore forwards the wrapped policy's marker: without it the v3
// walk rejects the config and the engine's score memo switches off.
func (p countingPolicy) PureScore() bool { return selection.HasPureScore(p.inner) }

// AlwaysAccepts forwards the wrapped policy's marker, which lets the
// engine skip acceptance draws.
func (p countingPolicy) AlwaysAccepts() bool { return selection.AcceptsAll(p.inner) }

// redundancyCounters records every Target call's duration.
type redundancyCounters struct {
	mu      sync.Mutex
	targets []time.Duration
}

// countingRedundancy times a redundancy.Policy's Target calls.
type countingRedundancy struct {
	inner redundancy.Policy
	c     *redundancyCounters
}

func (p countingRedundancy) Name() string         { return p.inner.Name() }
func (p countingRedundancy) Static() bool         { return p.inner.Static() }
func (p countingRedundancy) Initial(k, n int) int { return p.inner.Initial(k, n) }
func (p countingRedundancy) EvalEvery() int64     { return p.inner.EvalEvery() }
func (p countingRedundancy) SamplePeers() int     { return p.inner.SamplePeers() }
func (p countingRedundancy) Bind(k, kprime, n int) (redundancy.Policy, error) {
	bound, err := p.inner.Bind(k, kprime, n)
	if err != nil {
		return nil, err
	}
	return countingRedundancy{inner: bound, c: p.c}, nil
}

func (p countingRedundancy) Target(obs redundancy.Observation) int {
	t := time.Now()
	v := p.inner.Target(obs)
	d := time.Since(t)
	p.c.mu.Lock()
	p.c.targets = append(p.c.targets, d)
	p.c.mu.Unlock()
	return v
}

// countingProbe counts the events of one simulation. When gaps is set
// it also records the host time between consecutive round ends, which
// is how a sweep variant's rounds are timed.
type countingProbe struct {
	sim.BaseProbe
	gaps     bool
	last     time.Time
	roundGap []time.Duration

	repairs, uploaded, dropped, stalls, cancels int64
	deaths, churn                               int64
	grows, shrinks, parityAdded                 int64
	started                                     [2]int64 // by transfer.Kind
	completed, aborted                          int64
}

// ProbeEvents declares only the events the probe counts.
func (p *countingProbe) ProbeEvents() sim.EventSet {
	set := sim.EventChurn | sim.EventDeath | sim.EventRepair | sim.EventStall | sim.EventCancel |
		sim.EventTransferStart | sim.EventTransferComplete | sim.EventTransferAbort |
		sim.EventRedundancyChange
	if p.gaps {
		set |= sim.EventRoundEnd
	}
	return set
}

func (p *countingProbe) OnChurn(sim.ChurnEvent) { p.churn++ }
func (p *countingProbe) OnDeath(sim.PeerEvent)  { p.deaths++ }
func (p *countingProbe) OnStall(sim.PeerEvent)  { p.stalls++ }
func (p *countingProbe) OnCancel(sim.PeerEvent) { p.cancels++ }

func (p *countingProbe) OnRepair(e sim.RepairEvent) {
	if !e.Initial {
		p.repairs++
	}
	p.uploaded += int64(e.Uploaded)
	p.dropped += int64(e.Dropped)
}

func (p *countingProbe) OnTransferStart(e sim.TransferEvent) {
	if int(e.Kind) < len(p.started) {
		p.started[e.Kind]++
	}
}

func (p *countingProbe) OnTransferComplete(sim.TransferEvent) { p.completed++ }
func (p *countingProbe) OnTransferAbort(sim.TransferEvent)    { p.aborted++ }

func (p *countingProbe) OnRedundancyChange(e sim.RedundancyEvent) {
	if e.To > e.From {
		p.grows++
		p.parityAdded += int64(e.To - e.From)
	} else {
		p.shrinks++
	}
}

func (p *countingProbe) OnRoundEnd(sim.RoundEndEvent) {
	now := time.Now()
	if !p.last.IsZero() {
		p.roundGap = append(p.roundGap, now.Sub(p.last))
	}
	p.last = now
}

// add folds another simulation's counts into p.
func (p *countingProbe) add(o *countingProbe) {
	p.repairs += o.repairs
	p.uploaded += o.uploaded
	p.dropped += o.dropped
	p.stalls += o.stalls
	p.cancels += o.cancels
	p.deaths += o.deaths
	p.churn += o.churn
	p.grows += o.grows
	p.shrinks += o.shrinks
	p.parityAdded += o.parityAdded
	for k := range p.started {
		p.started[k] += o.started[k]
	}
	p.completed += o.completed
	p.aborted += o.aborted
	p.roundGap = append(p.roundGap, o.roundGap...)
}

// tracer is one traced unit's instrumentation, shared by every
// simulation of the unit.
type tracer struct {
	sel   selectionCounters
	redun redundancyCounters
}

// decorate wraps a config's selection and redundancy policies with the
// tracer's counting decorators. The inner policies are the ones
// sim.Config.Validate would pick, so the run's trajectory is unchanged.
// The redundancy policy is wrapped unbound: each simulation binds it to
// its own repair threshold.
func (t *tracer) decorate(cfg sim.Config) (sim.Config, error) {
	norm, err := cfg.Validate()
	if err != nil {
		return cfg, err
	}
	pol := cfg.Redundancy
	if pol == nil {
		if pol, err = redundancy.Parse(cfg.RedundancySpec); err != nil {
			return cfg, err
		}
	}
	cfg.Policy = countingPolicy{inner: norm.Policy, c: &t.sel}
	cfg.Redundancy = countingRedundancy{inner: pol, c: &t.redun}
	return cfg, nil
}

// Compile-time checks that the decorators implement the interfaces and
// markers they forward.
var (
	_ selection.Policy  = countingPolicy{}
	_ redundancy.Policy = countingRedundancy{}
	_ sim.EventDeclarer = (*countingProbe)(nil)
)

// quantile returns the q-quantile of durations by the nearest-rank
// rule; 0 for an empty slice. It sorts ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[max(0, min(i, len(ds)-1))]
}
