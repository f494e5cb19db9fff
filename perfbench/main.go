package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// Measurement settings. A run repeats units until the next one would
// overrun the requested seconds, but always runs at least minUnits. It
// then times set-up in samples of back-to-back set-ups lasting at least
// setupSample each, at least minSetups samples and more until
// setupBudget is spent, and reports the median sample per set-up.
const (
	minUnits    = 3
	minSetups   = 5
	maxSetups   = 100
	setupSample = 100 * time.Millisecond
	setupBudget = 1500 * time.Millisecond
	// clockFloor bounds the per-round time an empty engine phase
	// records: the phase timer's own clock reads.
	clockFloor = 2 * time.Microsecond
	// setOnlineSample is how many hosts the ledger sample flips.
	setOnlineSample = 4096
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q (%v), seconds %d, trace %d\n", *name, err, *seconds, *trace)
		return 2
	}
	var rep report
	if *trace == 1 {
		rep, err = traced(context.Background(), w, *seed)
	} else {
		rep, err = measured(context.Background(), w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.manifest.RunSeconds = *seconds
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// report is everything one invocation prints.
type report struct {
	manifest  manifest
	model     modelStats
	attempted int
	failed    int      // runs that failed
	failures  []string // why each failure happened
	bypasses  []string
	unitRates []float64 // rounds per second of each measured unit
	metrics   map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) addUnit(u unitRun) {
	r.attempted += len(u.results)
	for _, res := range u.results {
		if res == nil {
			r.failed++
		}
	}
	r.failures = append(r.failures, u.failures...)
}

// print writes the human-readable lines, the manifest and, last, the
// result object.
func (r report) print(out io.Writer) error {
	m := r.manifest
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v units=%d\n", m.Workload, m.Seed, m.Trace, m.Units)
	fmt.Fprintf(out, "digest %s seed=%d %s\n", m.Workload, m.Seed, m.Digest)
	if len(r.unitRates) > 0 {
		fmt.Fprintf(out, "units rounds_per_s=%.6g\n", r.unitRates)
	}
	for _, b := range r.bypasses {
		fmt.Fprintf(out, "bypass %s\n", b)
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	fmt.Fprintf(out, "model hard_losses=%d ttr_p95_rounds=%v restore_fail_ratio=%v failed_run_ratio=%v\n",
		r.model.hardLosses, r.model.ttr.Quantile(0.95), r.model.restoreFailRatio(),
		float64(r.failed)/float64(r.attempted))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-32s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	mj, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "manifest %s\n", mj)
	last, err := json.Marshal(result{
		Correct:   r.failed == 0 && len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

// measured is the untraced run: repeated units, then set-up timing,
// reporting the end-to-end metrics.
func measured(ctx context.Context, w workload, seed uint64, budget time.Duration) (report, error) {
	p, err := newPlan(w, seed, 0)
	if err != nil {
		return report{}, err
	}
	rep := report{manifest: newManifest(w, seed, false, p), metrics: map[string]metric{}}
	var rates []float64
	var walls, cpus [][]time.Duration // [part][unit]
	steal := readSteal()
	start := time.Now()
	var first unitRun
	for i := 0; ; i++ {
		// Stop once the next unit, at the mean unit time so far, would
		// end past the budget.
		if elapsed := time.Since(start); i >= minUnits && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
		runtime.GC()
		u, err := runUnit(ctx, p, nil)
		if err != nil {
			return report{}, err
		}
		if i == 0 {
			first = u
		} else if u.digest != first.digest {
			u.failAll(fmt.Sprintf("unit %d: digest %s differs from unit 0's %s: the run is not deterministic", i, u.digest, first.digest))
		}
		rep.addUnit(u)
		rates = append(rates, float64(u.rounds)/u.wall.Seconds())
		if walls == nil {
			walls = make([][]time.Duration, len(u.partWall))
			cpus = make([][]time.Duration, len(u.partCPU))
		}
		for j := range walls {
			walls[j] = append(walls[j], u.partWall[j])
			cpus[j] = append(cpus[j], u.partCPU[j])
		}
	}
	rep.manifest.StealRatio = steal.since()
	// Peak memory is the units', read before set-up's garbage adds to it.
	rss := peakRSSMB()
	// Set-up is timed in the warm process, after the units. Untimed
	// batches of doubling size find one that lasts setupSample.
	batch := 1
	for {
		runtime.GC()
		d, err := setupBatch(w, seed, batch)
		if err != nil {
			return report{}, err
		}
		if d >= setupSample {
			break
		}
		batch *= 2
	}
	var setups []float64
	for t := time.Now(); len(setups) < minSetups || (time.Since(t) < setupBudget && len(setups) < maxSetups); {
		runtime.GC()
		d, err := setupBatch(w, seed, batch)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds()/float64(batch))
	}
	rep.manifest.SetupBatch = batch
	// Each part's median over the units, summed: a burst of machine
	// noise moves a part's median only if it hits that part in half the
	// units.
	var wall, cpu time.Duration
	for j := range walls {
		wall += medianDuration(walls[j])
		cpu += medianDuration(cpus[j])
	}
	rep.unitRates = rates
	rep.model = first.model
	rep.manifest.Units = len(rates)
	rep.manifest.Digest = first.digest
	m := first.model
	rep.set("rounds_per_s", float64(first.rounds)/wall.Seconds(), "1/s")
	rep.set("cpu_s_per_krounds", cpu.Seconds()/float64(first.rounds)*1000, "s")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.set("repairs_per_kpr", m.perKpr(m.repairs), "1/kpr")
	rep.set("storage_overhead", m.storageOverhead(), "ratio")
	rep.set("ttb_p95_rounds", m.ttb.Quantile(0.95), "rounds")
	return rep, nil
}

// traced is the traced run: a warm-up unit, one untraced unit, the same
// unit traced, and for a sharded v3 workload the unit at one shard, all
// of whose digests must match, reporting the per-layer metrics. The
// warm-up pays the fresh process's heap growth, so the ratios compare
// warm units only.
func traced(ctx context.Context, w workload, seed uint64) (report, error) {
	p, err := newPlan(w, seed, 0)
	if err != nil {
		return report{}, err
	}
	rep := report{manifest: newManifest(w, seed, true, p), metrics: map[string]metric{}}
	steal := readSteal()
	warm, err := runUnit(ctx, p, nil)
	if err != nil {
		return report{}, err
	}
	runtime.GC()
	base, err := runUnit(ctx, p, nil)
	if err != nil {
		return report{}, err
	}
	if base.digest != warm.digest {
		base.failAll(fmt.Sprintf("unit 1: digest %s differs from unit 0's %s: the run is not deterministic", base.digest, warm.digest))
	}
	runtime.GC()
	tr := &tracer{}
	t, err := runUnit(ctx, p, tr)
	if err != nil {
		return report{}, err
	}
	rep.layerMetrics(t, tr)
	speedup := 0.0
	if p.configs[0].Walk == sim.WalkV3 {
		runtime.GC()
		one, err := newPlan(w, seed, 1)
		if err != nil {
			return report{}, err
		}
		u1, err := runUnit(ctx, one, nil)
		if err != nil {
			return report{}, err
		}
		if u1.digest != base.digest {
			u1.failAll(fmt.Sprintf("digest at one shard %s differs from %d shards' %s", u1.digest, p.configs[0].Shards, base.digest))
		}
		rep.addUnit(u1)
		speedup = u1.wall.Seconds() / base.wall.Seconds()
	}
	engine := t.engine
	if engine == nil {
		// A sweep's engines stay inside the Runner: rebuild the first
		// variant's end state directly.
		if engine, err = sim.New(p.configs[0]); err != nil {
			return report{}, err
		}
		if _, err := engine.RunContext(ctx); err != nil {
			return report{}, err
		}
	}
	rep.set("sim.shard_speedup", speedup, "ratio")
	rep.set("overlay.set_online_ns", setOnlineNs(engine.Ledger(), seed), "ns")
	rep.set("trace.overhead_ratio", t.wall.Seconds()/base.wall.Seconds(), "ratio")
	norm, err := p.configs[0].Validate()
	if err != nil {
		return report{}, err
	}
	for _, v := range rep.checkBypasses(norm, t.rounds) {
		t.failAll("bypass violated: " + v)
	}
	if t.digest != base.digest {
		t.failAll(fmt.Sprintf("traced digest %s differs from untraced %s", t.digest, base.digest))
	}
	rep.addUnit(warm)
	rep.addUnit(base)
	rep.addUnit(t)
	rep.model = t.model
	rep.manifest.Units = 1
	rep.manifest.StealRatio = steal.since()
	rep.manifest.Digest = t.digest
	return rep, nil
}

// checkBypasses confirms the layers a workload's configuration leaves
// idle did no work in the traced unit, and returns the violated
// predictions. Each prediction follows from the configuration.
func (r *report) checkBypasses(cfg sim.Config, rounds int64) (violated []string) {
	value := func(name string) float64 { return r.metrics[name].Value }
	transfers := value("transfer.uploads_started") + value("transfer.restores_started") +
		value("transfer.completed") + value("transfer.aborted")
	merge := time.Duration(value("sim.merge_s") * float64(time.Second) / float64(rounds))
	for _, p := range []struct {
		name           string
		applies, holds bool
	}{
		{"redundancy.target_calls = 0 under a static redundancy policy",
			cfg.Redundancy.Static(), value("redundancy.target_calls") == 0},
		{"transfer counts = 0 without bandwidth classes or restore demand",
			cfg.Bandwidth == nil && len(cfg.Restores) == 0, transfers == 0},
		{fmt.Sprintf("sim.merge_s below %v per round on the unsharded v1 walk (measured %v)", clockFloor, merge),
			cfg.Walk == sim.WalkV1 && cfg.Shards < 2, merge < clockFloor},
	} {
		switch {
		case !p.applies:
		case p.holds:
			r.bypasses = append(r.bypasses, "holds: "+p.name)
		default:
			r.bypasses = append(r.bypasses, "VIOLATED: "+p.name)
			violated = append(violated, p.name)
		}
	}
	return violated
}

// layerMetrics sets the per-layer metrics a traced unit measured.
func (r *report) layerMetrics(u unitRun, tr *tracer) {
	var ph sim.PhaseTimes
	for _, res := range u.results {
		if res == nil || res.Phases == nil {
			continue
		}
		ph.Walk += res.Phases.Walk
		ph.Merge += res.Phases.Merge
		ph.TransferDrain += res.Phases.TransferDrain
		ph.Evaluation += res.Phases.Evaluation
		ph.Maintenance += res.Phases.Maintenance
	}
	r.set("sim.walk_s", ph.Walk.Seconds(), "s")
	r.set("sim.merge_s", ph.Merge.Seconds(), "s")
	r.set("sim.transfer_drain_s", ph.TransferDrain.Seconds(), "s")
	r.set("sim.evaluation_s", ph.Evaluation.Seconds(), "s")
	r.set("sim.maintenance_s", ph.Maintenance.Seconds(), "s")

	var c countingProbe
	for _, p := range u.probes {
		if p != nil {
			c.add(p)
		}
	}
	rounds := u.roundTime
	if rounds == nil {
		rounds = c.roundGap
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	r.set("sim.round_p50_ms", ms(quantile(rounds, 0.5)), "ms")
	r.set("sim.round_p99_ms", ms(quantile(rounds, 0.99)), "ms")
	r.set("sim.round_max_ms", ms(quantile(rounds, 1)), "ms")
	r.set("sim.churn_events", float64(c.churn), "count")
	r.set("sim.deaths", float64(c.deaths), "count")
	r.set("sim.host_us_per_churn_event", ratio(float64(ph.Walk+ph.Merge)/float64(time.Microsecond), float64(c.churn)), "us")

	r.set("maintenance.repairs", float64(c.repairs), "count")
	r.set("maintenance.blocks_uploaded", float64(c.uploaded), "count")
	r.set("maintenance.blocks_dropped", float64(c.dropped), "count")
	r.set("maintenance.stalls", float64(c.stalls), "count")
	r.set("maintenance.cancels", float64(c.cancels), "count")
	r.set("maintenance.cancel_ratio", ratio(float64(c.cancels), float64(c.repairs+c.cancels)), "ratio")
	r.set("maintenance.losses_per_kpr", u.model.perKpr(u.model.outages), "1/kpr")
	r.set("maintenance.hard_losses", float64(u.model.hardLosses), "count")

	r.set("selection.score_calls", float64(tr.sel.scoreCalls.Load()), "count")
	r.set("selection.score_s", time.Duration(tr.sel.scoreNs.Load()).Seconds(), "s")
	r.set("selection.accept_calls", float64(tr.sel.acceptCalls.Load()), "count")
	r.set("selection.accept_s", time.Duration(tr.sel.acceptNs.Load()).Seconds(), "s")

	targets := tr.redun.targets
	var total time.Duration
	for _, d := range targets {
		total += d
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.set("redundancy.target_calls", float64(len(targets)), "count")
	r.set("redundancy.target_s", total.Seconds(), "s")
	r.set("redundancy.target_p50_us", us(quantile(targets, 0.5)), "us")
	r.set("redundancy.target_p99_us", us(quantile(targets, 0.99)), "us")
	r.set("redundancy.grows", float64(c.grows), "count")
	r.set("redundancy.shrinks", float64(c.shrinks), "count")
	r.set("redundancy.parity_added", float64(c.parityAdded), "count")

	started := c.started[transfer.Upload] + c.started[transfer.Restore]
	r.set("transfer.uploads_started", float64(c.started[transfer.Upload]), "count")
	r.set("transfer.restores_started", float64(c.started[transfer.Restore]), "count")
	r.set("transfer.completed", float64(c.completed), "count")
	r.set("transfer.aborted", float64(c.aborted), "count")
	r.set("transfer.abort_ratio", ratio(float64(c.aborted), float64(started)), "ratio")
	r.set("transfer.ttr_p95_rounds", u.model.ttr.Quantile(0.95), "rounds")
	r.set("transfer.restore_fail_ratio", u.model.restoreFailRatio(), "ratio")

	var p50, maxV, busy float64
	if len(u.variantWall) > 0 {
		walls := append([]time.Duration(nil), u.variantWall...)
		p50 = quantile(walls, 0.5).Seconds()
		maxV = quantile(walls, 1).Seconds()
		for _, d := range walls {
			busy += d.Seconds()
		}
		busy /= float64(u.workers) * u.wall.Seconds()
	}
	r.set("experiments.variant_p50_s", p50, "s")
	r.set("experiments.variant_max_s", maxV, "s")
	r.set("experiments.pool_utilization", busy, "ratio")
}

// setOnlineNs is the mean host time of one Ledger.SetOnline call over a
// seeded sample of hosts on an end-state ledger: each sampled host is
// flipped and flipped back, leaving the ledger's session state as it
// was.
func setOnlineNs(led *overlay.Ledger, seed uint64) float64 {
	r := rng.New(seed)
	hosts := make([]overlay.PeerID, setOnlineSample)
	for i := range hosts {
		hosts[i] = overlay.PeerID(r.Intn(led.NumPeers()))
	}
	t := time.Now()
	for _, h := range hosts {
		on := led.Online(h)
		led.SetOnline(h, !on)
		led.SetOnline(h, on)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(2*len(hosts))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianDuration returns the median of ds (0 when empty).
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
