package sim

import (
	"strings"
	"sync"
	"testing"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/transfer"
)

// The v3 engine's correctness claim is shard equivalence (shard_test.go)
// with a versioned twist: v3 digests are pinned separately from the v1
// goldens (draw order differs by construction), and every shard count
// S ∈ {1, 2, 4, 8} must reproduce the pinned v3 digest bit for bit —
// the v3 invariant of walk3.go. The pins below were captured by running
// the v3 engine at S=1 on the scenario configs of shard_test.go.

// walkV3Golden holds the pinned v3 digest per scenario name.
var walkV3Golden = map[string]uint64{
	"iid":                0x0cd3b098d706981b,
	"diurnal":            0xa828f56dfb5f10c6,
	"shock":              0x0a89b71e660cd441,
	"bandwidth":          0x81538f462da41cd2,
	"adaptive":           0xd04a5b0e4306a059,
	"adaptive-bandwidth": 0x533495d926d49707,
}

// TestWalkV3ShardEquivalence: for every scenario of the determinism
// matrix, the v3 digest must equal the pinned v3 golden at S=1 and be
// identical for S ∈ {2, 4, 8}.
func TestWalkV3ShardEquivalence(t *testing.T) {
	for _, sc := range shardScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.cfg
			ref.Walk = WalkV3
			ref.Shards = 1
			want := digestRun(t, ref)
			if golden := walkV3Golden[sc.name]; golden != 0 && want != golden {
				t.Errorf("v3 S=1 digest = %#x, want pinned %#x (v3 trajectory drifted)", want, golden)
			}
			for _, shards := range []int{2, 4, 8} {
				cfg := sc.cfg
				cfg.Walk = WalkV3
				cfg.Shards = shards
				if got := digestRun(t, cfg); got != want {
					t.Errorf("v3 S=%d digest = %#x, want %#x (v3 merge diverged from S=1)", shards, got, want)
				}
			}
		})
	}
}

// TestWalkV3ReplayEquivalence: the replay engine under v3 — a trace
// recorded on the v1 path replays to the same digest at every v3 shard
// count.
func TestWalkV3ReplayEquivalence(t *testing.T) {
	rec := digestConfig()
	rec.RecordTrace = true
	rec.Observers = nil
	s, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	trace := s.Run().Trace

	var want uint64
	const pinned uint64 = 0xea97e4142bb49fd3
	for i, shards := range []int{1, 2, 4, 8} {
		rep := digestConfig()
		rep.Observers = nil
		rep.Replay = trace
		rep.StrategySpec = "monitored-availability"
		rep.Walk = WalkV3
		rep.Shards = shards
		got := digestRun(t, rep)
		if i == 0 {
			want = got
			if pinned != 0 && want != pinned {
				t.Errorf("v3 replay S=1 digest = %#x, want pinned %#x", want, pinned)
			}
			continue
		}
		if got != want {
			t.Errorf("v3 replay S=%d digest = %#x, want %#x", shards, got, want)
		}
	}
}

// abortProbe counts transfer aborts and completions: both occurring in
// one run is the signature of deaths (or session drops) racing
// deliveries.
type abortProbe struct {
	BaseProbe
	aborts, completes int
}

func (p *abortProbe) ProbeEvents() EventSet {
	return EventTransferAbort | EventTransferComplete
}
func (p *abortProbe) OnTransferAbort(TransferEvent)    { p.aborts++ }
func (p *abortProbe) OnTransferComplete(TransferEvent) { p.completes++ }

// TestWalkV3EdgeCases targets the merge's corner geometry: more shards
// than slots, a two-shard split whose boundary repair traffic must
// straddle constantly (tight quota forces cross-boundary placements),
// and kill shocks under bandwidth mode so same-round cross-shard
// death-vs-delivery collisions occur. Each case is held to its own
// S=1 reference, and where a case targets an edge, an S=2 run asserts
// that the scenario actually hit it.
func TestWalkV3EdgeCases(t *testing.T) {
	bw, err := transfer.Parse("skewed")
	if err != nil {
		t.Fatal(err)
	}

	shardsOverSlots := digestConfig()
	shardsOverSlots.NumPeers = 40
	shardsOverSlots.Rounds = 300

	straddle := digestConfig()
	straddle.NumPeers = 64
	straddle.Quota = 48 // tight: owners must place across the S=2 boundary
	straddle.Rounds = 400

	deathVsDelivery := digestConfig()
	deathVsDelivery.Bandwidth = bw
	deathVsDelivery.Shocks = []ShockSpec{
		{Name: "regional-kill", Rate: 0.02, Fraction: 0.3, Regions: 4, Kill: true},
	}

	// crossings counts placements whose owner and host sit on opposite
	// sides of the S=2 boundary, in each direction.
	crossings := func(t *testing.T, cfg Config) {
		s := runV3S2(t, cfg)
		boundary := overlay.PeerID(cfg.NumPeers / 2)
		lowHigh, highLow := 0, 0
		var buf []overlay.PeerID
		for id := 0; id < cfg.NumPeers; id++ {
			owner := overlay.PeerID(id)
			buf = s.Ledger().Hosts(owner, buf[:0])
			for _, h := range buf {
				switch {
				case owner < boundary && h >= boundary:
					lowHigh++
				case owner >= boundary && h < boundary:
					highLow++
				}
			}
		}
		if lowHigh == 0 || highLow == 0 {
			t.Fatalf("no cross-shard placements (low->high %d, high->low %d); scenario does not exercise the boundary", lowHigh, highLow)
		}
	}
	races := func(t *testing.T, cfg Config) {
		probe := &abortProbe{}
		runV3S2(t, cfg, probe)
		if probe.aborts == 0 || probe.completes == 0 {
			t.Fatalf("aborts=%d completes=%d; scenario does not race deaths against deliveries", probe.aborts, probe.completes)
		}
	}

	cases := []struct {
		name   string
		cfg    Config
		shards []int
		verify func(t *testing.T, cfg Config)
	}{
		{"shards-over-slots", shardsOverSlots, []int{64, 256}, nil},
		{"boundary-straddle", straddle, []int{2, 4}, crossings},
		{"death-vs-delivery", deathVsDelivery, []int{2, 8}, races},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg
			ref.Walk = WalkV3
			ref.Shards = 1
			want := digestRun(t, ref)
			for _, shards := range tc.shards {
				cfg := tc.cfg
				cfg.Walk = WalkV3
				cfg.Shards = shards
				if got := digestRun(t, cfg); got != want {
					t.Errorf("S=%d digest = %#x, want %#x", shards, got, want)
				}
			}
			if tc.verify != nil {
				tc.verify(t, tc.cfg)
			}
		})
	}
}

// runV3S2 runs cfg on the v3 engine at two shards with the probes
// attached and returns the finished simulation.
func runV3S2(t *testing.T, cfg Config, probes ...Probe) *Simulation {
	t.Helper()
	cfg.Walk = WalkV3
	cfg.Shards = 2
	cfg.Probes = append(cfg.Probes, probes...)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s
}

// TestWalkV3SlotStreams pins the v3 randomness seam: one stream per
// population slot, derived from (seed, v3SlotStreamBase + slot),
// disjoint from the redundancy stream.
func TestWalkV3SlotStreams(t *testing.T) {
	cfg := digestConfig()
	cfg.Walk = WalkV3
	cfg.Shards = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.v3 == nil || len(s.v3.streams) != cfg.NumPeers {
		t.Fatalf("v3 state = %+v, want %d slot streams", s.v3, cfg.NumPeers)
	}
	for _, slot := range []int{0, 1, cfg.NumPeers / 2, cfg.NumPeers - 1} {
		want := rng.New(rng.Derive(cfg.Seed, v3SlotStreamBase+uint64(slot))).Uint64()
		if got := s.v3.streams[slot].Uint64(); got != want {
			t.Errorf("slot %d stream not derived from (seed, base+%d)", slot, slot)
		}
	}
	for i := 0; i < 64; i++ {
		if v3SlotStreamBase+uint64(i) == redunStreamIndex {
			t.Fatalf("slot stream index %d collides with the redundancy stream", i)
		}
	}
}

// TestWalkV3S1RunsShardedPath: v3 at S<=1 must still construct the
// sharded scaffolding (one worker, one shard range over the whole
// population) so S=1 executes the same code path as S=k — that is what
// makes the S=1 digest a valid reference.
func TestWalkV3S1RunsShardedPath(t *testing.T) {
	cfg := digestConfig()
	cfg.Walk = WalkV3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.v3 == nil || s.v3.n != 1 || len(s.v3.workers) != 1 {
		t.Fatalf("v3 state = %+v, want one worker", s.v3)
	}
	if lo, hi := s.v3.shardRange(0); lo != 0 || hi != cfg.NumPeers {
		t.Fatalf("single shard range = [%d,%d), want [0,%d)", lo, hi, cfg.NumPeers)
	}
}

// impurePolicy is a Policy without the PureScore marker: the v3 config
// guard must reject it (the shard-local planner evaluates scores
// concurrently and relies on purity).
type impurePolicy struct{}

func (impurePolicy) Name() string                                                         { return "impure" }
func (impurePolicy) AcceptProb(selection.Context, selection.View, selection.View) float64 { return 1 }
func (impurePolicy) Score(selection.Context, selection.View) float64                      { return 0 }

// TestWalkConfigGuards: unknown walk modes, v3-unsupported options and
// sharding without v3 fail validation with errors naming the offender;
// the default normalises to v1.
func TestWalkConfigGuards(t *testing.T) {
	base := digestConfig()

	def, err := base.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if def.Walk != WalkV1 {
		t.Errorf("default Walk normalised to %q, want %q", def.Walk, WalkV1)
	}

	bad := base
	bad.Walk = "v2"
	if _, err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "v2") {
		t.Errorf("Walk=v2 error = %v, want unknown-mode error naming it", err)
	}

	impure := base
	impure.Walk = WalkV3
	impure.Policy = impurePolicy{}
	if _, err := impure.Validate(); err == nil || !strings.Contains(err.Error(), "pure") {
		t.Errorf("v3+impure-policy error = %v, want rejection naming purity", err)
	}

	for _, walk := range []string{"", WalkV1} {
		sharded := base
		sharded.Walk = walk
		sharded.Shards = 2
		if _, err := sharded.Validate(); err == nil || !strings.Contains(err.Error(), "Shards") {
			t.Errorf("Walk=%q Shards=2 error = %v, want rejection naming Shards", walk, err)
		}
		if _, err := New(sharded); err == nil {
			t.Errorf("New accepted Walk=%q with Shards=2", walk)
		}
	}
	for _, shards := range []int{0, 1} {
		single := base
		single.Shards = shards
		if _, err := single.Validate(); err != nil {
			t.Errorf("v1 Shards=%d unexpectedly rejected: %v", shards, err)
		}
	}

	// The same impure policy is fine under v1.
	v1 := base
	v1.Policy = impurePolicy{}
	if _, err := v1.Validate(); err != nil {
		t.Errorf("v1+impure-policy unexpectedly rejected: %v", err)
	}
}

// TestWalkV3ConcurrentRuns is the race-detector stress for the v3 walk,
// merge and plan/apply: several v3 simulations at different shard
// counts run concurrently in one process; every run must produce the
// S=1 v3 digest.
func TestWalkV3ConcurrentRuns(t *testing.T) {
	cfg := digestConfig()
	cfg.NumPeers = 600
	cfg.Rounds = 200
	cfg.Shocks = []ShockSpec{
		{Name: "blackout", Round: 60, Fraction: 1.0, Outage: 24},
	}
	ref := cfg
	ref.Walk = WalkV3
	ref.Shards = 1
	want := digestRun(t, ref)

	const runs = 8
	digests := make([]uint64, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := cfg
			run.Walk = WalkV3
			run.Shards = 2 + i%7 // S in [2, 8]
			d := newDigestProbe()
			run.Probes = append(run.Probes, d)
			s, err := New(run)
			if err != nil {
				errs[i] = err
				return
			}
			res := s.Run()
			d.mix(res.Deaths, res.Cancels, int64(res.FinalPlacements), int64(res.FinalIncluded))
			digests[i] = d.h.Sum64()
		}(i)
	}
	wg.Wait()
	for i, got := range digests {
		if errs[i] != nil {
			t.Errorf("concurrent v3 run %d: %v", i, errs[i])
			continue
		}
		if got != want {
			t.Errorf("concurrent v3 run %d (S=%d) digest = %#x, want %#x", i, 2+i%7, got, want)
		}
	}
}

// TestWalkV3PhaseTimes: phase accounting fills Result.Phases under both
// engines without perturbing the digest.
func TestWalkV3PhaseTimes(t *testing.T) {
	for _, walk := range []string{WalkV1, WalkV3} {
		cfg := digestConfig()
		cfg.NumPeers = 64
		cfg.Rounds = 100
		cfg.Walk = walk
		plain := digestRun(t, cfg)

		timed := cfg
		timed.PhaseTimes = true
		if got := digestRun(t, timed); got != plain {
			t.Errorf("walk=%s: PhaseTimes changed the digest: %#x vs %#x", walk, got, plain)
		}

		s, err := New(timed)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if res.Phases == nil {
			t.Fatalf("walk=%s: Result.Phases nil with PhaseTimes set", walk)
		}
		total := res.Phases.Walk + res.Phases.Merge + res.Phases.Maintenance +
			res.Phases.TransferDrain + res.Phases.Evaluation
		if total <= 0 {
			t.Errorf("walk=%s: phase breakdown sums to %v, want > 0", walk, total)
		}

		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res2 := s2.Run(); res2.Phases != nil {
			t.Errorf("walk=%s: Result.Phases non-nil without PhaseTimes", walk)
		}
	}
}
