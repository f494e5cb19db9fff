package sim

import (
	"hash/fnv"
	"testing"

	"p2pbackup/internal/churn"
)

// The digests below were captured by running the pre-refactor engine
// (the per-round full-population scan, commit a5c3969) on the scenario
// configs in this file. The event-driven core — calendar-queue
// scheduler plus incrementally maintained active sets — must reproduce
// the exact probe event stream of the scan engine: every churn event,
// repair, outage, loss, stall, cancel, shock and round-end, field for
// field, in emission order. A digest mismatch means the refactor
// changed a simulated trajectory, not just the engine's cost profile.

// digestProbe folds every probe event (kind tag plus all fields, in
// emission order) into an FNV-1a hash.
type digestProbe struct {
	h interface {
		Write([]byte) (int, error)
		Sum64() uint64
	}
}

func newDigestProbe() *digestProbe { return &digestProbe{h: fnv.New64a()} }

func (d *digestProbe) mix(vals ...int64) {
	var buf [8]byte
	for _, v := range vals {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

func (d *digestProbe) OnChurn(e ChurnEvent) {
	d.mix(1, e.Round, int64(e.Peer), int64(e.Kind), int64(e.Profile))
}
func (d *digestProbe) OnDeath(e PeerEvent) {
	d.mix(2, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnRepair(e RepairEvent) {
	init := int64(0)
	if e.Initial {
		init = 1
	}
	d.mix(3, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile), init, int64(e.Uploaded), int64(e.Dropped))
}
func (d *digestProbe) OnOutage(e PeerEvent) {
	d.mix(4, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnHardLoss(e PeerEvent) {
	d.mix(5, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnStall(e PeerEvent) {
	d.mix(6, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnCancel(e PeerEvent) {
	d.mix(7, e.Round, int64(e.Peer), int64(e.Category), int64(e.Profile))
}
func (d *digestProbe) OnShock(e ShockEvent) {
	killed := int64(0)
	if e.Killed {
		killed = 1
	}
	d.mix(8, e.Round, int64(e.Index), int64(e.Victims), killed)
}
func (d *digestProbe) OnObserverRepair(e ObserverRepairEvent) {
	d.mix(9, e.Round, int64(e.Observer))
}
func (d *digestProbe) OnRoundEnd(e RoundEndEvent) {
	vals := make([]int64, 0, len(e.Population)+2)
	vals = append(vals, 10, e.Round)
	for _, p := range e.Population {
		vals = append(vals, p)
	}
	d.mix(vals...)
}

// Transfer events never fire in instant mode, so mixing them keeps the
// historical digests intact while pinning bandwidth-mode streams.
// OnRepair deliberately does not mix Elapsed: the field was added after
// the goldens were captured.
func (d *digestProbe) OnTransferStart(e TransferEvent) {
	d.mix(11, e.Round, e.ID, int64(e.Kind), int64(e.Owner), int64(e.Host), int64(e.Blocks), e.Elapsed)
}
func (d *digestProbe) OnTransferComplete(e TransferEvent) {
	d.mix(12, e.Round, e.ID, int64(e.Kind), int64(e.Owner), int64(e.Host), int64(e.Blocks), e.Elapsed)
}
func (d *digestProbe) OnTransferAbort(e TransferEvent) {
	d.mix(13, e.Round, e.ID, int64(e.Kind), int64(e.Owner), int64(e.Host), int64(e.Blocks), e.Elapsed)
}

// Redundancy events never fire in fixed mode (same preservation rule as
// the transfer events above); mixing them pins adaptive-mode streams.
// OnRoundEnd likewise does not mix MeanRedundancy: it is 0 in fixed
// mode and fully determined by the OnRedundancyChange stream otherwise.
func (d *digestProbe) OnRedundancyChange(e RedundancyEvent) {
	d.mix(14, e.Round, int64(e.Peer), int64(e.From), int64(e.To))
}

// digestRun executes cfg with a digest probe attached and folds the
// result counters into the final hash.
func digestRun(t *testing.T, cfg Config) uint64 {
	t.Helper()
	d := newDigestProbe()
	cfg.Probes = append(cfg.Probes, d)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	d.mix(res.Deaths, res.Cancels, int64(res.FinalPlacements), int64(res.FinalIncluded))
	return d.h.Sum64()
}

// digestConfig is the paper's configuration scaled down (population,
// horizon and code shape shrunk together) so a full scenario run takes
// well under a second while still exercising deaths, repairs, stalls,
// losses and observer maintenance.
func digestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeers = 300
	cfg.Rounds = 500
	cfg.TotalBlocks = 32
	cfg.DataBlocks = 16
	cfg.RepairThreshold = 20
	cfg.Quota = 96
	cfg.PoolSamplePerRound = 32
	cfg.AcceptHorizon = 72
	cfg.Observers = PaperObservers()
	cfg.Seed = 42
	return cfg
}

// TestGoldenScenarioDigests: the event-driven engine must reproduce the
// scan engine's trajectories bit-identically under every churn regime.
func TestGoldenScenarioDigests(t *testing.T) {
	shockCfg := digestConfig()
	shockCfg.Shocks = []ShockSpec{
		{Name: "blackout", Round: 120, Fraction: 0.5, Outage: 24},
		{Name: "regional-kill", Rate: 0.01, Fraction: 0.3, Regions: 4, Kill: true},
	}
	diurnalCfg := digestConfig()
	diurnalCfg.Avail = churn.DefaultDiurnalModel(0.6)

	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"iid", digestConfig(), 0xb0298adf8abb6acd},
		{"diurnal", diurnalCfg, 0xc1c1ef64a949edb6},
		{"shock", shockCfg, 0x27e7bdc89614a401},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := digestRun(t, tc.cfg)
			if got != tc.want {
				t.Errorf("digest = %#x, want %#x (trajectory drifted from the scan engine)", got, tc.want)
			}
		})
	}
}

// TestGoldenWalkV1Explicit guards against walk-mode drift: an explicit
// Walk=v1 must be byte-for-byte the zero-value default — both reproduce
// the pre-versioning goldens, so introducing the v3 engine changed
// nothing about existing configs.
func TestGoldenWalkV1Explicit(t *testing.T) {
	cfg := digestConfig()
	cfg.Walk = WalkV1
	const want uint64 = 0xb0298adf8abb6acd // the "iid" golden above
	if got := digestRun(t, cfg); got != want {
		t.Errorf("Walk=v1 digest = %#x, want golden %#x (v1 path drifted)", got, want)
	}
}

// TestGoldenReplayDigest records a trace from a generative run and
// replays it under a different selection strategy: the replay engine's
// event stream must also stay bit-identical to the scan engine's.
func TestGoldenReplayDigest(t *testing.T) {
	rec := digestConfig()
	rec.RecordTrace = true
	rec.Observers = nil
	s, err := New(rec)
	if err != nil {
		t.Fatal(err)
	}
	trace := s.Run().Trace

	rep := digestConfig()
	rep.Observers = nil
	rep.Replay = trace
	rep.StrategySpec = "monitored-availability"
	const want uint64 = 0x069cd8d20f8f8853
	if got := digestRun(t, rep); got != want {
		t.Errorf("replay digest = %#x, want %#x (trajectory drifted from the scan engine)", got, want)
	}
}

// TestModeGoldenDigests pins the v1 engine in the two modes the
// scenario goldens above do not reach: bandwidth-scheduled uploads
// (DSL links, a blackout and a restore crowd, so repairs run through
// the transfer scheduler and compete with downloads) and adaptive
// redundancy (archives grow and shrink, so targets and triggers resolve
// per owner), alone and combined. The observers stay unmetered in every
// row, covering the instant path beside the scheduled one.
func TestModeGoldenDigests(t *testing.T) {
	flash := bandwidthConfig(t, "dsl")
	flash.Shocks = []ShockSpec{{Name: "blackout", Round: 200, Fraction: 0.4, Outage: 48}}
	flash.Restores = []RestoreSpec{{Name: "crowd", Round: 210, Fraction: 0.5}}
	adaptBw := adaptiveConfig()
	adaptBw.Bandwidth = bandwidthConfig(t, "dsl").Bandwidth

	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"bandwidth-dsl-restores", flash, 0x6fa647fcff2daaed},
		{"adaptive", adaptiveConfig(), 0x7f01304e5b321066},
		{"adaptive-bandwidth-dsl", adaptBw, 0xa07f6ac7ba214d38},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := digestRun(t, tc.cfg)
			if got != tc.want {
				t.Errorf("digest = %#x, want %#x (v1 trajectory drifted)", got, tc.want)
			}
		})
	}
}
