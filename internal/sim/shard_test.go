package sim

import (
	"fmt"
	"testing"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/transfer"
)

// The sharded engine's correctness claim is equivalence, not
// similarity: for every scenario the probe-event digest — every churn
// event, repair, outage, loss, stall, cancel, shock, transfer and
// round-end, field for field, in emission order, plus the result
// counters — must be identical at every shard count (the v3 invariant
// of walk3.go).

// shardScenarios returns the equivalence suite: the golden scenarios
// of determinism_test.go plus bandwidth and adaptive-redundancy runs.
func shardScenarios(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	shockCfg := digestConfig()
	shockCfg.Shocks = []ShockSpec{
		{Name: "blackout", Round: 120, Fraction: 0.5, Outage: 24},
		{Name: "regional-kill", Rate: 0.01, Fraction: 0.3, Regions: 4, Kill: true},
	}
	diurnalCfg := digestConfig()
	diurnalCfg.Avail = churn.DefaultDiurnalModel(0.6)
	bwCfg := digestConfig()
	bw, err := transfer.Parse("skewed")
	if err != nil {
		t.Fatal(err)
	}
	bwCfg.Bandwidth = bw
	adaptCfg := digestConfig()
	adaptCfg.RedundancySpec = "adaptive"
	adaptBwCfg := digestConfig()
	adaptBwCfg.Bandwidth = bw
	adaptBwCfg.RedundancySpec = "adaptive:target=0.95,eval=12"
	return []struct {
		name string
		cfg  Config
	}{
		{"iid", digestConfig()},
		{"diurnal", diurnalCfg},
		{"shock", shockCfg},
		{"bandwidth", bwCfg},
		{"adaptive", adaptCfg},
		{"adaptive-bandwidth", adaptBwCfg},
	}
}

// TestShardEquivalenceRandomizedConfigs is the testing/quick-style
// sweep: random seeds, population sizes, horizons and shard counts,
// each v3 run compared against its own S=1 reference digest.
// Parameters are drawn from a fixed-seed generator so a failure
// reproduces exactly.
func TestShardEquivalenceRandomizedConfigs(t *testing.T) {
	r := rng.New(0xC0FFEE)
	iters := 10
	if testing.Short() {
		iters = 4
	}
	for i := 0; i < iters; i++ {
		cfg := DefaultConfig()
		cfg.Walk = WalkV3
		cfg.Seed = r.Uint64()
		cfg.TotalBlocks = 16
		cfg.DataBlocks = 8
		cfg.RepairThreshold = 10 + r.Intn(5)
		cfg.Quota = 48
		cfg.PoolSamplePerRound = 8 + r.Intn(32)
		cfg.AcceptHorizon = int64(24 + r.Intn(96))
		cfg.NumPeers = cfg.TotalBlocks + 1 + r.Intn(150)
		cfg.Rounds = int64(60 + r.Intn(180))
		if r.Bool(0.3) {
			cfg.Observers = PaperObservers()
		}
		if r.Bool(0.3) {
			cfg.Avail = churn.DefaultDiurnalModel(0.3 + 0.5*r.Float64())
		}
		if r.Bool(0.5) {
			cfg.RedundancySpec = "adaptive:eval=" + []string{"6", "24"}[r.Intn(2)]
		}
		shards := 2 + r.Intn(8)
		name := fmt.Sprintf("i=%d/peers=%d/rounds=%d/shards=%d", i, cfg.NumPeers, cfg.Rounds, shards)
		t.Run(name, func(t *testing.T) {
			ref := cfg
			ref.Shards = 1
			want := digestRun(t, ref)
			got := cfg
			got.Shards = shards
			if g := digestRun(t, got); g != want {
				t.Errorf("seed=%#x S=%d digest = %#x, want %#x", cfg.Seed, shards, g, want)
			}
		})
	}
}

// TestShardRangePartition: the shard ranges must partition [0,
// NumPeers) exactly — contiguous, disjoint, covering — including when
// the shard count exceeds the slot count.
func TestShardRangePartition(t *testing.T) {
	for _, tc := range []struct{ peers, shards int }{
		{300, 2}, {300, 3}, {300, 7}, {17, 16}, {17, 64}, {2, 9},
	} {
		v3 := &v3State{n: tc.shards, peers: tc.peers}
		next := 0
		for i := 0; i < tc.shards; i++ {
			lo, hi := v3.shardRange(i)
			if lo != next || hi < lo || hi > tc.peers {
				t.Fatalf("peers=%d shards=%d: shard %d range [%d,%d), want start %d",
					tc.peers, tc.shards, i, lo, hi, next)
			}
			next = hi
		}
		if next != tc.peers {
			t.Fatalf("peers=%d shards=%d: ranges cover [0,%d), want [0,%d)", tc.peers, tc.shards, next, tc.peers)
		}
	}
}
