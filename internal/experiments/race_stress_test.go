package experiments

import (
	"context"
	"testing"

	"p2pbackup/internal/sim"
)

// TestRunnerShardedStress drives both parallelism layers at once: the
// Runner fans whole variants out to 8 workers while every variant's
// v3 simulation internally fans its walk, warm and maintenance-plan
// phases out to 4 shard workers. Under -race this is the cross-layer
// interleaving check; the rows must still be value-identical to a
// fully sequential v3 run (Parallelism 1, Shards 1).
func TestRunnerShardedStress(t *testing.T) {
	cfg := microConfig()
	cfg.Walk = sim.WalkV3
	camp, err := ThresholdCampaign(cfg, []int{9, 10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	serialCamp := camp
	rows, err := Runner{Parallelism: 1}.Run(context.Background(), serialCamp)
	if err != nil {
		t.Fatal(err)
	}

	sharded := cfg
	sharded.Shards = 4
	shardedCamp, err := ThresholdCampaign(sharded, []int{9, 10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Runner{Parallelism: 8}.Run(context.Background(), shardedCamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(rows))
	}
	a := ThresholdSweepFromRows(rows)
	b := ThresholdSweepFromRows(got)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs between sequential and sharded runs:\n%+v\n%+v",
				i, a.Points[i], b.Points[i])
		}
	}
}
