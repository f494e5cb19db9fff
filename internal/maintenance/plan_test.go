package maintenance

import (
	"testing"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// TestApplyPlanUnmeteredOwnerIgnoresQuota drives the plan/apply pair
// directly for an unmetered owner (an observer) whose every candidate
// is at quota: the plan places on them because observers do not
// consume quota, so the apply phase must land those placements rather
// than re-check the metered quota and drop them.
func TestApplyPlanUnmeteredOwnerIgnoresQuota(t *testing.T) {
	const peers = 10
	led := overlay.NewLedger(peers, 1)
	tab := overlay.NewTable(peers)
	env := &fakeEnv{ages: make([]int64, peers), n: 9} // observers sample only peers 0..8
	p := Params{TotalBlocks: 4, DataBlocks: 2, RepairThreshold: 3, PoolSamplePerRound: 64,
		DropOffline: true, CancelOnRecover: true}
	m := New(p, led, tab, mustPolicy(t, "random"), env)
	m.SetUnmetered(9, true)

	// Fill every sampleable host to its quota of one block.
	for h := overlay.PeerID(1); h < 9; h++ {
		if err := led.Place(0, h); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	for h := overlay.PeerID(0); h < 9; h++ {
		if led.FreeQuota(h) != 0 {
			t.Fatalf("host %d has free quota %d, want 0", h, led.FreeQuota(h))
		}
	}

	ws := NewWorkspace(peers, env.View)
	m.PlanStep(rng.New(6), 9, ws)
	if len(ws.Results) != 1 {
		t.Fatalf("planned %d results, want 1", len(ws.Results))
	}
	res := m.ApplyPlan(ws, &ws.Results[0])
	if res.Outcome != OutcomeInitialDone || res.Uploaded != p.TotalBlocks {
		t.Fatalf("step = %+v, want initial-done with %d blocks uploaded", res, p.TotalBlocks)
	}
	if got := led.Alive(9); got != p.TotalBlocks {
		t.Fatalf("observer holds %d blocks, want %d", got, p.TotalBlocks)
	}
	if err := led.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
