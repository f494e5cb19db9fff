package main

import (
	"encoding/json"
	"fmt"
	"io"

	"p2pbackup/internal/metrics"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/transfer"
)

// modelStats are a unit's simulated statistics pooled over its runs:
// the modelled backup system's behaviour, in simulated units. They are
// deterministic for a given seed.
type modelStats struct {
	peerRounds, repairs, outages, hardLosses int64
	placements, dataBlocks                   int64 // blocks stored at the end; archives × k
	ttb, ttr                                 metrics.Durations
	restoresFailed                           int64
}

// add pools one run's result.
func (m *modelStats) add(res *sim.Result) {
	cfg, col := res.Config, res.Collector
	for cat := metrics.Category(0); cat < metrics.NumCategories; cat++ {
		c := col.Counts(cat)
		m.peerRounds += c.PeerRounds
		m.repairs += c.Repairs
		if cfg.CountInitialAsRepair {
			m.repairs += c.InitialBackups
		}
		m.outages += c.Outages
		m.hardLosses += c.HardLosses
	}
	m.placements += int64(res.FinalPlacements)
	m.dataBlocks += int64(cfg.NumPeers) * int64(cfg.DataBlocks)
	m.ttb.Merge(col.TimeToBackup())
	m.ttr.Merge(col.TimeToRestore())
	m.restoresFailed += col.RestoresFailed()
}

func (m modelStats) perKpr(n int64) float64 {
	if m.peerRounds == 0 {
		return 0
	}
	return float64(n) / float64(m.peerRounds) * 1000
}

// storageOverhead is stored blocks per data block at the end of the run.
func (m modelStats) storageOverhead() float64 {
	if m.dataBlocks == 0 {
		return 0
	}
	return float64(m.placements) / float64(m.dataBlocks)
}

// restoreFailRatio is the share of demanded restores that failed.
func (m modelStats) restoreFailRatio() float64 {
	total := m.ttr.N() + m.restoresFailed
	if total == 0 {
		return 0
	}
	return float64(m.restoresFailed) / float64(total)
}

// checkResult applies the post-run output checks. Each follows from the
// configuration and holds for any correct run; a violation counts the
// run as failed.
func checkResult(res *sim.Result) error {
	cfg, col := res.Config, res.Collector
	n := int64(cfg.NumPeers)
	if res.FinalIncluded < 0 || int64(res.FinalIncluded) > n {
		return fmt.Errorf("FinalIncluded = %d outside [0, NumPeers = %d]", res.FinalIncluded, n)
	}
	if res.FinalPlacements < 0 || int64(res.FinalPlacements) > n*int64(cfg.TotalBlocks) {
		return fmt.Errorf("FinalPlacements = %d outside [0, NumPeers × TotalBlocks = %d]", res.FinalPlacements, n*int64(cfg.TotalBlocks))
	}
	if int64(res.FinalPlacements) > n*int64(cfg.Quota) {
		return fmt.Errorf("FinalPlacements = %d exceeds NumPeers × Quota = %d", res.FinalPlacements, n*int64(cfg.Quota))
	}
	// Every round adds the whole (constant) population to the category
	// denominators once the warm-up is over.
	var peerRounds int64
	for cat := metrics.Category(0); cat < metrics.NumCategories; cat++ {
		c := col.Counts(cat)
		if c.PeerRounds < 0 || c.Repairs < 0 || c.InitialBackups < 0 || c.Outages < 0 || c.HardLosses < 0 {
			return fmt.Errorf("category %v has a negative count: %+v", cat, c)
		}
		peerRounds += c.PeerRounds
	}
	if want := n * (cfg.Rounds - cfg.Warmup); peerRounds != want {
		return fmt.Errorf("peer-rounds = %d, want NumPeers × measured rounds = %d", peerRounds, want)
	}
	if res.Deaths < 0 || res.Cancels < 0 {
		return fmt.Errorf("negative deaths %d or cancels %d", res.Deaths, res.Cancels)
	}
	if col.TimeToBackup().N() > 0 && col.TimeToBackup().Max() > float64(cfg.Rounds) {
		return fmt.Errorf("time to backup %v exceeds the run's %d rounds", col.TimeToBackup().Max(), cfg.Rounds)
	}
	if col.TimeToRestore().N() > 0 && col.TimeToRestore().Max() > float64(cfg.Rounds) {
		return fmt.Errorf("time to restore %v exceeds the run's %d rounds", col.TimeToRestore().Max(), cfg.Rounds)
	}
	if len(cfg.Restores) == 0 && (col.TimeToRestore().N() > 0 || col.RestoresFailed() > 0) {
		return fmt.Errorf("restores recorded without restore demand")
	}
	if cfg.Redundancy != nil && cfg.Redundancy.Static() && (col.RedundancyGrows() > 0 || col.RedundancyShrinks() > 0) {
		return fmt.Errorf("a static redundancy policy retuned archives")
	}
	return nil
}

// checkTrace cross-checks a traced run's probe counts against the
// engine's own result.
func checkTrace(res *sim.Result, p *countingProbe) error {
	col := res.Collector
	if p.deaths != res.Deaths {
		return fmt.Errorf("probe saw %d deaths, result reports %d", p.deaths, res.Deaths)
	}
	if p.cancels != res.Cancels {
		return fmt.Errorf("probe saw %d cancels, result reports %d", p.cancels, res.Cancels)
	}
	if res.Config.Warmup == 0 && p.repairs != col.TotalRepairs() {
		return fmt.Errorf("probe saw %d repairs, collector reports %d", p.repairs, col.TotalRepairs())
	}
	if p.grows != col.RedundancyGrows() || p.shrinks != col.RedundancyShrinks() {
		return fmt.Errorf("probe saw %d/%d grows/shrinks, collector reports %d/%d",
			p.grows, p.shrinks, col.RedundancyGrows(), col.RedundancyShrinks())
	}
	if started := p.started[transfer.Upload] + p.started[transfer.Restore]; p.completed+p.aborted > started {
		return fmt.Errorf("%d transfers completed and %d aborted of %d started", p.completed, p.aborted, started)
	}
	return nil
}

// writeDigest renders every simulated statistic of a run, exactly (Go's
// shortest round-trip float formatting), for the unit's digest. Host
// timings are not included.
func writeDigest(w io.Writer, res *sim.Result) error {
	col := res.Collector
	fmt.Fprintf(w, "deaths=%d cancels=%d placements=%d included=%d\n",
		res.Deaths, res.Cancels, res.FinalPlacements, res.FinalIncluded)
	for cat := metrics.Category(0); cat < metrics.NumCategories; cat++ {
		fmt.Fprintf(w, "%v %+v\n", cat, col.Counts(cat))
	}
	fmt.Fprintf(w, "profiles repairs=%v losses=%v\n", col.ProfileRepairs(), col.ProfileLosses())
	fmt.Fprintf(w, "shocks=%d victims=%d attributed=%d\n", col.TotalShocks(), col.ShockVictims(), col.ShockAttributedLosses())
	for _, d := range []*metrics.Durations{col.TimeToBackup(), col.TimeToRestore()} {
		fmt.Fprintf(w, "durations n=%d mean=%v min=%v p50=%v p95=%v max=%v\n",
			d.N(), d.Mean(), d.Min(), d.Quantile(0.5), d.Quantile(0.95), d.Max())
	}
	fmt.Fprintf(w, "restores-failed=%d\n", col.RestoresFailed())
	fmt.Fprintf(w, "redundancy grows=%d shrinks=%d parity+=%d parity-=%d\n",
		col.RedundancyGrows(), col.RedundancyShrinks(), col.ParityBlocksAdded(), col.ParityBlocksReclaimed())
	enc := json.NewEncoder(w)
	for cat := metrics.Category(0); cat < metrics.NumCategories; cat++ {
		if err := enc.Encode([]any{col.LossSeries(cat), col.RepairSeries(cat)}); err != nil {
			return err
		}
	}
	return enc.Encode(col.RedundancySeries())
}
