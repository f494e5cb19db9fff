package maintenance

// The maintenance step as plan and apply. This file holds the single
// implementation of the per-peer protocol (trigger, candidate pool,
// decode point, uploads); Step runs it sequentially and the v3 engine
// runs it shard-parallel.
//
// PlanStep runs the decision procedure against the round state as it
// stands — the ledger, table, transfer scheduler and score memo — and
// records every intended ledger or scheduler mutation as a PlannedOp
// in a Workspace instead of performing it. ApplyPlan then executes one
// owner's recorded ops, validating only the resource owners contend
// for: host quota net of transfer reservations. Step plans and applies
// one owner at a time, so the quota it planned against is still there
// at apply time. The v3 engine plans all of a round's owners first —
// one goroutine per shard, each with its own Workspace — and applies
// the plans sequentially in canonical (shard, log) order.
//
// Why frozen reads are sound in the v3 plan phase: nothing mutates the
// ledger, the table or the scheduler while it runs, so every read is
// race-free. During the apply phase an owner's own placement rows are
// mutated only by its own ops, no session flips or deaths occur, and
// candidate liveness/generation is stable; the only way one owner's
// apply can invalidate another's plan is by consuming host quota —
// which is why OpPlace/OpBeginUpload re-check freeQuota and skip on a
// lost race (the owner stays in stateUploading and retries next round,
// deterministically).
//
// Concurrency contract: PlanStep may run concurrently from one
// goroutine per disjoint owner set, each with its own Workspace and its
// own rng stream. It writes only owner-local state (the owner's
// peerState and pool) and Workspace-local scratch, and a Workspace
// from NewWorkspace reads the score memo without storing misses.
// ApplyPlan and Step must run on a single goroutine.

import (
	"fmt"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
)

// OpKind discriminates a PlannedOp.
type OpKind uint8

// Planned-op kinds, in the order a single step can emit them.
const (
	// OpDropOffline replays the decode point's offline write-off: the
	// apply phase re-runs the descending offline scan over the owner's
	// live placements (provably the same set the plan counted).
	OpDropOffline OpKind = iota
	// OpPlace places one block on Host (instant mode).
	OpPlace
	// OpBeginUpload enqueues one block transfer to Host (bandwidth mode).
	OpBeginUpload
)

// PlannedOp is one deferred ledger/scheduler mutation.
type PlannedOp struct {
	Kind OpKind
	Host overlay.PeerID
}

// PlanResult is one owner's planned step: the tentative outcome plus
// the half-open op range [OpStart, OpEnd) in the Workspace op log.
type PlanResult struct {
	Owner overlay.PeerID
	// Res is the step outcome as far as the plan could decide it
	// (cancellations, stalls and mid-upload rounds are final at plan
	// time; completions are not — see Completed).
	Res StepResult
	// Completed marks an instant-mode step whose planned placements
	// would finish the episode; ApplyPlan re-checks against the live
	// ledger and only then reports Repaired/InitialDone.
	Completed bool
	OpStart   int32
	OpEnd     int32
}

// Workspace is one planner's scratch: its partner-mark epochs, its op
// log and results, and the view accessor the engine supplies.
//
// Partner-mark epochs: planRefreshPool stamps the acting owner's
// current partners (and in-flight upload hosts) into a per-slot epoch
// array, turning an O(owner degree) Ledger.HasPlacement scan per
// candidate into one array compare per check. A fresh epoch per
// refresh invalidates all previous marks at once; a planned placement
// or transfer marks its host so the same step's later eligibility
// checks see it as taken. The marks track partners only — pool
// membership is deduplicated by each slot's inPool map.
type Workspace struct {
	// View describes a peer for the selection policy. A plan-phase
	// accessor must not mutate any shared memo (the engine's v3
	// accessor reads its view cache but never stores misses).
	View func(id overlay.PeerID) selection.View

	// Ops and Results accumulate this worker's planned steps in owner
	// order; ApplyPlan consumes them in the same order.
	Ops     []PlannedOp
	Results []PlanResult

	markEpoch   uint64
	partnerMark []uint64
	hostBuf     []overlay.PeerID

	// memo makes the planner store score-memo misses: set only on the
	// Maintainer's own workspace, whose steps never run concurrently.
	memo bool
}

// NewWorkspace returns a plan-phase Workspace for a population of n
// slots using the given read-only view accessor. Its planner reads the
// score memo without storing misses, so workspaces may plan
// concurrently.
func NewWorkspace(n int, view func(id overlay.PeerID) selection.View) *Workspace {
	return &Workspace{
		View:        view,
		partnerMark: make([]uint64, n),
	}
}

// Reset clears the op log and results for a new round. Mark epochs
// persist (a fresh epoch per pool refresh invalidates old marks).
func (ws *Workspace) Reset() {
	ws.Ops = ws.Ops[:0]
	ws.Results = ws.Results[:0]
}

// scoreOfRO is scoreOf without the memo store: concurrent planners may
// read a warmed entry but must not race on writing misses.
func (m *Maintainer) scoreOfRO(ctx selection.Context, c overlay.PeerID, v selection.View) float64 {
	if m.scoreKey != nil && m.scoreKey[c] == ctx.Round+1 {
		return m.scoreVal[c]
	}
	return m.pol.Score(ctx, v)
}

// PlanStep plans one round of maintenance for an online owner,
// appending any deferred ops to the Workspace, plus a PlanResult when
// the step has something to apply or report. A step that plans no op
// and ends with OutcomeNone appends nothing; applying it would be a
// no-op.
func (m *Maintainer) PlanStep(r *rng.Rand, id overlay.PeerID, ws *Workspace) {
	p := &m.peers[id]
	if p.included && p.st == stateIdle {
		if m.led.Visible(id) >= m.threshold(id) {
			return // spurious visit: nothing to do
		}
		p.st = stateTriggered
		p.epStart = m.env.Round()
	}
	pr := PlanResult{Owner: id, OpStart: int32(len(ws.Ops))}
	switch {
	case !p.included:
		// Initial (or post-loss) upload: straight to Uploading.
		if p.st == stateIdle {
			p.epStart = m.env.Round()
		}
		p.st = stateUploading
		m.planUpload(r, id, p, ws, &pr, m.led.Alive(id))
	case p.st == stateTriggered:
		m.planTriggered(r, id, p, ws, &pr)
	case p.st == stateUploading:
		m.planUpload(r, id, p, ws, &pr, m.led.Alive(id))
	default:
		panic(fmt.Sprintf("maintenance: bad state %d", p.st))
	}
	pr.OpEnd = int32(len(ws.Ops))
	if pr.OpEnd == pr.OpStart && !pr.Completed && pr.Res == (StepResult{}) {
		return
	}
	ws.Results = append(ws.Results, pr)
}

// planTriggered gathers candidates while waiting for the decode point.
// Cancellations, stalls and the RepairDelay hold commit at plan time
// (they touch only owner-local state); the decode point's offline
// write-off is counted now and deferred as OpDropOffline.
func (m *Maintainer) planTriggered(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace, pr *PlanResult) {
	visible := m.led.Visible(id)
	if m.params.CancelOnRecover && visible >= m.threshold(id) {
		m.finishEpisode(p)
		pr.Res = StepResult{Outcome: OutcomeCanceled}
		return
	}
	// Candidate gathering continues even while stalled; partners found
	// now shorten the upload phase.
	m.planRefreshPool(r, id, p, ws)
	if visible < m.params.DataBlocks {
		pr.Res = StepResult{Outcome: OutcomeStalled}
		if !p.outage {
			p.outage = true
			pr.Res.OutageStarted = true
		}
		return
	}
	p.outage = false // decodable again; any new outage is a fresh event
	if p.waited < m.params.RepairDelay {
		// Deliberately hold the repair: partners may come back, letting
		// CancelOnRecover avoid the whole episode.
		p.waited++
		return // OutcomeNone
	}
	// Decode point: download k blocks, re-encode, write off partners
	// considered gone. The offline write-off is counted against the
	// current placements and the drops themselves are deferred. No
	// session flips or deaths happen between plan and apply, and an
	// owner's rows are mutated only by its own (later) ops, so the
	// apply-time re-scan drops exactly the placements counted here. The
	// upload below refreshes the pool before the drops land, which
	// changes nothing: a dropped host was a partner at this step's first
	// refresh, so no pool entry holds it, and being offline it is
	// neither sampled nor placeable.
	alive := m.led.Alive(id)
	if m.params.DropOffline {
		dropped := 0
		for i := alive - 1; i >= 0; i-- {
			host, err := m.led.HostAt(id, i)
			if err != nil {
				panic(err) // ledger indexes are engine-controlled
			}
			if !m.led.Online(host) {
				dropped++
			}
		}
		if dropped > 0 {
			ws.Ops = append(ws.Ops, PlannedOp{Kind: OpDropOffline})
			p.dropped += dropped
			alive -= dropped
		}
	}
	if alive >= m.targetBlocks(id) {
		// Nothing to upload (possible with DropOffline=false when only
		// offline partners pushed us under the threshold).
		m.finishEpisode(p)
		pr.Res = StepResult{Outcome: OutcomeCanceled}
		return
	}
	p.st = stateUploading
	m.planUpload(r, id, p, ws, pr, alive)
}

// planUpload pushes blocks to the best-ranked online pool members until
// the archive holds its target block count. alive is the owner's live
// block count net of drops planned this step.
func (m *Maintainer) planUpload(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace, pr *PlanResult, alive int) {
	m.planRefreshPool(r, id, p, ws)
	if m.xfer != nil && !p.unmetered {
		m.planUploadTransfers(id, p, ws, alive)
		return // OutcomeNone; transfer completions finish episodes
	}
	// Compute each pool entry's eligibility once: within this step the
	// owner is the only actor, so liveness, session state and quota of
	// non-partner pool members cannot change — only hosts the owner
	// places on do, and those leave the pool (and gain a partner mark)
	// at that moment. takeBestPlaceable's per-placement scans then read
	// one precomputed flag per entry instead of four ledger lookups.
	for i := range p.pool {
		e := &p.pool[i]
		e.placeable = m.tab.Current(e.ref) &&
			m.led.Online(e.ref.ID) &&
			(p.unmetered || m.freeQuota(e.ref.ID) >= 1) &&
			ws.partnerMark[e.ref.ID] != ws.markEpoch
	}
	deficit := m.targetBlocks(id) - alive
	budget := m.params.UploadBudgetPerRound
	if budget <= 0 {
		budget = deficit // unlimited
	}
	for deficit > 0 && budget > 0 {
		best := m.takeBestPlaceable(id, p)
		if best == overlay.NoPeer {
			break
		}
		ws.Ops = append(ws.Ops, PlannedOp{Kind: OpPlace, Host: best})
		ws.partnerMark[best] = ws.markEpoch
		p.uploaded++
		deficit--
		budget--
	}
	if deficit > 0 {
		return // OutcomeNone: keep going next round
	}
	// The planned placements would complete the episode; whether they
	// all land is decided at apply time (quota races skip placements).
	pr.Completed = true
}

// planUploadTransfers is planUpload's bandwidth-scheduled body: instead
// of placing blocks it plans transfers (OpBeginUpload) to the
// best-ranked placeable pool members, bounded by the remaining deficit
// (net of blocks already on the wire) and the class's concurrency
// headroom. The episode completes when the engine lands the last block
// through DeliverUpload, never here, so the step outcome is always
// OutcomeNone.
func (m *Maintainer) planUploadTransfers(id overlay.PeerID, p *peerState, ws *Workspace, alive int) {
	for i := range p.pool {
		e := &p.pool[i]
		e.placeable = m.tab.Current(e.ref) &&
			m.led.Online(e.ref.ID) &&
			m.freeQuota(e.ref.ID) >= 1 &&
			ws.partnerMark[e.ref.ID] != ws.markEpoch
	}
	deficit := m.targetBlocks(id) - alive - m.xfer.Inflight(id)
	slots := m.xfer.UploadSlots(id)
	for deficit > 0 && slots > 0 {
		best := m.takeBestPlaceable(id, p)
		if best == overlay.NoPeer {
			break
		}
		ws.Ops = append(ws.Ops, PlannedOp{Kind: OpBeginUpload, Host: best})
		// The host will hold a reservation; later picks in this step must
		// see it as booked.
		ws.partnerMark[best] = ws.markEpoch
		deficit--
		slots--
	}
}

// planRefreshPool prunes dead/ineligible pool entries and samples new
// candidates up to the per-round budget. Offline candidates are NOT
// pruned: they agreed to the partnership and become placeable when
// they return. It opens a fresh partner-mark epoch in the Workspace
// for the acting owner (see Workspace). Sampling and acceptance draw
// from r only, so an owner's draw sequence is reproducible.
func (m *Maintainer) planRefreshPool(r *rng.Rand, id overlay.PeerID, p *peerState, ws *Workspace) {
	ws.markEpoch++
	epoch := ws.markEpoch
	ws.hostBuf = m.led.Hosts(id, ws.hostBuf[:0])
	for _, h := range ws.hostBuf {
		ws.partnerMark[h] = epoch
	}
	if m.xfer != nil && !p.unmetered {
		// Hosts of in-flight uploads are partners-to-be: they hold a
		// quota reservation and must not be booked a second time while
		// the first block is still on the wire.
		ws.hostBuf = m.xfer.PendingHosts(id, ws.hostBuf[:0])
		for _, h := range ws.hostBuf {
			ws.partnerMark[h] = epoch
		}
	}

	// Prune entries that can never be used again.
	valid := p.pool[:0]
	for _, e := range p.pool {
		if !m.tab.Current(e.ref) || ws.partnerMark[e.ref.ID] == epoch {
			delete(p.inPool, e.ref.ID)
			continue
		}
		valid = append(valid, e)
	}
	p.pool = valid

	if len(p.pool) >= m.params.TotalBlocks {
		return // pool is as large as any conceivable deficit
	}
	if cap(p.pool) < m.params.TotalBlocks {
		// One-shot full-capacity allocation: a pool never holds more
		// than TotalBlocks entries, the capacity survives episode resets
		// and occupant replacement, so every slot pays this once.
		np := make([]poolEntry, len(p.pool), m.params.TotalBlocks)
		copy(np, p.pool)
		p.pool = np
	}
	if p.inPool == nil {
		// Sized to the pool's hard cap so steady-state assigns never
		// grow the table (the dedup map lives as long as the slot).
		p.inPool = make(map[overlay.PeerID]uint32, m.params.TotalBlocks)
	}
	ctx := selection.Context{Round: m.env.Round()}
	ownerView := ws.View(id)
	for tries := 0; tries < m.params.PoolSamplePerRound && len(p.pool) < m.params.TotalBlocks; tries++ {
		c := m.env.SampleCandidate(r)
		if c == overlay.NoPeer || c == id {
			continue
		}
		if !m.led.Online(c) {
			continue // cannot negotiate with an offline peer
		}
		if gen, ok := p.inPool[c]; ok && gen == m.tab.Gen(c) {
			continue // already pooled
		}
		if !p.unmetered && m.freeQuota(c) < 1 {
			continue
		}
		if ws.partnerMark[c] == epoch {
			continue // one block per partner per archive
		}
		candView := ws.View(c)
		if !selection.AgreeCtx(r, m.pol, ctx, ownerView, candView) {
			continue
		}
		p.inPool[c] = m.tab.Gen(c)
		var score float64
		if ws.memo {
			score = m.scoreOf(ctx, c, candView)
		} else {
			score = m.scoreOfRO(ctx, c, candView)
		}
		p.pool = append(p.pool, poolEntry{ref: m.tab.Ref(c), score: score})
	}
}

// ApplyPlan executes one owner's planned ops against the live ledger
// and scheduler, returning the step's final outcome. Must be called on
// a single goroutine, in the canonical (shard, log) order the plans
// were produced in.
func (m *Maintainer) ApplyPlan(ws *Workspace, pr *PlanResult) StepResult {
	id := pr.Owner
	p := &m.peers[id]
	for _, op := range ws.Ops[pr.OpStart:pr.OpEnd] {
		switch op.Kind {
		case OpDropOffline:
			for i := m.led.Alive(id) - 1; i >= 0; i-- {
				host, err := m.led.HostAt(id, i)
				if err != nil {
					panic(err)
				}
				if !m.led.Online(host) {
					if err := m.led.DropPlacementAt(id, i); err != nil {
						panic(err)
					}
				}
			}
		case OpPlace:
			if !p.unmetered && m.freeQuota(op.Host) < 1 {
				// Another owner's apply consumed the quota the plan saw.
				// Un-count the placement and retry next round: the pool
				// entry is already consumed, which is fine — the slot is
				// still uploading, armed and queued.
				p.uploaded--
				continue
			}
			m.place(id, p, op.Host)
		case OpBeginUpload:
			if m.freeQuota(op.Host) < 1 {
				continue // lost the reservation race; retry next round
			}
			m.xfer.BeginUpload(id, m.tab.Ref(op.Host))
		default:
			panic(fmt.Sprintf("maintenance: bad planned op %d", op.Kind))
		}
	}
	if pr.Completed {
		if m.led.Alive(id) >= m.targetBlocks(id) {
			res := StepResult{Uploaded: p.uploaded, Dropped: p.dropped}
			if p.included {
				res.Outcome = OutcomeRepaired
			} else {
				res.Outcome = OutcomeInitialDone
				p.included = true
			}
			m.finishEpisode(p)
			return res
		}
		return StepResult{Outcome: OutcomeNone} // quota races; stay uploading
	}
	return pr.Res
}

// ResetArchiveLocal is ResetArchive minus the ledger release: the v3
// walk runs the slot-local half during its parallel phase (peerState is
// owned by the slot's shard) and defers led.DropOwner — a shared-ledger
// mutation that fires watchers — to the engine's merge. The two halves
// together are exactly ResetArchive.
func (m *Maintainer) ResetArchiveLocal(id overlay.PeerID) {
	p := &m.peers[id]
	p.included = false
	p.outage = false
	p.lossCheck = false
	p.st = stateIdle
	p.waited = 0
	p.uploaded = 0
	p.dropped = 0
	p.pool = p.pool[:0]
	clear(p.inPool)
	p.armed = true // the re-encoded archive needs a full upload
}
