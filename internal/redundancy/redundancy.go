// Package redundancy implements the adaptive per-archive redundancy
// policy layer: an online controller that retunes each archive's target
// block count n(t) from monitored partner availability, after
// Dell'Amico et al., "Adaptive Redundancy Management for Durable P2P
// Backup" (arXiv 1201.2360).
//
// The paper this repository reproduces fixes the erasure shape (n, k)
// and the repair threshold k' for a whole run. This package relaxes
// that: a Policy observes an archive's monitored availability estimate
// (the mean uptime of its partners over the monitoring window, exactly
// the substrate monitor.IntervalHistory maintains) and decides whether
// the archive should grow — encode and place extra parity blocks — or
// shrink — retire surplus placements, releasing peer storage. The
// estimate behind the decision is the binomial tail Durability(n, k',
// p): the probability the archive holds at least k' available blocks,
// so the configured repair cushion k'-k stays intact at every n(t); the
// upload cost of a grow decision is priced by
// costmodel.ParityUploadCost.
//
// Policies resolve through a spec-string registry mirroring
// selection.Register/Parse:
//
//	fixed                                       the inert paper behaviour
//	adaptive                                    defaults: min=k', max=n, target=0.99999
//	adaptive:min=160,max=256,target=0.95
//	adaptive:target=0.9999,hysteresis=4,eval=48
//
// The simulation engine consults the bound policy on a fixed
// per-archive cadence (EvalEvery), drawing any randomness the
// evaluation needs — partner subsampling — from a scratch stream
// derived via rng.Derive, never from the engine's canonical stream, so
// fixed-mode runs are bit-identical to pre-adaptive runs and adaptive
// runs are bit-identical at every shard count.
package redundancy

import (
	"fmt"
	"math"
)

// Observation is what a Policy sees when it evaluates one archive.
type Observation struct {
	// Round is the evaluation round.
	Round int64
	// Current is the archive's current target block count n(t).
	Current int
	// DataBlocks is k, the blocks needed to decode.
	DataBlocks int
	// Availability is the monitored availability estimate for the
	// archive's blocks: the mean uptime of (a sample of) its partners
	// over the monitoring window.
	Availability float64
}

// Policy decides per-archive redundancy targets. Implementations are
// immutable values, safe to share between concurrently running
// simulations; Bind resolves a parsed policy against a concrete code
// shape before use.
type Policy interface {
	// Name returns the registry spec name.
	Name() string
	// Static reports that the policy never deviates from the configured
	// code shape; the engine keeps its zero-cost fixed path and draws no
	// extra randomness when it is set.
	Static() bool
	// Bind resolves the policy against a code shape (k data blocks,
	// repair threshold k', n total blocks), filling shape-relative
	// defaults and validating the result. It returns the bound policy.
	Bind(k, kprime, n int) (Policy, error)
	// Initial returns the target block count of a freshly encoded
	// archive (the initial upload's d).
	Initial(k, n int) int
	// Target returns the desired target block count for one archive.
	// Growing is any return above obs.Current; shrinking below it.
	Target(obs Observation) int
	// EvalEvery returns the per-archive evaluation cadence in rounds.
	EvalEvery() int64
	// SamplePeers returns how many partners an evaluation probes for
	// the availability estimate (the monitoring cost bound).
	SamplePeers() int
}

// Durability returns the probability that an archive of n blocks, each
// independently available with probability p, has at least k blocks
// available — the binomial decode probability behind every adaptive
// decision. The tail is summed term by term in log space, from i = k
// up to n, with ln(i!) read from a log-factorial table shared by every
// caller (math.Lgamma above the table's range). The table holds
// exactly the values math.Lgamma returns, so each term, and the sum,
// are bit-identical to calling math.Lgamma per term.
//
// The result is a probability up to rounding: it is monotone in n and
// in p mathematically, but not as computed. Once the tail saturates
// near 1, successive n can differ by a few ulps in either direction
// (see Adaptive.Target, whose search accounts for that).
func Durability(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if n < k || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	lgn := lnFactorial(n)
	sum := 0.0
	for i := k; i <= n; i++ {
		lgi := lnFactorial(i)
		lgni := lnFactorial(n - i)
		sum += math.Exp(lgn - lgi - lgni + float64(i)*lp + float64(n-i)*lq)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// lnFactTableSize bounds the log-factorial table: 32 KiB covering every
// archive size up to 4095 blocks, far past the paper's n = 256.
const lnFactTableSize = 4096

// lnFactTable[i] is ln(i!) as math.Lgamma(i+1) returns it. It is built
// once at package initialisation and only read afterwards, so
// concurrent simulations share it freely.
var lnFactTable = func() *[lnFactTableSize]float64 {
	var t [lnFactTableSize]float64
	for i := range t {
		t[i], _ = math.Lgamma(float64(i + 1))
	}
	return &t
}()

// lnFactorial returns ln(i!) for i >= 0, bit-identical to
// math.Lgamma(i+1).
func lnFactorial(i int) float64 {
	if i < lnFactTableSize {
		return lnFactTable[i]
	}
	v, _ := math.Lgamma(float64(i + 1))
	return v
}

// EffectiveThreshold maps an archive's target block count to its repair
// threshold. The configured slack k'-k is kept as an ABSOLUTE cushion,
// never scaled down with n(t): that slack is the number of simultaneous
// host failures a triggered repair can ride out before the archive
// drops below k and is lost, and a shrunk archive needs every one of
// those blocks more than a full-size one does. (An early draft scaled
// the slack proportionally with n(t)-k; at n(t) around 1.3k that left
// single-digit cushions and measurably worse object durability than the
// fixed policy.) The result is clamped to [k, target]: an archive
// deliberately sized below k' repairs as soon as any block is missing.
func EffectiveThreshold(k, kprime, n, target int) int {
	if target >= n || n <= k {
		return kprime
	}
	thr := kprime
	if thr > target {
		thr = target
	}
	if thr < k {
		thr = k
	}
	return thr
}

// Default knobs of the adaptive built-in.
const (
	// DefaultTargetDurability is the probability of holding >= k'
	// available blocks the adaptive policy sizes archives for when the
	// spec omits target=. Five nines keeps cumulative object losses at
	// the fixed policy's level while still undercutting its storage
	// bill: a lax target (say 0.9) would halve the footprint but bleed
	// archives.
	DefaultTargetDurability = 0.99999
	// DefaultHysteresis is how many surplus blocks an archive may carry
	// before the policy bothers shrinking it (flap damping: sampled
	// availability estimates jitter, and every shrink a later grow
	// regrets is paid for in uplink time).
	DefaultHysteresis = 6
	// DefaultEvalEvery is the per-archive evaluation cadence in rounds
	// (one day: availability estimates move on session time scales).
	DefaultEvalEvery int64 = 24
	// DefaultSamplePeers is how many partners an evaluation probes.
	DefaultSamplePeers = 16
	// MaxShrinkPerEval caps how many blocks one evaluation may retire.
	// Shrinking is the only move that can be wrong in the dangerous
	// direction, and it acts on an estimate; descending stepwise means a
	// mis-measured archive is at most one step below where the next
	// evaluation can halt it, instead of arbitrarily deep. Growing is
	// never capped — a deficit is repaired in full immediately.
	MaxShrinkPerEval = 8
)

// Fixed is the inert built-in policy: the paper's behaviour, byte
// identical to a run without any redundancy layer. The engine treats a
// Static policy as "no policy" and keeps its historical fast path.
type Fixed struct{}

// Name implements Policy.
func (Fixed) Name() string { return "fixed" }

// Static implements Policy: Fixed never deviates.
func (Fixed) Static() bool { return true }

// Bind implements Policy; Fixed binds to any valid shape.
func (Fixed) Bind(k, kprime, n int) (Policy, error) { return Fixed{}, nil }

// Initial implements Policy: archives start at the full n.
func (Fixed) Initial(k, n int) int { return n }

// Target implements Policy: the target never moves.
func (Fixed) Target(obs Observation) int { return obs.Current }

// EvalEvery implements Policy (unused: the engine never evaluates a
// static policy).
func (Fixed) EvalEvery() int64 { return 1 }

// SamplePeers implements Policy (unused for a static policy).
func (Fixed) SamplePeers() int { return 0 }

// Adaptive sizes each archive to the smallest n(t) in [Min, Max] that
// keeps at least k' blocks available with probability TargetDurability
// at the monitored partner availability, shrinking only when the
// surplus exceeds Hysteresis blocks. Sizing against the repair
// threshold k' rather than against k is deliberate: holding >= k'
// preserves the full configured cushion of k'-k block failures between
// "repair triggers" and "archive lost", so the hard-loss probability
// sits orders of magnitude below 1-TargetDurability. The zero value of
// a bound field means "resolve from the code shape at Bind": Min
// becomes k' (below it the archive would trigger a repair on arrival),
// Max becomes the configured n (the ledger's preallocated ceiling).
type Adaptive struct {
	// Min and Max bound the target block count. 0 resolves at Bind to
	// k' and n respectively.
	Min, Max int
	// TargetDurability is the probability, in (0, 1), that an archive
	// holds at least k' available blocks at the monitored availability.
	TargetDurability float64
	// Hysteresis is the surplus (in blocks) tolerated before shrinking.
	Hysteresis int
	// Eval is the per-archive evaluation cadence in rounds.
	Eval int64
	// Sample is how many partners an evaluation probes.
	Sample int

	// kprime is the code shape's repair threshold, recorded at Bind; it
	// is what Target sizes archives against.
	kprime int
}

// Name implements Policy.
func (a Adaptive) Name() string { return "adaptive" }

// Static implements Policy: Adaptive retunes archives online.
func (a Adaptive) Static() bool { return false }

// Bind implements Policy: zero bounds resolve to [k', n] and the result
// is checked against the shape (k < Min <= Max <= n).
func (a Adaptive) Bind(k, kprime, n int) (Policy, error) {
	b := a
	if b.Min == 0 {
		b.Min = kprime
	}
	if b.Max == 0 {
		b.Max = n
	}
	if b.TargetDurability == 0 {
		b.TargetDurability = DefaultTargetDurability
	}
	if b.Eval == 0 {
		b.Eval = DefaultEvalEvery
	}
	if b.Sample == 0 {
		b.Sample = DefaultSamplePeers
	}
	if b.Min <= k {
		return nil, fmt.Errorf("%w: adaptive: min=%d must exceed k=%d", ErrBadSpec, b.Min, k)
	}
	if b.Min > b.Max {
		return nil, fmt.Errorf("%w: adaptive: min=%d exceeds max=%d", ErrBadSpec, b.Min, b.Max)
	}
	if b.Max > n {
		return nil, fmt.Errorf("%w: adaptive: max=%d exceeds the configured n=%d (the ledger's preallocated ceiling)", ErrBadSpec, b.Max, n)
	}
	if !(b.TargetDurability > 0 && b.TargetDurability < 1) {
		return nil, fmt.Errorf("%w: adaptive: target=%v outside (0, 1)", ErrBadSpec, b.TargetDurability)
	}
	if b.Hysteresis < 0 {
		return nil, fmt.Errorf("%w: adaptive: hysteresis=%d must be >= 0", ErrBadSpec, b.Hysteresis)
	}
	if b.Eval < 1 {
		return nil, fmt.Errorf("%w: adaptive: eval=%d must be >= 1", ErrBadSpec, b.Eval)
	}
	if b.Sample < 1 {
		return nil, fmt.Errorf("%w: adaptive: sample=%d must be >= 1", ErrBadSpec, b.Sample)
	}
	b.kprime = kprime
	return b, nil
}

// Initial implements Policy: adaptive archives start at the FULL
// provision (Max) and shrink only once evidence accumulates. A fresh
// archive has zero availability measurements, and at the paper's shape
// an archive born at Min = k' expects fewer than k blocks visible —
// undecodable more often than not, and one unlucky week from permanent
// loss. Starting minimal-and-growing (the classic adaptive-redundancy
// framing) re-enters that fragile state on every occupant replacement;
// starting full costs at most one eval cadence of extra storage before
// the first measured shrink.
func (a Adaptive) Initial(k, n int) int {
	if a.Max > 0 {
		return a.Max
	}
	return n
}

// Target implements Policy: the smallest n(t) in [Min, Max] holding at
// least k' available blocks with probability TargetDurability at the
// observed availability, with shrink hysteresis. On an unbound policy
// (no recorded k') the sizing falls back to the decode bound k. The
// smallest n(t) is found by a certified binary search (see need), so an
// evaluation costs O(log(Max-Min)) Durability calls instead of one per
// candidate size.
func (a Adaptive) Target(obs Observation) int {
	thr := a.kprime
	if thr < obs.DataBlocks {
		thr = obs.DataBlocks
	}
	need := a.need(thr, obs.Availability)
	if need > obs.Current {
		return need // grow immediately: durability is at stake
	}
	if obs.Current-need > a.Hysteresis {
		// Shrink only past the flap-damping band, and stepwise: see
		// MaxShrinkPerEval.
		if obs.Current-need > MaxShrinkPerEval {
			return obs.Current - MaxShrinkPerEval
		}
		return need
	}
	return obs.Current
}

// certifyMargin is how far below the target the last failing probe of
// need's binary search must sit for the search's answer to be trusted.
//
// The computed Durability is a sum of positive terms exp(x_i), so its
// absolute error is at most the largest per-term relative error (the
// sum is at most 1) plus the summation's own rounding (n ulps of 1).
// A term's relative error is the absolute error of its exponent x_i: a
// few ulps of the magnitudes cancelled inside it, ln(n!), ln(i!) and
// ln((n-i)!), and for any term not already below e^-40 also i*ln(p) and
// (n-i)*ln(1-p), which cannot exceed ln C(n, i) + 40. Within the
// log-factorial table (n < 4096, ln(n!) < 3e4) that is below 1e-10; at
// the paper's n = 256 (ln(n!) ~ 1.2e3) it is a few 1e-12, and the
// observed noise is nearer 1e-13. A margin of 1e-9 therefore exceeds
// twice the error of any Durability the search compares, which is what
// the certificate in need relies on.
const certifyMargin = 1e-9

// need returns the smallest n in [Min, Max) for which the computed
// Durability(n, thr, p) reaches TargetDurability, or Max when none
// does: exactly what scanning n upward from Min one block at a time
// returns.
//
// Mathematically Durability is increasing in n, so a lower-bound binary
// search finds that n in O(log(Max-Min)) probes. As computed it is not
// monotone once it saturates near 1 (adjacent n can swap order by a few
// ulps), and at targets within rounding of 1 a bare binary search can
// step over the first n that reaches the target. The search therefore
// certifies its answer lo: either lo == Min, or its last failing probe
// D(lo-1) sits more than certifyMargin below the target. Then the true
// D(lo-1) is below the target, so are the true D(m) for all m < lo-1 by
// monotonicity, and so is every computed D(m), whose error is under
// half the margin: no n below lo reaches the target, and lo is the
// scan's answer. An uncertified answer, and any Max beyond the table
// the margin is argued for, falls back to the scan itself.
func (a Adaptive) need(thr int, p float64) int {
	if a.Max > lnFactTableSize {
		return a.scanNeed(thr, p, a.Max)
	}
	lo, hi := a.Min, a.Max
	failed := 0.0 // Durability at lo-1, valid once lo > Min
	for lo < hi {
		mid := lo + (hi-lo)/2
		if d := Durability(mid, thr, p); d >= a.TargetDurability {
			hi = mid
		} else {
			lo, failed = mid+1, d
		}
	}
	if lo == a.Min || failed+certifyMargin < a.TargetDurability {
		return lo
	}
	return a.scanNeed(thr, p, lo)
}

// scanNeed is the defining linear scan behind need: the first n in
// [Min, limit) whose Durability reaches the target, else limit. need
// passes limit = lo, whose own probe reached the target (or lo = Max),
// so the scan ends there at the latest.
func (a Adaptive) scanNeed(thr int, p float64, limit int) int {
	n := a.Min
	for n < limit && Durability(n, thr, p) < a.TargetDurability {
		n++
	}
	return n
}

// EvalEvery implements Policy.
func (a Adaptive) EvalEvery() int64 {
	if a.Eval > 0 {
		return a.Eval
	}
	return DefaultEvalEvery
}

// SamplePeers implements Policy.
func (a Adaptive) SamplePeers() int {
	if a.Sample > 0 {
		return a.Sample
	}
	return DefaultSamplePeers
}
