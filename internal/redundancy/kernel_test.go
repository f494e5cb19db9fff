package redundancy

import (
	"math"
	"testing"
)

// lgammaTerms returns the binomial terms of an n-block archive at
// availability p in (0, 1), each computed exactly as Durability did
// before the log-factorial table: three math.Lgamma calls per term.
// Term i is independent of the threshold, so one slice serves every
// threshold of an exhaustive sweep.
func lgammaTerms(n int, p float64) []float64 {
	lp := math.Log(p)
	lq := math.Log1p(-p)
	lgn, _ := math.Lgamma(float64(n + 1))
	terms := make([]float64, n+1)
	for i := range terms {
		lgi, _ := math.Lgamma(float64(i + 1))
		lgni, _ := math.Lgamma(float64(n - i + 1))
		terms[i] = math.Exp(lgn - lgi - lgni + float64(i)*lp + float64(n-i)*lq)
	}
	return terms
}

// lgammaDurability is Durability as it was before the log-factorial
// table, over terms from lgammaTerms(n, p): the same edge cases, the
// same summation order from i = k up to n, the same clamp.
func lgammaDurability(n, k int, p float64, terms []float64) float64 {
	if k <= 0 {
		return 1
	}
	if n < k || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += terms[i]
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// linearNeed is the sizing loop Adaptive.Target ran before the binary
// search: scan n upward from Min one block at a time. dur(n) must
// return Durability(n, thr, p).
func linearNeed(a Adaptive, dur func(n int) float64) int {
	need := a.Min
	for need < a.Max && dur(need) < a.TargetDurability {
		need++
	}
	return need
}

// TestLnFactorialTable pins every table entry, and the fallback above
// the table, to math.Lgamma bit for bit.
func TestLnFactorialTable(t *testing.T) {
	for i := 0; i < lnFactTableSize+64; i++ {
		want, _ := math.Lgamma(float64(i + 1))
		if got := lnFactorial(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lnFactorial(%d) = %v, want math.Lgamma's %v", i, got, want)
		}
	}
}

// TestDurabilityMatchesLgamma checks the table-based Durability against
// the per-term math.Lgamma formula bit for bit, for every n <= 1024 and
// every threshold 0 <= k <= n+1. Each (n, k) pair is checked at one of
// several availabilities, rotating with n+k, so the sweep touches every
// pair and every p while costing one exhaustive pass.
func TestDurabilityMatchesLgamma(t *testing.T) {
	ps := []float64{1e-300, 0.05, 0.5, 0.7225, 0.86, 0.999, 1 - 1e-15}
	for n := 1; n <= 1024; n++ {
		terms := make([][]float64, len(ps))
		for j, p := range ps {
			terms[j] = lgammaTerms(n, p)
		}
		for k := 0; k <= n+1; k++ {
			j := (n + k) % len(ps)
			got, want := Durability(n, k, ps[j]), lgammaDurability(n, k, ps[j], terms[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Durability(%d, %d, %v) = %v, want %v", n, k, ps[j], got, want)
			}
		}
	}
	for _, p := range []float64{0, 1, -0.5, 2} {
		for n := 1; n <= 64; n++ {
			for k := 0; k <= n+1; k++ {
				if got, want := Durability(n, k, p), lgammaDurability(n, k, p, nil); got != want {
					t.Fatalf("Durability(%d, %d, %v) = %v, want %v", n, k, p, got, want)
				}
			}
		}
	}
}

// TestTargetMatchesLinearScan compares Target's certified binary search
// with the linear scan it replaced over a grid of shapes, thresholds,
// availabilities, targets and lower bounds. Observing with Current ==
// Min makes Target return the sizing result itself. The extreme targets
// are where the computed Durability stops being monotone in n and an
// uncertified binary search goes wrong (e.g. shape 128/256, thr = 128,
// p = 0.7225, target 1-1e-13, Min = 129: the scan answers 253, a bare
// binary search 255).
func TestTargetMatchesLinearScan(t *testing.T) {
	// The last shape reaches past the log-factorial table, where Target
	// keeps the linear scan.
	shapes := []struct{ k, kprime, n int }{
		{128, 148, 256}, {16, 20, 32}, {8, 9, 12}, {500, 600, 1024}, {4090, 4092, 4100},
	}
	ps := []float64{0, 1e-300, 0.7225, 1 - 1e-15, 1}
	for i := 1; i < 100; i++ {
		ps = append(ps, float64(i)/100)
	}
	targets := []float64{1e-300, 0.5, 0.99999, 1 - 1e-9, 1 - 1e-13, 0.9999999999999999}
	for _, sh := range shapes {
		mins := []int{sh.kprime, sh.k + 1, (sh.kprime + sh.n) / 2}
		// thr = k' is the bound policy's sizing threshold; binding with
		// k' = k sizes against the decode bound instead.
		for _, thr := range []int{sh.kprime, sh.k} {
			for _, p := range ps {
				// One memo per (shape, thr, p): every Min and target
				// scans the same Durability curve.
				memo := map[int]float64{}
				dur := func(n int) float64 {
					d, ok := memo[n]
					if !ok {
						d = Durability(n, thr, p)
						memo[n] = d
					}
					return d
				}
				for _, minBlocks := range mins {
					for _, target := range targets {
						b, err := Adaptive{Min: minBlocks, TargetDurability: target}.Bind(sh.k, thr, sh.n)
						if err != nil {
							t.Fatalf("Bind(%+v): %v", sh, err)
						}
						a := b.(Adaptive)
						want := linearNeed(a, dur)
						got := a.Target(Observation{Current: minBlocks, DataBlocks: sh.k, Availability: p})
						if got != want {
							t.Fatalf("shape %d/%d/%d thr=%d p=%v target=%v min=%d: Target = %d, linear scan = %d",
								sh.k, sh.kprime, sh.n, thr, p, target, minBlocks, got, want)
						}
					}
				}
			}
		}
	}
}
