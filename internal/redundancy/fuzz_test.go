package redundancy

import "testing"

// FuzzParse throws arbitrary policy-spec strings at the redundancy
// parser (the CLI's -redundancy flag). Every input must either produce
// a Policy or an error — never panic — and whatever Parse accepts must
// Bind cleanly against the paper's code shape or fail with a wrapped
// ErrBadSpec, since sim.Config.Validate relies on exactly that split.
func FuzzParse(f *testing.F) {
	for _, s := range Names() {
		f.Add(s)
	}
	for _, s := range []string{
		"",
		"adaptive:0.95",
		"adaptive:min=160,max=256,target=0.95",
		"adaptive:target=0.9,hysteresis=4,eval=48,sample=8",
		"adaptive:min=9,max=4",
		"adaptive:target=2",
		"adaptive:bogus=1",
		"adaptive:min=1,min=2",
		"adaptive:0.9,target=0.8",
		"fixed:1",
		"nope",
		":",
		";;;",
		"adaptive:min=",
		"adaptive:,",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pol, err := Parse(spec)
		if err != nil {
			if pol != nil {
				t.Fatalf("Parse(%q) returned both policy and error %v", spec, err)
			}
			return
		}
		if pol == nil {
			t.Fatalf("Parse(%q) returned nil policy without error", spec)
		}
		if pol.Name() == "" {
			t.Fatalf("Parse(%q) returned unnamed policy", spec)
		}
		// Bind against the paper shape: either a usable bound policy or
		// a shape-mismatch error, never a panic.
		bound, err := pol.Bind(128, 148, 256)
		if err != nil {
			return
		}
		if init := bound.Initial(128, 256); init < 128 || init > 256 {
			t.Fatalf("Parse(%q).Initial out of [k, n]: %d", spec, init)
		}
		if bound.EvalEvery() < 1 {
			t.Fatalf("Parse(%q).EvalEvery < 1", spec)
		}
		// Reparsing must be stable.
		if _, err := Parse(spec); err != nil {
			t.Fatalf("Parse(%q) succeeded then failed: %v", spec, err)
		}
	})
}

// FuzzTargetSearch checks Target's certified binary search against the
// linear scan it replaced, for fuzzed code shapes (n <= 512),
// availabilities and durability targets. Inputs Bind rejects are
// skipped; for the rest, observing with Current == Min makes Target
// return the sizing result itself.
func FuzzTargetSearch(f *testing.F) {
	f.Add(128, 148, 256, 0.86, 0.99999)
	f.Add(128, 129, 256, 0.7225, 1-1e-13)
	f.Add(128, 148, 256, 0.79, 1-1e-13)
	f.Add(16, 20, 32, 0.55, 0.9999999999999999)
	f.Add(8, 9, 12, 1e-300, 1e-300)
	f.Add(500, 501, 512, 1-1e-15, 1-1e-9)
	f.Fuzz(func(t *testing.T, k, kprime, n int, p, target float64) {
		if n > 512 {
			return
		}
		b, err := Adaptive{TargetDurability: target}.Bind(k, kprime, n)
		if err != nil {
			return
		}
		a := b.(Adaptive)
		thr := max(kprime, k)
		want := linearNeed(a, func(m int) float64 { return Durability(m, thr, p) })
		if got := a.Target(Observation{Current: a.Min, DataBlocks: k, Availability: p}); got != want {
			t.Fatalf("Bind(%d, %d, %d) p=%v target=%v: Target = %d, linear scan = %d", k, kprime, n, p, target, got, want)
		}
	})
}
