package selection

import (
	"math"
	"testing"

	"p2pbackup/internal/monitor"
	"p2pbackup/internal/rng"
)

// ageView builds a View carrying only observable age.
func ageView(age int64) View { return View{Observed: Observed{Age: age}} }

// clampAge is the paper's min(s, L), with negative ages read as 0.
func clampAge(s, L int64) int64 { return min(max(s, 0), L) }

// paperAccept transcribes section 3.2's acceptance function directly:
// f(p1, p2) = min((L - (min(s1, L) - min(s2, L)) + 1) / L, 1).
func paperAccept(s1, s2, L int64) float64 {
	return math.Min(float64(L-(clampAge(s1, L)-clampAge(s2, L))+1)/float64(L), 1)
}

// TestNativePoliciesMatchLegacyStrategies pins every built-in baseline
// to its closed form on a grid of observable and oracle knowledge: the
// paper's acceptance function and capped age for "age", constant
// acceptance and the ranking key for the other four. The references
// are written out here rather than shared with the package, so a
// change to either side shows up as a mismatch.
func TestNativePoliciesMatchLegacyStrategies(t *testing.T) {
	const L = 2160
	cases := []struct {
		spec   string
		accept func(acceptor, requester View) float64
		score  func(View) float64
	}{
		{"age:L=2160",
			func(a, r View) float64 { return paperAccept(a.Observed.Age, r.Observed.Age, L) },
			func(v View) float64 { return float64(clampAge(v.Observed.Age, L)) }},
		{"random",
			func(View, View) float64 { return 1 },
			func(View) float64 { return 0 }},
		{"availability-oracle",
			func(View, View) float64 { return 1 },
			func(v View) float64 { return v.Oracle.Availability }},
		{"lifetime-oracle",
			func(View, View) float64 { return 1 },
			func(v View) float64 { return float64(v.Oracle.Remaining) }},
		{"youngest-first",
			func(View, View) float64 { return 1 },
			func(v View) float64 { return -float64(v.Observed.Age) }},
	}
	grid := []View{
		{},
		{Observed: Observed{Age: -3}},
		{Observed: Observed{Age: 1}, Oracle: Oracle{Availability: 0.33, Remaining: 7}},
		{Observed: Observed{Age: 2159}, Oracle: Oracle{Availability: 0.95, Remaining: 100000}},
		{Observed: Observed{Age: 2160}, Oracle: Oracle{Availability: 0.5, Remaining: 1}},
		{Observed: Observed{Age: 999999}, Oracle: Oracle{Availability: 1, Remaining: 0}},
	}
	ctx := Context{Round: 12345}
	for _, c := range cases {
		pol := mustParse(t, c.spec)
		for _, a := range grid {
			for _, b := range grid {
				if got, want := pol.AcceptProb(ctx, a, b), c.accept(a, b); got != want {
					t.Fatalf("%s: AcceptProb(%+v, %+v) = %v, want %v", c.spec, a, b, got, want)
				}
				if c.spec == "age:L=2160" {
					if got, want := AcceptanceFunction(a.Observed.Age, b.Observed.Age, L), c.accept(a, b); got != want {
						t.Fatalf("AcceptanceFunction(%d, %d) = %v, want %v", a.Observed.Age, b.Observed.Age, got, want)
					}
				}
			}
			if got, want := pol.Score(ctx, a), c.score(a); got != want {
				t.Fatalf("%s: Score(%+v) = %v, want %v", c.spec, a, got, want)
			}
		}
	}
}

func TestAcceptsAllMarkers(t *testing.T) {
	always := []string{"random", "availability-oracle", "lifetime-oracle", "youngest-first",
		"estimator:age", "estimator:pareto", "estimator:empirical", "monitored-availability"}
	for _, spec := range always {
		if !AcceptsAll(mustParse(t, spec)) {
			t.Errorf("%s must declare AcceptsAll", spec)
		}
	}
	if AcceptsAll(mustParse(t, "age")) || AcceptsAll(mustParse(t, "age:L=5")) {
		t.Fatal("the age strategy is not always-accept")
	}
}

// TestAgreeConsumesNoRandomnessWhenCertain checks AgreeCtx's draw
// discipline: always-accept policies (and any prob==1 direction) must
// not advance the generator, while the probabilistic age path draws
// exactly once per uncertain direction, so seeded runs stay
// bit-identical.
func TestAgreeConsumesNoRandomnessWhenCertain(t *testing.T) {
	elder, newborn := ageView(testL), ageView(0)
	for _, spec := range []string{"random", "availability-oracle", "lifetime-oracle", "youngest-first",
		"monitored-availability", "estimator:pareto"} {
		r := rng.New(42)
		before := r.State()
		if !AgreeCtx(r, mustParse(t, spec), Context{}, newborn, elder) {
			t.Fatalf("%s must agree", spec)
		}
		if r.State() != before {
			t.Fatalf("%s consumed randomness despite always accepting", spec)
		}
	}
	age := mustParse(t, "age:L=2160")
	// Both directions certain (equal ages => f = 1 both ways): no draw.
	r := rng.New(42)
	before := r.State()
	if !AgreeCtx(r, age, Context{}, elder, elder) || r.State() != before {
		t.Fatal("certain age agreement consumed randomness")
	}
	// Probabilistic direction still draws — exactly once per direction
	// with p < 1: owner->candidate is 1 (elder older), candidate->owner
	// is 1/L, so one draw total.
	r2, ref := rng.New(7), rng.New(7)
	AgreeCtx(r2, age, Context{}, newborn, elder)
	ref.Float64()
	if r2.State() != ref.State() {
		t.Fatal("probabilistic agreement must draw exactly once per uncertain direction")
	}
}

func TestMonitoredAvailabilityScoresFromHistory(t *testing.T) {
	h := monitor.NewIntervalHistory(100)
	// Online [0,50), offline [50,100).
	if err := h.RecordTransition(0, true); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordTransition(50, false); err != nil {
		t.Fatal(err)
	}
	pol, err := Parse("monitored-availability:100")
	if err != nil {
		t.Fatal(err)
	}
	v := View{Observed: Observed{Age: 100, History: h}}
	if got := pol.Score(Context{Round: 100}, v); got != 0.5 {
		t.Fatalf("score = %v, want 0.5", got)
	}
	// Shorter window sees only the offline tail.
	short := MonitoredAvailability{Window: 25}
	if got := short.Score(Context{Round: 100}, v); got != 0 {
		t.Fatalf("short-window score = %v, want 0", got)
	}
	// No history: the fallback is zero (and Uptime reports !ok).
	if got := pol.Score(Context{Round: 100}, ageView(100)); got != 0 {
		t.Fatalf("no-history score = %v, want 0", got)
	}
	if _, ok := (Observed{}).Uptime(10, 5); ok {
		t.Fatal("Uptime without history must report !ok")
	}
}

func TestEstimatorRankedScoresByEstimator(t *testing.T) {
	// The paper's equivalence holds for heavy-tailed lifetime models:
	// past each estimator's scale floor (see lifetime.Estimator),
	// estimator-backed ranking orders candidates exactly as ranking by
	// age does (ties allowed). estimator:empirical is fitted to the
	// paper population's observed lifetimes, which are BOUNDED uniform
	// mixtures — heavy-tailed only across the erratic band (one to
	// three months), beyond which conditional remaining lifetime
	// genuinely falls. The test therefore checks it there; the
	// ablation-estimator experiment measures what that divergence costs.
	cases := []struct {
		spec string
		ages []int64 // ascending, within the estimator's monotone range
	}{
		{"estimator:age", []int64{0, 1, 12, 24, 24 * 7, 720, 2159, 2160, 4000}},
		{"estimator:pareto", []int64{1, 12, 24, 24 * 7, 720, 2159, 2160, 4000}},
		{"estimator:empirical", []int64{720, 1000, 1440, 2000, 2160}},
	}
	for _, c := range cases {
		pol, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(c.ages); i++ {
			lo := pol.Score(Context{}, ageView(c.ages[i-1]))
			hi := pol.Score(Context{}, ageView(c.ages[i]))
			if hi < lo {
				t.Errorf("%s: score order violates age order at ages %d < %d (%v > %v)",
					c.spec, c.ages[i-1], c.ages[i], lo, hi)
			}
		}
		if neg := pol.Score(Context{}, ageView(-5)); neg != pol.Score(Context{}, ageView(0)) {
			t.Errorf("%s: negative age must clamp to 0", c.spec)
		}
	}
}
