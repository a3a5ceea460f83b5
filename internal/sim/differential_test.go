package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// bitIdenticalModels are the traffic models whose columnar kernels replay
// the scalar Next walk draw for draw, so the two ensemble paths must agree
// bit for bit: CBR and bursty on/off.
func bitIdenticalModels() map[string]traffic.Model {
	return map[string]traffic.Model{
		"cbr":   traffic.Constant{Rate: 1},
		"onoff": traffic.OnOff{PeakRate: 2.5, OnTime: 0.4, OffTime: 0.6},
	}
}

// inLawModels are the traffic models on which the two ensemble paths agree
// only in law: the paper's RCBR workload, whose columnar kernel samples each
// flow's state at the probe directly, and a heterogeneous burst mixture
// with an RCBR component (Section 5.4's regime).
func inLawModels(tb testing.TB) map[string]traffic.Model {
	tb.Helper()
	mix, err := traffic.NewMixture(
		[]traffic.Model{
			traffic.NewRCBR(1, 0.3, 1),
			traffic.OnOff{PeakRate: 3, OnTime: 0.5, OffTime: 1.0},
			traffic.Constant{Rate: 0.8},
		},
		[]float64{0.6, 0.3, 0.1},
	)
	if err != nil {
		tb.Fatalf("mixture: %v", err)
	}
	return map[string]traffic.Model{
		"rcbr":    traffic.NewRCBR(1, 0.3, 1),
		"mixture": mix,
	}
}

// assertImpulsiveEqual requires two ensemble results to be bit-identical:
// identical M0 moment state and identical overflow counters at every probe.
func assertImpulsiveEqual(tb testing.TB, scalar, columnar *ImpulsiveResult) {
	tb.Helper()
	if scalar.M0 != columnar.M0 {
		tb.Fatalf("M0 moments diverge: scalar %+v columnar %+v", scalar.M0, columnar.M0)
	}
	if len(scalar.PfAt) != len(columnar.PfAt) {
		tb.Fatalf("grid length diverges: %d vs %d", len(scalar.PfAt), len(columnar.PfAt))
	}
	for i := range scalar.PfAt {
		if scalar.PfAt[i] != columnar.PfAt[i] {
			tb.Fatalf("PfAt[%d] diverges: scalar %+v columnar %+v", i, scalar.PfAt[i], columnar.PfAt[i])
		}
	}
}

// mustCE builds the paper's certainty-equivalent controller with the
// standard declared (mu, sigma) = (1, 0.3) bootstrap.
func mustCE(tb testing.TB, pce float64) core.Controller {
	tb.Helper()
	ce, err := core.NewCertaintyEquivalent(pce, 1, 0.3)
	if err != nil {
		tb.Fatalf("controller: %v", err)
	}
	return ce
}

// runBothImpulsive executes the same ensemble on the scalar and columnar
// paths and returns both results.
func runBothImpulsive(tb testing.TB, cfg ImpulsiveConfig) (scalar, columnar *ImpulsiveResult) {
	tb.Helper()
	cfg.Scalar = true
	scalar, err := RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("scalar path: %v", err)
	}
	cfg.Scalar = false
	columnar, err = RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("columnar path: %v", err)
	}
	return scalar, columnar
}

// assertImpulsiveInLaw runs cfg on both paths and checks what the in-law
// contract promises. At equal seeds M0 is bit-identical: InitColumn is
// draw-identical to New+Next, and the admission decision sees only first
// segments. The overflow estimates are compared on independent seeds — the
// scalar run at cfg.Seed against a columnar run at another seed — with a
// pooled two-proportion |z| ≤ 4 at every probe; equal seeds would share M0
// and make the test conservative.
func assertImpulsiveInLaw(tb testing.TB, cfg ImpulsiveConfig) {
	tb.Helper()
	scalar, columnar := runBothImpulsive(tb, cfg)
	if scalar.M0 != columnar.M0 {
		tb.Fatalf("M0 moments diverge at equal seeds: scalar %+v columnar %+v", scalar.M0, columnar.M0)
	}
	cfg.Seed += 1 << 32
	indep, err := RunImpulsive(cfg)
	if err != nil {
		tb.Fatalf("columnar path: %v", err)
	}
	var hits int64
	for i := range scalar.PfAt {
		s, c := &scalar.PfAt[i], &indep.PfAt[i]
		hits += s.Hits() + c.Hits()
		if z := twoProportionZ(s, c); math.Abs(z) > 4 {
			tb.Errorf("t=%g: p_f scalar %d/%d vs columnar %d/%d (z = %.2f)",
				cfg.Grid[i], s.Hits(), s.N(), c.Hits(), c.N(), z)
		}
	}
	if hits == 0 {
		tb.Fatal("degenerate ensemble: no overflow at any probe, nothing to compare")
	}
}

// twoProportionZ is the pooled two-proportion z statistic of two overflow
// counters (zero when the pooled share is 0 or 1).
func twoProportionZ(a, b *stats.Counter) float64 {
	na, nb := float64(a.N()), float64(b.N())
	p := float64(a.Hits()+b.Hits()) / (na + nb)
	if p == 0 || p == 1 {
		return 0
	}
	return (a.P() - b.P()) / math.Sqrt(p*(1-p)*(1/na+1/nb))
}

// TestImpulsiveColumnarMatchesScalar is the tier-1 differential check of the
// columnar engine against the scalar one, over several seeds: bit for bit
// for the bitIdenticalModels, in law (assertImpulsiveInLaw) for the
// inLawModels. The in-law cases run at p_ce = 0.1, which puts p_f at
// roughly 0.02–0.15 across the grid, where a few thousand replications
// resolve it. The larger -race versions live in the stat tier
// (differential_stat_test.go).
func TestImpulsiveColumnarMatchesScalar(t *testing.T) {
	for name, model := range bitIdenticalModels() {
		t.Run(name, func(t *testing.T) {
			if _, ok := traffic.ColumnModelOf(model); !ok {
				t.Fatalf("model %s must support the columnar path", name)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := ImpulsiveConfig{
					Capacity:     60,
					Model:        model,
					Controller:   mustCE(t, 1e-2),
					MeasureCount: 64,
					HoldingTime:  50,
					Grid:         []float64{0.5, 1, 5, 20},
					Replications: 25,
					Seed:         seed,
				}
				scalar, columnar := runBothImpulsive(t, cfg)
				assertImpulsiveEqual(t, scalar, columnar)
				if math.IsNaN(columnar.M0.Mean()) {
					t.Fatal("degenerate ensemble: M0 mean is NaN")
				}
			}
		})
	}
	for name, model := range inLawModels(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok := traffic.ColumnModelOf(model); !ok {
				t.Fatalf("model %s must support the columnar path", name)
			}
			for seed := uint64(1); seed <= 2; seed++ {
				cfg := ImpulsiveConfig{
					Capacity:     60,
					Model:        model,
					Controller:   mustCE(t, 0.1),
					MeasureCount: 64,
					HoldingTime:  50,
					Grid:         []float64{0.25, 1, 5},
					Replications: 4000,
					Seed:         seed,
				}
				assertImpulsiveInLaw(t, cfg)
			}
		})
	}
}

// TestImpulsiveColumnarInfiniteHolding covers the no-departure regime
// (HoldingTime <= 0) in law: compaction never fires, every flow survives to
// the last probe.
func TestImpulsiveColumnarInfiniteHolding(t *testing.T) {
	cfg := ImpulsiveConfig{
		Capacity:     40,
		Model:        traffic.NewRCBR(1, 0.3, 1),
		Controller:   mustCE(t, 0.1),
		MeasureCount: 40,
		HoldingTime:  0,
		Grid:         []float64{1, 10, 30},
		Replications: 2000,
		Seed:         7,
	}
	assertImpulsiveInLaw(t, cfg)
}
