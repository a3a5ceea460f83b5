package traffic

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"repro/internal/gauss"
	"repro/internal/rng"
	"repro/internal/stats"
)

// columnarModels enumerates the models with a columnar path.
func columnarModels(t *testing.T) map[string]Model {
	t.Helper()
	mix, err := NewMixture(
		[]Model{NewRCBR(1, 0.3, 1), OnOff{PeakRate: 2.5, OnTime: 0.4, OffTime: 1.1}, Constant{Rate: 0.7}},
		[]float64{0.5, 0.3, 0.2},
	)
	if err != nil {
		t.Fatalf("mixture: %v", err)
	}
	return map[string]Model{
		"rcbr":     NewRCBR(1, 0.3, 1),
		"onoff":    OnOff{PeakRate: 2, OnTime: 0.5, OffTime: 1.5},
		"constant": Constant{Rate: 1.25},
		"mixture":  mix,
	}
}

// advancesDrawForDraw reports whether slot i's AdvanceColumn must match the
// scalar Next walk bit for bit: true unless the flow's own model (its
// mixture component, for a mixture) declares ExpSegments, whose kernel is
// equal only in law (TestRCBRAdvanceColumnLaw).
func advancesDrawForDraw(m Model, c *Columns, i int) bool {
	if mx, ok := m.(*Mixture); ok {
		m = mx.Models[c.Aux[i]]
	}
	return !m.Stats().ExpSegments
}

// TestColumnarMatchesScalar drives every columnar model both ways — per-flow
// Source objects vs InitColumn/AdvanceColumn — over an irregular probe
// schedule. InitColumn must be bit-identical for every flow; AdvanceColumn
// must be bit-identical at every probe for every flow that
// advancesDrawForDraw, and must leave every other flow's segment covering
// the probe.
func TestColumnarMatchesScalar(t *testing.T) {
	const flows = 257
	probes := []float64{0, 0.01, 0.5, 0.5, 1, 3.75, 10, 10.0001, 40}
	for name, model := range columnarModels(t) {
		t.Run(name, func(t *testing.T) {
			cm, ok := ColumnModelOf(model)
			if !ok {
				t.Fatalf("model %s does not support the columnar path", name)
			}

			// Scalar reference: one source per flow, each on substream i.
			parent := rng.New(0xC01, 7)
			type ref struct {
				src    Source
				rate   float64
				segEnd float64
			}
			refs := make([]ref, flows)
			for i := range refs {
				src := model.New(parent.Split(uint64(i)))
				seg := src.Next()
				refs[i] = ref{src: src, rate: seg.Rate, segEnd: seg.Duration}
			}

			// Columnar: same substreams, same tags.
			parent2 := rng.New(0xC01, 7)
			var c Columns
			c.Grow(flows)
			for i := 0; i < flows; i++ {
				parent2.SplitInto(uint64(i), &c.Str[i])
			}
			cm.InitColumn(&c, 0, flows)

			check := func(stage string, all bool) {
				t.Helper()
				for i := range refs {
					if !all && !advancesDrawForDraw(model, &c, i) {
						continue
					}
					if math.Float64bits(refs[i].rate) != math.Float64bits(c.Rate[i]) {
						t.Fatalf("%s: flow %d rate: scalar %x columnar %x",
							stage, i, math.Float64bits(refs[i].rate), math.Float64bits(c.Rate[i]))
					}
					if math.Float64bits(refs[i].segEnd) != math.Float64bits(c.End[i]) {
						t.Fatalf("%s: flow %d segEnd: scalar %v columnar %v",
							stage, i, refs[i].segEnd, c.End[i])
					}
				}
			}
			check("init", true)

			for _, probe := range probes {
				for i := range refs {
					for refs[i].segEnd <= probe {
						seg := refs[i].src.Next()
						refs[i].rate = seg.Rate
						refs[i].segEnd += seg.Duration
					}
				}
				cm.AdvanceColumn(&c, flows, probe)
				stage := "t=" + strconv.FormatFloat(probe, 'g', -1, 64)
				check(stage, false)
				for i := 0; i < flows; i++ {
					if c.End[i] <= probe {
						t.Fatalf("%s: flow %d segment ends at %v, not past the probe", stage, i, c.End[i])
					}
				}
			}
		})
	}
}

// TestRCBRAdvanceColumnLaw checks RCBR's skip-ahead AdvanceColumn against
// the law it stands in for. Over a probe schedule that leaves some flows
// mid-segment and expires others (and one repeated probe that expires
// none), at every probe:
//
//   - a flow whose segment still covers the probe is untouched, bit for
//     bit, generator state included;
//   - the expired flows' rates follow the truncated-normal marginal and
//     their residuals End − t follow Exp(CorrTime) (one-sample KS), and
//     their new rates are uncorrelated with their old ones (|r| ≤ 4/√n):
//     at least one renegotiation lies between;
//   - against the scalar per-segment Next walk from the same start over
//     the same probes, on independent streams, the expired share agrees
//     (two-proportion |z| ≤ 4) and so do the expired flows' rates and
//     residuals (two-sample KS).
//
// KS critical values are at α = 0.001 (c = 1.95); the seeds are fixed.
func TestRCBRAdvanceColumnLaw(t *testing.T) {
	const flows = 20000
	for _, m := range []RCBR{NewRCBR(1, 0.3, 2), {Mean: 1, Sigma: 1, CorrTime: 0.5}} {
		name := fmt.Sprintf("sigma=%g,Tc=%g", m.Sigma, m.CorrTime)
		t.Run(name, func(t *testing.T) {
			tc := m.CorrTime
			a := -m.Mean / m.Sigma
			rateCDF := func(x float64) float64 {
				return (gauss.CDF((x-m.Mean)/m.Sigma) - gauss.CDF(a)) / (1 - gauss.CDF(a))
			}
			expCDF := func(x float64) float64 { return 1 - math.Exp(-x/tc) }

			var c Columns
			c.Grow(flows)
			parent := rng.New(0x5C1A, 1)
			for i := range flows {
				parent.SplitInto(uint64(i), &c.Str[i])
			}
			m.InitColumn(&c, 0, flows)

			walk := make([]Source, flows)
			wRate := make([]float64, flows)
			wEnd := make([]float64, flows)
			wParent := rng.New(0x5C1A, 2)
			for i := range walk {
				walk[i] = m.New(wParent.Split(uint64(i)))
				seg := walk[i].Next()
				wRate[i], wEnd[i] = seg.Rate, seg.Duration
			}

			var before Columns
			before.Grow(flows)
			for _, probe := range []float64{0.5 * tc, 3 * tc, 3 * tc, 20 * tc} {
				copy(before.Rate, c.Rate)
				copy(before.End, c.End)
				copy(before.Str, c.Str)
				m.AdvanceColumn(&c, flows, probe)

				var rates, resid []float64
				var old, cross stats.Moments
				for i := 0; i < flows; i++ {
					if before.End[i] > probe {
						if math.Float64bits(c.Rate[i]) != math.Float64bits(before.Rate[i]) ||
							math.Float64bits(c.End[i]) != math.Float64bits(before.End[i]) ||
							c.Str[i] != before.Str[i] {
							t.Fatalf("t=%g: flow %d mid-segment (end %v) was touched", probe, i, before.End[i])
						}
						continue
					}
					rates = append(rates, c.Rate[i])
					resid = append(resid, c.End[i]-probe)
					old.Add(before.Rate[i])
					cross.Add(before.Rate[i] * c.Rate[i])
				}

				var wRates, wResid []float64
				for i := range walk {
					if wEnd[i] > probe {
						continue
					}
					for wEnd[i] <= probe {
						seg := walk[i].Next()
						wRate[i] = seg.Rate
						wEnd[i] += seg.Duration
					}
					wRates = append(wRates, wRate[i])
					wResid = append(wResid, wEnd[i]-probe)
				}

				if z := twoProportionZ(len(rates), len(wRates), flows); math.Abs(z) > 4 {
					t.Errorf("t=%g: expired %d skip vs %d walk of %d (z = %.2f)", probe, len(rates), len(wRates), flows, z)
				}
				if len(rates) < 1000 || len(wRates) < 1000 {
					if len(rates) != 0 || len(wRates) != 0 {
						t.Fatalf("t=%g: %d and %d expired flows: too few to test, but not none", probe, len(rates), len(wRates))
					}
					continue
				}
				n := float64(len(rates))
				var fresh stats.Moments
				for _, x := range rates {
					fresh.Add(x)
				}
				if r := (cross.Mean() - old.Mean()*fresh.Mean()) / (old.StdDev() * fresh.StdDev()); math.Abs(r) > 4/math.Sqrt(n) {
					t.Errorf("t=%g: new rates correlate with the old ones: r = %.4f", probe, r)
				}
				if d := ksOne(rates, rateCDF); math.Sqrt(n)*d > 1.95 {
					t.Errorf("t=%g: rate KS distance %.4f against the truncated normal exceeds %.4f", probe, d, 1.95/math.Sqrt(n))
				}
				if d := ksOne(resid, expCDF); math.Sqrt(n)*d > 1.95 {
					t.Errorf("t=%g: residual KS distance %.4f against Exp(%g) exceeds %.4f", probe, d, tc, 1.95/math.Sqrt(n))
				}
				crit := 1.95 * math.Sqrt(1/n+1/float64(len(wRates)))
				if d := ksTwo(rates, wRates); d > crit {
					t.Errorf("t=%g: rates: skip vs walk KS distance %.4f exceeds %.4f", probe, d, crit)
				}
				if d := ksTwo(resid, wResid); d > crit {
					t.Errorf("t=%g: residuals: skip vs walk KS distance %.4f exceeds %.4f", probe, d, crit)
				}
			}
		})
	}
}

// twoProportionZ is the pooled two-proportion z statistic for x1 and x2
// successes out of n trials each (zero when the pooled share is 0 or 1).
func twoProportionZ(x1, x2, n int) float64 {
	p := float64(x1+x2) / float64(2*n)
	if p == 0 || p == 1 {
		return 0
	}
	return (float64(x1) - float64(x2)) / float64(n) / math.Sqrt(p*(1-p)*2/float64(n))
}

// ksOne returns the one-sample Kolmogorov–Smirnov distance between xs and
// the continuous distribution function cdf. It sorts xs.
func ksOne(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// ksTwo returns the two-sample Kolmogorov–Smirnov distance between a and
// b. It sorts both.
func ksTwo(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// TestColumnarSwapKeepsStreams pins that Swap moves a flow's whole state —
// including its RNG substream — so compaction in the ensemble engine cannot
// detach a flow from its draws.
func TestColumnarSwapKeepsStreams(t *testing.T) {
	model := NewRCBR(1, 0.3, 1)
	parent := rng.New(0xBEEF, 3)
	var c Columns
	c.Grow(2)
	for i := 0; i < 2; i++ {
		parent.SplitInto(uint64(i), &c.Str[i])
	}
	model.InitColumn(&c, 0, 2)

	// Reference continuation of flow 0's stream.
	ref := rng.New(0xBEEF, 3)
	src0 := model.New(ref.Split(0))
	src0.Next()
	want := src0.Next()

	c.Swap(0, 1)
	// Flow 0 now lives in slot 1; advancing far enough forces a redraw.
	end0 := c.End[1]
	model.AdvanceColumn(&c, 2, end0)
	if c.End[1] <= end0 {
		t.Fatalf("flow 0 did not advance past %v", end0)
	}
	if math.Float64bits(c.Rate[1]) != math.Float64bits(want.Rate) {
		t.Fatalf("flow 0's stream did not travel with the swap: rate %v want %v", c.Rate[1], want.Rate)
	}
}

// TestColumnModelOf pins the gating: plain models and flat mixtures of
// columnar components qualify; nested mixtures and non-columnar components
// do not.
func TestColumnModelOf(t *testing.T) {
	rcbr := NewRCBR(1, 0.3, 1)
	if _, ok := ColumnModelOf(rcbr); !ok {
		t.Error("RCBR should be columnar")
	}
	flat, _ := NewMixture([]Model{rcbr, Constant{Rate: 1}}, []float64{1, 1})
	if _, ok := ColumnModelOf(flat); !ok {
		t.Error("flat mixture of columnar components should be columnar")
	}
	nested, _ := NewMixture([]Model{flat, rcbr}, []float64{1, 1})
	if _, ok := ColumnModelOf(nested); ok {
		t.Error("nested mixture must not qualify for the columnar path")
	}
	mf, err := NewMarkovFluid([]float64{1, 2}, [][]float64{{-1, 1}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ColumnModelOf(mf); ok {
		t.Error("MarkovFluid has no columnar path and must not qualify")
	}
	mixMF, _ := NewMixture([]Model{rcbr, mf}, []float64{1, 1})
	if _, ok := ColumnModelOf(mixMF); ok {
		t.Error("mixture with a non-columnar component must not qualify")
	}
}
