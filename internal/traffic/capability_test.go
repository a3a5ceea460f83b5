package traffic_test

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestRCBRExpSegmentsTruthful checks the promise behind RCBR's
// ExpSegments: Next's durations are i.i.d. Exp(CorrTime) and independent
// of the rates. A simulator that trusts the flag replaces every flow's
// renegotiation timer with one competing-exponentials clock, so a model
// that declared it falsely would silently change the simulated law.
func TestRCBRExpSegmentsTruthful(t *testing.T) {
	const n = 20000
	for _, tc := range []float64{0.5, 3, 40} {
		m := traffic.NewRCBR(1, 0.3, tc)
		st := m.Stats()
		if !st.ExpSegments {
			t.Fatalf("RCBR (T_c=%g) must declare ExpSegments", tc)
		}
		if st.CorrTime != tc {
			t.Fatalf("CorrTime %g, want %g", st.CorrTime, tc)
		}
		src := m.New(rng.New(uint64(tc*100), 0))
		durs := make([]float64, n)
		var dm, rm, cross, lag stats.Moments
		prev := 0.0
		for i := range durs {
			seg := src.Next()
			d := seg.Duration / tc
			durs[i] = d
			dm.Add(d)
			rm.Add(seg.Rate)
			cross.Add(d * seg.Rate)
			if i > 0 {
				lag.Add(d * prev)
			}
			prev = d
		}
		// Mean 1 and CV 1 in units of T_c: four standard errors of the
		// sample mean (sd 1/√n) and of the sample sd (≈ √2/√n for Exp).
		if math.Abs(dm.Mean()-1) > 4/math.Sqrt(n) {
			t.Errorf("T_c=%g: mean duration %.4f·T_c, want 1", tc, dm.Mean())
		}
		if cv := dm.StdDev() / dm.Mean(); math.Abs(cv-1) > 4*math.Sqrt(2)/math.Sqrt(n) {
			t.Errorf("T_c=%g: duration CV %.4f, want 1", tc, cv)
		}
		// Kolmogorov–Smirnov against Exp(1): the α = 0.001 critical value
		// of √n·D is 1.95.
		if d := ksExp(durs); math.Sqrt(n)*d > 1.95 {
			t.Errorf("T_c=%g: KS distance %.4f exceeds 1.95/√n = %.4f", tc, d, 1.95/math.Sqrt(n))
		}
		// Independence of the rate and of the previous duration: the
		// sample correlations stay within four standard errors (1/√n) of 0.
		corr := (cross.Mean() - dm.Mean()*rm.Mean()) / (dm.StdDev() * rm.StdDev())
		if math.Abs(corr) > 4/math.Sqrt(n) {
			t.Errorf("T_c=%g: duration/rate correlation %.4f, want 0", tc, corr)
		}
		if ac := (lag.Mean() - dm.Mean()*dm.Mean()) / dm.Var(); math.Abs(ac) > 4/math.Sqrt(n) {
			t.Errorf("T_c=%g: lag-1 duration autocorrelation %.4f, want 0", tc, ac)
		}
	}
}

// ksExp returns the Kolmogorov–Smirnov distance between the sample and
// the Exp(1) distribution. It sorts xs.
func ksExp(xs []float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := 1 - math.Exp(-x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// TestOnlyMemorylessModelsDeclareExpSegments pins the models that must not
// declare ExpSegments: state-dependent sojourns (on-off, Markov fluid),
// mixtures (even of RCBR components, whose correlation times differ per
// flow), deterministic trace intervals and the never-renegotiating CBR.
func TestOnlyMemorylessModelsDeclareExpSegments(t *testing.T) {
	mmf, err := traffic.NewMarkovFluid([]float64{0.5, 1.5}, [][]float64{{-1, 1}, {2, -2}})
	if err != nil {
		t.Fatal(err)
	}
	rcbrMix, err := traffic.NewMixture([]traffic.Model{traffic.NewRCBR(1, 0.3, 1), traffic.NewRCBR(1, 0.3, 10)}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	burstMix, err := traffic.NewMixture([]traffic.Model{traffic.NewRCBR(1, 0.3, 1), traffic.OnOff{PeakRate: 2, OnTime: 1, OffTime: 1}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Model{Trace: &trace.Trace{Interval: 1, Rates: []float64{0.5, 1, 1.5, 1, 0.5, 2}}}
	for name, m := range map[string]traffic.Model{
		"onoff":        traffic.OnOff{PeakRate: 2, OnTime: 1, OffTime: 3},
		"markov fluid": mmf,
		"rcbr mixture": rcbrMix,
		"mixture":      burstMix,
		"trace":        tr,
		"constant":     traffic.Constant{Rate: 1},
	} {
		if m.Stats().ExpSegments {
			t.Errorf("%s declares ExpSegments", name)
		}
	}
}
