package theory

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gauss"
)

// paperSystem returns the configuration of the paper's Figure 5 simulation:
// sigma/mu = 0.3, Th = 1000, Tc = 1, system size n = 100.
func paperSystem() System {
	return System{Capacity: 100, Mu: 1, Sigma: 0.3, Th: 1000, Tc: 1, Tm: 0}
}

func TestSystemDerivedQuantities(t *testing.T) {
	s := paperSystem()
	if s.N() != 100 {
		t.Errorf("N = %v", s.N())
	}
	if math.Abs(s.ThTilde()-100) > 1e-12 { // 1000/sqrt(100)
		t.Errorf("ThTilde = %v", s.ThTilde())
	}
	// beta = mu/(sigma*ThTilde) = 1/30
	if math.Abs(s.Beta()-1.0/30) > 1e-12 {
		t.Errorf("Beta = %v", s.Beta())
	}
	// gamma = ThTilde/Tc * sigma/mu = 100*0.3 = 30
	if math.Abs(s.Gamma()-30) > 1e-9 {
		t.Errorf("Gamma = %v", s.Gamma())
	}
}

func TestSystemValidate(t *testing.T) {
	good := paperSystem()
	if err := good.Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	for _, bad := range []System{
		{Capacity: 0, Mu: 1},
		{Capacity: 1, Mu: 0},
		{Capacity: 1, Mu: 1, Sigma: -1},
		{Capacity: 1, Mu: 1, Th: -1},
		{Capacity: 1, Mu: 1, Tc: -1},
		{Capacity: 1, Mu: 1, Tm: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid system accepted: %+v", bad)
		}
	}
}

func TestAdmissibleFlowsSatisfiesCriterion(t *testing.T) {
	// m* must satisfy Q[(c - m mu)/(sigma sqrt(m))] = p exactly (eq. 4).
	f := func(seedC, seedP uint64) bool {
		c := 50 + float64(seedC%1000)
		p := math.Pow(10, -1-float64(seedP%8))
		mu, sigma := 1.0, 0.3
		m := AdmissibleFlows(c, mu, sigma, p)
		got := OverflowGivenFlows(c, mu, sigma, m)
		return math.Abs(got-p)/p < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdmissibleFlowsEdgeCases(t *testing.T) {
	if m := AdmissibleFlows(100, 1, 0, 1e-3); m != 100 {
		t.Errorf("sigma=0 m = %v, want c/mu", m)
	}
	if m := AdmissibleFlows(0, 1, 0.3, 1e-3); m != 0 {
		t.Errorf("c=0 m = %v", m)
	}
	if m := AdmissibleFlows(100, 0, 0.3, 1e-3); m != 0 {
		t.Errorf("mu=0 m = %v", m)
	}
	// Overbooking: p > 1/2 means alpha < 0 and m* > c/mu.
	if m := AdmissibleFlows(100, 1, 0.3, 0.9); m <= 100 {
		t.Errorf("p=0.9 should overbook, m = %v", m)
	}
}

func TestMStarApproxAccuracy(t *testing.T) {
	// Heavy-traffic expansion should approach the exact root as n grows.
	pq := 1e-3
	for _, n := range []float64{100, 1000, 10000} {
		s := System{Capacity: n, Mu: 1, Sigma: 0.3}
		exact := AdmissibleFlows(s.Capacity, s.Mu, s.Sigma, pq)
		approx := MStarApprox(s, pq)
		relGap := math.Abs(exact-approx) / math.Sqrt(n) // gap is o(sqrt n)
		if relGap > 0.5 {
			t.Errorf("n=%v: exact %v approx %v", n, exact, approx)
		}
	}
	// And the safety margin has the right magnitude: n - m* ~ sigma*alpha*sqrt(n)/mu.
	s := System{Capacity: 10000, Mu: 1, Sigma: 0.3}
	margin := 10000 - AdmissibleFlows(s.Capacity, s.Mu, s.Sigma, pq)
	want := 0.3 * gauss.Qinv(pq) * 100
	if math.Abs(margin-want)/want > 0.05 {
		t.Errorf("margin %v, want ~%v", margin, want)
	}
}

func TestSqrtTwoLaw(t *testing.T) {
	// Proposition 3.3 and the paper's flagship example.
	pf := ImpulsiveOverflow(1e-5)
	if pf < 1.2e-3 || pf > 1.4e-3 {
		t.Errorf("p_q=1e-5: p_f = %v, paper says ~1.3e-3", pf)
	}
	// Universality sanity: p_f depends only on p_q.
	if ImpulsiveOverflow(0.5) != 0.5 {
		t.Errorf("p_q=0.5 should be a fixed point: %v", ImpulsiveOverflow(0.5))
	}
}

func TestImpulsiveAdjustedTargetRoundTrip(t *testing.T) {
	for _, pq := range []float64{1e-2, 1e-3, 1e-5, 1e-7} {
		pce := ImpulsiveAdjustedTarget(pq)
		back := ImpulsiveOverflow(pce)
		if math.Abs(back-pq)/pq > 1e-9 {
			t.Errorf("pq=%g: round trip gives %g", pq, back)
		}
		// The approximate form ~ (alpha/(2 sqrt(pi))) pq^2 should be close.
		approx := ImpulsiveAdjustedTargetApprox(pq)
		if math.Abs(math.Log(approx/pce)) > 0.5 {
			t.Errorf("pq=%g: approx %g vs exact %g", pq, approx, pce)
		}
	}
}

func TestImpulsiveOverflowAtTime(t *testing.T) {
	pq := 1e-3
	if p := ImpulsiveOverflowAtTime(pq, 1); p != 0 {
		t.Errorf("rho=1 should give 0, got %v", p)
	}
	// Monotone in rho decreasing -> p increasing, approaching Q(alpha/sqrt2).
	prev := -1.0
	for _, rho := range []float64{0.99, 0.9, 0.5, 0.1, 0} {
		p := ImpulsiveOverflowAtTime(pq, rho)
		if p < prev {
			t.Errorf("p_f should grow as correlation decays")
		}
		prev = p
	}
	if math.Abs(prev-ImpulsiveOverflow(pq)) > 1e-15 {
		t.Errorf("rho=0 should equal steady state")
	}
}

func TestImpulsiveAdmittedCount(t *testing.T) {
	s := System{Capacity: 400, Mu: 1, Sigma: 0.3}
	d := ImpulsiveAdmittedCount(s, 1e-3)
	// Mean = n - svr*alpha*sqrt(n) = 400 - 0.3*3.09*20 ~ 381.5
	if math.Abs(d.Mean-(400-0.3*gauss.Qinv(1e-3)*20)) > 1e-9 {
		t.Errorf("mean = %v", d.Mean)
	}
	if math.Abs(d.StdDev-6) > 1e-12 { // 0.3*20
		t.Errorf("stddev = %v", d.StdDev)
	}
}

func TestUtilizationFormulas(t *testing.T) {
	s := System{Capacity: 100, Mu: 1, Sigma: 0.3}
	// eq. 40 with pce' = pce is zero.
	if d := UtilizationDelta(s, 1e-3, 1e-3); d != 0 {
		t.Errorf("self delta = %v", d)
	}
	// More conservative target costs positive bandwidth.
	if d := UtilizationDelta(s, 1e-3, 1e-6); d <= 0 {
		t.Errorf("delta = %v, want > 0", d)
	}
	// The sqrt-2 special case matches the general formula.
	pq := 1e-3
	pce := ImpulsiveAdjustedTarget(pq)
	want := UtilizationLossSqrt2(s, pq)
	got := UtilizationDelta(s, pq, pce)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("sqrt2 loss: %v vs %v", got, want)
	}
}

func TestSensitivities(t *testing.T) {
	s := System{Capacity: 100, Mu: 1, Sigma: 0.3}
	pq := 1e-3
	sMu := SensitivityMu(s, pq)
	sSig := SensitivitySigma(s, pq)
	if sMu >= 0 || sSig >= 0 {
		t.Errorf("sensitivities should be negative: %v %v", sMu, sSig)
	}
	// s_mu grows like sqrt(n); s_sigma is size-independent.
	s4 := System{Capacity: 400, Mu: 1, Sigma: 0.3}
	ratio := SensitivityMu(s4, pq) / sMu
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("s_mu scaling with sqrt(n): ratio %v, want ~2", ratio)
	}
	if math.Abs(SensitivitySigma(s4, pq)-sSig) > 1e-12 {
		t.Error("s_sigma should not depend on n")
	}
	// Numerical derivative check for s_mu: perturb measured mu.
	h := 1e-6
	mUp := AdmissibleFlows(s.Capacity, s.Mu+h, s.Sigma, pq)
	pfUp := OverflowGivenFlows(s.Capacity, s.Mu, s.Sigma, mUp)
	numeric := (pfUp - pq) / h
	if math.Abs(numeric-sMu)/math.Abs(sMu) > 0.01 {
		t.Errorf("s_mu numeric %v vs formula %v", numeric, sMu)
	}
	// And for s_sigma.
	mUp = AdmissibleFlows(s.Capacity, s.Mu, s.Sigma+h, pq)
	pfUp = OverflowGivenFlows(s.Capacity, s.Mu, s.Sigma, mUp)
	numeric = (pfUp - pq) / h
	if math.Abs(numeric-sSig)/math.Abs(sSig) > 0.01 {
		t.Errorf("s_sigma numeric %v vs formula %v", numeric, sSig)
	}
}

func TestFiniteHoldingOverflowShape(t *testing.T) {
	s := paperSystem()
	pce := 1e-3
	if p := FiniteHoldingOverflow(s, pce, 0); p != 0 {
		t.Errorf("p_f(0) = %v, want 0", p)
	}
	tPeak, pPeak := FiniteHoldingPeak(s, pce, 0)
	if pPeak <= 0 {
		t.Fatalf("peak = %v", pPeak)
	}
	if tPeak <= 0 || tPeak > 10*math.Max(s.Tc, s.ThTilde()) {
		t.Errorf("peak time = %v implausible", tPeak)
	}
	// Far beyond the critical time-scale overflow must be negligible
	// relative to the peak.
	late := FiniteHoldingOverflow(s, pce, 20*s.ThTilde())
	if late > pPeak*1e-6 {
		t.Errorf("late p_f = %v vs peak %v", late, pPeak)
	}
	// Peak bounded by the infinite-holding steady state Q(alpha/sqrt2).
	if pPeak > ImpulsiveOverflow(pce)*(1+1e-9) {
		t.Errorf("peak %v exceeds impulsive bound %v", pPeak, ImpulsiveOverflow(pce))
	}
}

func TestHittingProbabilityBrownianAnchor(t *testing.T) {
	// For standard Brownian motion (sigma2(t)=t, v0=1) the exact boundary
	// crossing probability of alpha + beta t is exp(-2 alpha beta); Bräker's
	// approximation should be within ~25% for a high boundary.
	alpha, beta := 3.0, 1.0
	got := HittingProbability(alpha, beta, func(t float64) float64 { return t }, 1)
	want := math.Exp(-2 * alpha * beta)
	if got <= 0 || math.Abs(math.Log(got/want)) > 0.25 {
		t.Errorf("BM hitting: got %v, exact %v", got, want)
	}
	// The approximation ratio should improve with a higher boundary.
	gotHi := HittingProbability(5, 1, func(t float64) float64 { return t }, 1)
	wantHi := math.Exp(-10)
	if math.Abs(math.Log(gotHi/wantHi)) > math.Abs(math.Log(got/want))+0.01 {
		t.Errorf("approximation should not degrade with boundary: %v vs %v", gotHi/wantHi, got/want)
	}
}

func TestClosedFormMatchesIntegralUnderSeparation(t *testing.T) {
	// gamma = 30 >> 1: eq. 38 vs eq. 37 should agree closely.
	s := paperSystem()
	for _, tm := range []float64{0, 1, 10, 100} {
		s.Tm = tm
		cf := ContinuousOverflowClosedForm(s, 1e-3)
		in := ContinuousOverflowIntegral(s, 1e-3)
		if in <= 0 {
			t.Fatalf("Tm=%v: integral %v", tm, in)
		}
		if math.Abs(math.Log(cf/in)) > 0.15 {
			t.Errorf("Tm=%v: closed form %v vs integral %v", tm, cf, in)
		}
	}
}

func TestMemorylessMatchesGeneralACF(t *testing.T) {
	s := paperSystem()
	pce := 1e-3
	viaOU := ContinuousOverflowIntegral(s, pce)
	viaGeneral := ContinuousOverflowGeneralACF(s, pce, RhoExp(s.Tc), -1/s.Tc)
	if math.Abs(math.Log(viaOU/viaGeneral)) > 1e-6 {
		t.Errorf("OU specialization %v vs general ACF %v", viaOU, viaGeneral)
	}
}

func TestEq34FlowParamsForm(t *testing.T) {
	s := paperSystem()
	pce := 1e-3
	// Eq. 34 uses Q(x) ~ phi(x)/x twice; agreement with eq. 33 within ~20%.
	a := MemorylessFlowParamsForm(s, pce)
	b := ContinuousOverflowClosedForm(s, pce)
	if math.Abs(math.Log(a/b)) > 0.25 {
		t.Errorf("eq34 %v vs eq33 %v", a, b)
	}
}

func TestContinuousOverflowTransient(t *testing.T) {
	s := paperSystem()
	s.Tm = 10
	pce := 1e-3
	if p := ContinuousOverflowTransient(s, pce, 0); p != 0 {
		t.Errorf("p(0) = %v, want 0", p)
	}
	// Monotone non-decreasing in t.
	prev := 0.0
	for _, tt := range []float64{1, 10, 100, 1000, 10000} {
		p := ContinuousOverflowTransient(s, pce, tt)
		// Tolerance covers adaptive-quadrature noise between horizons.
		if p < prev*(1-1e-6) {
			t.Errorf("transient not monotone at t=%v: %v after %v", tt, p, prev)
		}
		prev = p
	}
	// Converges to the steady state.
	steady := ContinuousOverflowIntegral(s, pce)
	late := ContinuousOverflowTransient(s, pce, 1e6)
	if math.Abs(late-steady)/steady > 1e-3 {
		t.Errorf("transient at large t %v vs steady %v", late, steady)
	}
	// At half a critical time-scale the system has accumulated only part of
	// its exposure.
	early := ContinuousOverflowTransient(s, pce, s.ThTilde()/2)
	if early >= steady {
		t.Errorf("early exposure %v should undercut steady %v", early, steady)
	}
}

func TestEq39TargetParamsForm(t *testing.T) {
	// Eq. 39 differs from eq. 38 only through Q(x) ~ phi(x)/x; agreement in
	// log space should be good for a small target.
	s := paperSystem()
	for _, tm := range []float64{0, 10, 100} {
		s.Tm = tm
		a := TargetParamsForm(s, 1e-3)
		b := ContinuousOverflowClosedForm(s, 1e-3)
		if a <= 0 || math.Abs(math.Log(a/b)) > 0.45 {
			t.Errorf("Tm=%v: eq39 %v vs eq38 %v", tm, a, b)
		}
	}
	// The exponent story: p_f scales ~ pce^(1/2) memoryless, ~ pce^1 with
	// huge memory. Check the local slope d log pf / d log pce.
	slope := func(tm float64) float64 {
		s.Tm = tm
		lo := TargetParamsForm(s, 1e-4)
		hi := TargetParamsForm(s, 1e-3)
		return math.Log(hi/lo) / math.Log(10)
	}
	if sl := slope(0); math.Abs(sl-0.5) > 0.05 {
		t.Errorf("memoryless exponent %v, want ~0.5", sl)
	}
	if sl := slope(1e6); math.Abs(sl-1) > 0.1 {
		t.Errorf("large-memory exponent %v, want ~1", sl)
	}
}

func TestOverflowMonotonicity(t *testing.T) {
	s := paperSystem()
	pce := 1e-3
	// Decreasing in memory.
	prev := math.Inf(1)
	for _, tm := range []float64{0, 0.5, 2, 10, 50, 200} {
		s.Tm = tm
		p := ContinuousOverflowIntegral(s, pce)
		if p > prev*(1+1e-9) {
			t.Errorf("p_f should not increase with memory: Tm=%v p=%v prev=%v", tm, p, prev)
		}
		prev = p
	}
	// Increasing in ThTilde (via Th): more persistence, more exposure.
	s = paperSystem()
	pA := ContinuousOverflowIntegral(s, pce)
	s.Th = 10000
	pB := ContinuousOverflowIntegral(s, pce)
	if pB <= pA {
		t.Errorf("longer holding should worsen memoryless p_f: %v vs %v", pA, pB)
	}
}

func TestMemorylessWorseThanImpulsive(t *testing.T) {
	// Eq. 34's message: under time-scale separation the continuous-load
	// overflow exceeds the impulsive-load value by ~ThTilde/Tc.
	s := paperSystem()
	pce := 1e-3
	cont := ContinuousOverflowIntegral(s, pce)
	imp := ImpulsiveOverflow(pce)
	if cont <= imp {
		t.Errorf("continuous %v should exceed impulsive %v for gamma>>1", cont, imp)
	}
}

func TestAdjustedTargetRoundTrip(t *testing.T) {
	s := paperSystem()
	for _, mode := range []InvertMode{InvertClosedForm, InvertIntegral} {
		for _, tm := range []float64{1, 10, 100} {
			s.Tm = tm
			pce, err := AdjustedTarget(s, 1e-3, mode)
			if err != nil {
				t.Fatalf("mode=%v tm=%v: %v", mode, tm, err)
			}
			if pce >= 1e-3 {
				t.Errorf("adjusted target %v should be below the QoS target", pce)
			}
			var back float64
			if mode == InvertIntegral {
				back = ContinuousOverflowIntegral(s, pce)
			} else {
				back = ContinuousOverflowClosedForm(s, pce)
			}
			if math.Abs(back-1e-3)/1e-3 > 1e-6 {
				t.Errorf("mode=%v tm=%v: forward(inverse) = %v", mode, tm, back)
			}
		}
	}
}

func TestAdjustedTargetSmallMemoryIsVeryConservative(t *testing.T) {
	// The paper notes p_ce < 1e-10 for small Tm at pq = 1e-3.
	s := paperSystem()
	s.Th = 10000 // T~h = 1000, strong separation
	s.Tm = 1
	pce, err := AdjustedTarget(s, 1e-3, InvertClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if pce > 1e-8 {
		t.Errorf("small-memory adjusted target %v should be extremely small", pce)
	}
}

func TestAdjustedTargetInvalidPq(t *testing.T) {
	s := paperSystem()
	if _, err := AdjustedTarget(s, 0, InvertClosedForm); err == nil {
		t.Error("pq=0 should fail")
	}
	if _, err := AdjustedTarget(s, 1, InvertClosedForm); err == nil {
		t.Error("pq=1 should fail")
	}
}

func TestPlanRobust(t *testing.T) {
	s := paperSystem()
	plan, err := PlanRobust(s, 1e-3, InvertClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.MemoryTm-s.ThTilde()) > 1e-12 {
		t.Errorf("Tm = %v, want T~h = %v", plan.MemoryTm, s.ThTilde())
	}
	if plan.AdjustedPce >= 1e-3 || plan.AdjustedPce <= 0 {
		t.Errorf("pce = %v", plan.AdjustedPce)
	}
	if plan.AlphaCe <= plan.AlphaQ {
		t.Errorf("alpha_ce %v should exceed alpha_q %v", plan.AlphaCe, plan.AlphaQ)
	}
	if plan.UtilizationCost <= 0 {
		t.Errorf("utilization cost = %v", plan.UtilizationCost)
	}
	if math.Abs(plan.PredictedPf-1e-3)/1e-3 > 1e-6 {
		t.Errorf("predicted pf = %v", plan.PredictedPf)
	}
	// In the masking regime the cost should be modest: alpha_ce close to
	// alpha_q (eq. 41's message), far cheaper than sqrt(2)*alpha_q.
	if plan.AlphaCe > gauss.Sqrt2*plan.AlphaQ {
		t.Errorf("robust plan alpha %v should undercut the impulsive sqrt2 adjustment %v",
			plan.AlphaCe, gauss.Sqrt2*plan.AlphaQ)
	}
}

func TestRegimeClassification(t *testing.T) {
	s := paperSystem() // ThTilde = 100
	s.Tc = 1
	if r := ClassifyRegime(s); r != RegimeMasking {
		t.Errorf("Tc=1: %v", r)
	}
	s.Tc = 5000
	if r := ClassifyRegime(s); r != RegimeRepair {
		t.Errorf("Tc=5000: %v", r)
	}
	s.Tc = 100
	if r := ClassifyRegime(s); r != RegimeIntermediate {
		t.Errorf("Tc=100: %v", r)
	}
}

// TestRegimeStrings pins the Section 5.3 labels /adaptive and reports
// print, and that a value outside the three regimes renders as itself
// rather than passing for "intermediate".
func TestRegimeStrings(t *testing.T) {
	for r, want := range map[Regime]string{
		RegimeMasking:      "masking",
		RegimeRepair:       "repair",
		RegimeIntermediate: "intermediate",
		Regime(3):          "Regime(3)",
		Regime(-1):         "Regime(-1)",
	} {
		if got := r.String(); got != want {
			t.Errorf("Regime(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestMaskingOverflowMatchesIntegral(t *testing.T) {
	// Tm = ThTilde >> Tc: eq. 41 should approximate the integral at the
	// *unadjusted* target.
	s := paperSystem()
	s.Tm = s.ThTilde()
	pq := 1e-3
	mask := MaskingOverflow(s, pq)
	integ := ContinuousOverflowIntegral(s, pq)
	if math.Abs(math.Log(mask/integ)) > 0.6 {
		t.Errorf("masking approx %v vs integral %v", mask, integ)
	}
	// And its value is (svr*alpha+1)*pq ~ 1.93e-3 here.
	want := (0.3*gauss.Qinv(pq) + 1) * pq
	if math.Abs(mask-want) > 1e-12 {
		t.Errorf("masking = %v, want %v", mask, want)
	}
}

func TestRepairOverflowMatchesIntegral(t *testing.T) {
	// Tc >> ThTilde with Tm = ThTilde: repair approximation vs integral.
	s := paperSystem()
	s.Tc = 10000 // gamma = 3e-3 << 1
	s.Tm = s.ThTilde()
	pce := 1e-3
	rep := RepairOverflow(s, pce)
	integ := ContinuousOverflowIntegral(s, pce)
	// Both should be minuscule; compare in log space loosely.
	if rep > 1e-6 || integ > 1e-6 {
		t.Errorf("repair regime should be safe: rep=%v integ=%v", rep, integ)
	}
	// At e-200 magnitudes, agreement within a modest factor is all the
	// frozen-variance approximation promises; compare log-probabilities.
	if integ > 0 && rep > 0 {
		lr, li := math.Log(rep), math.Log(integ)
		if math.Abs(lr-li)/math.Abs(li) > 0.02 {
			t.Errorf("repair approx %v vs integral %v (log %v vs %v)", rep, integ, lr, li)
		}
	}
}

func TestRepairOverflowMemorylessFallsBack(t *testing.T) {
	s := paperSystem()
	s.Tc = 10000
	s.Tm = 0
	if rep, in := RepairOverflow(s, 1e-3), ContinuousOverflowIntegral(s, 1e-3); rep != in {
		t.Errorf("memoryless repair should defer to the integral: %v vs %v", rep, in)
	}
}

func TestClampProb(t *testing.T) {
	// Far outside validity the closed form must still return a probability.
	s := paperSystem()
	s.Th = 1e9 // absurd separation
	p := ContinuousOverflowClosedForm(s, 0.4)
	if p < 0 || p > 1 {
		t.Errorf("probability not clamped: %v", p)
	}
}

func BenchmarkContinuousOverflowIntegral(b *testing.B) {
	s := paperSystem()
	s.Tm = 10
	for i := 0; i < b.N; i++ {
		ContinuousOverflowIntegral(s, 1e-3)
	}
}

func BenchmarkAdjustedTargetClosedForm(b *testing.B) {
	s := paperSystem()
	s.Tm = 10
	for i := 0; i < b.N; i++ {
		if _, err := AdjustedTarget(s, 1e-3, InvertClosedForm); err != nil {
			b.Fatal(err)
		}
	}
}
