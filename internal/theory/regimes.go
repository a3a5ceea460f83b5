package theory

import (
	"math"

	"repro/internal/enum"
	"repro/internal/gauss"
)

// Regime analysis (Section 5.3): with the memory window fixed at the
// critical time-scale (T_m = T~h), the MBAC is robust across the whole
// range of traffic correlation time-scales, which split into a "masking"
// regime (T_c << T~h, the window smooths the burst fluctuations away) and a
// "repair" regime (T_c >> T~h, departures outrun the slow fluctuations).

// Regime labels the operating regime of an MBAC configuration.
type Regime int

const (
	// RegimeMasking: Tc << Tm ~ T~h; the estimator memory masks the traffic
	// correlation structure and p_f ~ (sigma·alpha/mu + 1)·p_q (eq. 41).
	RegimeMasking Regime = iota
	// RegimeRepair: Tc >> T~h; estimation errors fluctuate slower than the
	// repair time-scale and overflow is doubly-exponentially unlikely.
	RegimeRepair
	// RegimeIntermediate: neither separation holds; only the numerical
	// integral (eq. 37) applies.
	RegimeIntermediate
	regimeEnd
)

var regimeNames = enum.New(map[Regime]string{
	RegimeMasking:      "masking",
	RegimeRepair:       "repair",
	RegimeIntermediate: "intermediate",
}, regimeEnd)

// String implements fmt.Stringer; a value outside the three regimes
// renders as "Regime(n)", never as a valid label.
func (r Regime) String() string { return regimeNames.String(r) }

// regimeSeparation is the ratio of time-scales considered a clear
// separation for regime classification.
const regimeSeparation = 10.0

// ClassifyRegime labels the system's operating regime by comparing Tc with
// the critical time-scale T~h.
func ClassifyRegime(s System) Regime {
	tht := s.ThTilde()
	switch {
	case s.Tc*regimeSeparation <= tht:
		return RegimeMasking
	case s.Tc >= regimeSeparation*tht:
		return RegimeRepair
	default:
		return RegimeIntermediate
	}
}

// MaskingOverflow returns eq. 41, the overflow probability in the masking
// regime with T_m = T~h >> T_c when the MBAC runs at target pq:
//
//	p_f ≈ (sigma·alpha_q/mu + 1) · p_q,
//
// i.e. within a small constant factor of the target without any adjustment.
func MaskingOverflow(s System, pq float64) float64 {
	alpha := gauss.Qinv(pq)
	return clampProb((s.SVR()*alpha + 1) * pq)
}

// RepairOverflow returns the repair-regime (Tc >> T~h) approximation of the
// overflow probability, derived from eq. 37 with sigma_m²(t) ≈
// Tm/(Tc+Tm) ≈ constant (the exp(−gamma·t) term frozen at 1 since
// gamma << 1):
//
//	p_f ≈ gamma·Tc/(Tc+Tm) · phi(alpha/s)/s + Q(alpha·sqrt(1+Tc/Tm)),
//	s² = Tm/(Tc+Tm).
//
// Note: the memo's displayed repair formula appears to carry typos (its
// prefactor and exponent are not dimensionally consistent with eq. 37);
// this function evaluates the approximation that actually follows from
// eq. 37, which is what Figure 9's numerical integration reflects.
func RepairOverflow(s System, pce float64) float64 {
	alpha := gauss.Qinv(pce)
	tc, tm := s.Tc, s.Tm
	if tm <= 0 {
		// Memoryless repair regime: sigma_m²(t) = 2(1−e^{−gamma t}) ≈ 2 gamma t;
		// fall back to the integral which handles it properly.
		return ContinuousOverflowIntegralAlpha(s, alpha)
	}
	s2 := tm / (tc + tm)
	sm := math.Sqrt(s2)
	first := s.Gamma() * tc / (tc + tm) * gauss.Phi(alpha/sm) / sm
	second := gauss.Q(alpha * math.Sqrt(1+tc/tm))
	return clampProb(first + second)
}
