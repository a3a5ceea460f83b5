package qos

import (
	"fmt"
	"math"

	"repro/internal/enum"
	"repro/internal/gauss"
	"repro/internal/stats"
)

// QoS audit: the online check of the paper's central quantitative claim.
// A certainty-equivalent MBAC that targets p_q with a memoryless estimator
// does not deliver p_q; it delivers the √2 law of Proposition 3.3 (eq. 14),
//
//	p_f = Q(α_q/√2),  α_q = Q⁻¹(p_q),
//
// because admission-time estimation error doubles the effective variance.
// The audit therefore grades a windowed overflow measurement against BOTH
// thresholds: an overflow level consistent with p_q is healthy; one above
// p_q but consistent with the √2 law is the known certainty-equivalence
// bias (fix: adjust p_ce per eq. 15 or add estimator memory per Section 4);
// one above even the √2 law means something else is broken — estimator,
// controller, or workload beyond the model.

// Verdict classifies a windowed overflow measurement.
type Verdict int

const (
	// VerdictInsufficient: too few window samples to grade.
	VerdictInsufficient Verdict = iota
	// VerdictOK: the measurement is statistically consistent with the
	// QoS target p_q.
	VerdictOK
	// VerdictViolatesTarget: p_f is significantly above p_q but not above
	// the √2-law prediction — the certainty-equivalence bias of Prop 3.3.
	VerdictViolatesTarget
	// VerdictViolatesSqrt2Law: p_f is significantly above even
	// Q(α_q/√2) — outside what certainty-equivalence alone explains.
	VerdictViolatesSqrt2Law
	// VerdictDegraded: the window contains ticks served under the
	// gateway's degraded policy (stale ticks or invalid measurements), so
	// the overflow statistics do not grade the controller — the paper's
	// model assumes a live measurement loop, and a degraded gateway is
	// outside it. Takes precedence over every statistical verdict.
	VerdictDegraded
	verdictEnd
)

var verdictNames = enum.New(map[Verdict]string{
	VerdictInsufficient:     "insufficient",
	VerdictOK:               "ok",
	VerdictViolatesTarget:   "violates-target",
	VerdictViolatesSqrt2Law: "violates-sqrt2-law",
	VerdictDegraded:         "degraded",
}, verdictEnd)

// String implements fmt.Stringer.
func (v Verdict) String() string { return verdictNames.String(v) }

// MarshalJSON encodes the verdict as its string form, keeping audit
// payloads and goldens readable.
func (v Verdict) MarshalJSON() ([]byte, error) { return verdictNames.Marshal(v) }

// UnmarshalJSON decodes the string form.
func (v *Verdict) UnmarshalJSON(b []byte) error { return verdictNames.Unmarshal(b, v) }

// ParseVerdict is the inverse of Verdict.String, for scenario configs and
// replay tooling that state an expected audit verdict by name.
func ParseVerdict(s string) (Verdict, error) { return verdictNames.Parse(s) }

// AuditConfig parameterizes an Audit.
type AuditConfig struct {
	// TargetPf is the QoS target p_q in (0, 0.5) (required).
	TargetPf float64
	// Z is the normal quantile for the Wilson interval (default 1.96).
	Z float64
	// Window is the number of overflow indicators held in the sliding
	// window when the audit accumulates its own observations via Observe
	// (default 1024). Evaluate-only callers can ignore it.
	Window int
	// MinSamples is the minimum window fill before the audit grades at
	// all (default 50): with fewer samples, Wilson intervals on rare
	// events are too wide to mean anything.
	MinSamples int64
}

// Report is one audit result: the measurement, the two thresholds it was
// graded against, and the verdict.
type Report struct {
	Estimate      stats.WindowedEstimate `json:"estimate"`       // windowed p_f with Wilson CI
	TargetPf      float64                `json:"target_pf"`      // the QoS target p_q
	Sqrt2Law      float64                `json:"sqrt2_law"`      // Q(α_q/√2), eq. 14
	DegradedTicks int64                  `json:"degraded_ticks"` // window ticks served degraded
	Verdict       Verdict                `json:"verdict"`
}

// Audit continuously grades windowed overflow measurements against the QoS
// target and the √2-law prediction. Not safe for concurrent use; callers
// feeding it from ticks synchronize (one goroutine per audit is typical).
type Audit struct {
	cfg    AuditConfig
	sqrt2  float64 // Q(Q⁻¹(p_q)/√2), precomputed
	win    *stats.SlidingCounter
	degWin *stats.SlidingCounter // degraded-tick indicators, same window

	flaggedTarget   int64 // reports graded violates-target
	flaggedSqrt2    int64 // reports graded violates-sqrt2-law
	flaggedDegraded int64 // reports graded degraded
}

// NewAudit validates the configuration and returns an audit.
func NewAudit(cfg AuditConfig) (*Audit, error) {
	if !(cfg.TargetPf > 0) || cfg.TargetPf >= 0.5 {
		return nil, fmt.Errorf("qos: audit target p_q %g out of (0, 0.5)", cfg.TargetPf)
	}
	if cfg.Z == 0 {
		cfg.Z = 1.96
	}
	if cfg.Z < 0 || math.IsNaN(cfg.Z) || math.IsInf(cfg.Z, 0) {
		return nil, fmt.Errorf("qos: audit z %g must be positive and finite", cfg.Z)
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 50
	}
	return &Audit{
		cfg:    cfg,
		sqrt2:  gauss.Q(gauss.Qinv(cfg.TargetPf) / gauss.Sqrt2),
		win:    stats.NewSlidingCounter(cfg.Window),
		degWin: stats.NewSlidingCounter(cfg.Window),
	}, nil
}

// TargetPf returns the configured QoS target p_q.
func (a *Audit) TargetPf() float64 { return a.cfg.TargetPf }

// Sqrt2Law returns the precomputed √2-law prediction Q(α_q/√2).
func (a *Audit) Sqrt2Law() float64 { return a.sqrt2 }

// Observe feeds one overflow indicator (one measurement tick) into the
// audit's own sliding window, for a tick served healthy.
func (a *Audit) Observe(overflowed bool) { a.ObserveWith(overflowed, false) }

// ObserveWith feeds one tick's overflow indicator together with whether
// the gateway was serving under its degraded policy at that tick. While
// any degraded tick remains in the window, Report grades the window
// VerdictDegraded instead of a statistical verdict.
func (a *Audit) ObserveWith(overflowed, degraded bool) {
	a.win.Add(overflowed)
	a.degWin.Add(degraded)
}

// Report grades the audit's own window (fed via Observe/ObserveWith) and
// records the violation in the flag counters.
func (a *Audit) Report() Report {
	r := a.Evaluate(a.win.Estimate(a.cfg.Z))
	r.DegradedTicks = a.degWin.Estimate(0).Hits
	if r.DegradedTicks > 0 {
		r.Verdict = VerdictDegraded
	}
	switch r.Verdict {
	case VerdictViolatesTarget:
		a.flaggedTarget++
	case VerdictViolatesSqrt2Law:
		a.flaggedSqrt2++
	case VerdictDegraded:
		a.flaggedDegraded++
	}
	return r
}

// Flagged returns how many Report calls were graded as violating the
// target and the √2 law respectively.
func (a *Audit) Flagged() (target, sqrt2 int64) { return a.flaggedTarget, a.flaggedSqrt2 }

// FlaggedDegraded returns how many Report calls were graded degraded.
func (a *Audit) FlaggedDegraded() int64 { return a.flaggedDegraded }

// Evaluate grades an externally produced windowed estimate (e.g. the
// link's WindowedOverflow or a gateway snapshot's Overflow field) without
// touching the audit's own window or flag counters.
//
// The rule uses the Wilson lower bound as the evidence threshold: a
// violation is declared only when the entire confidence interval sits
// above the level in question, so noise on a healthy system is not
// flagged. Verdicts escalate: above Q(α_q/√2) ⇒ violates-sqrt2-law,
// else above p_q ⇒ violates-target (Prop 3.3's predicted bias), else ok.
func (a *Audit) Evaluate(e stats.WindowedEstimate) Report {
	r := Report{Estimate: e, TargetPf: a.cfg.TargetPf, Sqrt2Law: a.sqrt2}
	switch {
	case e.N < a.cfg.MinSamples:
		r.Verdict = VerdictInsufficient
	case e.Lo > a.sqrt2:
		r.Verdict = VerdictViolatesSqrt2Law
	case e.Lo > a.cfg.TargetPf:
		r.Verdict = VerdictViolatesTarget
	default:
		r.Verdict = VerdictOK
	}
	return r
}
