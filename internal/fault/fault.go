// Package fault injects measurement-pipeline faults into the admission
// gateway for chaos testing. The paper's robustness philosophy (§4) is
// that an MBAC must remain safe when its measurements misbehave; this
// package supplies the misbehavior — estimators that emit NaN/Inf bursts
// or go not-OK, update streams that stall mid-tick, latency clocks that
// freeze or jump, and client populations that leak slots or lie about
// rates — under deterministic, test-controllable switches.
//
// Everything here is a wrapper or a plan, never a mock of gateway logic:
// the wrapped estimator still runs the real filter underneath, so clearing
// a fault restores genuine estimates (and lets tests assert the bound
// recovers within one tick of the fault clearing).
package fault

import (
	"math"
	"sync/atomic"

	"repro/internal/enum"
	"repro/internal/estimator"
)

// Mode selects the estimator fault currently injected.
type Mode int32

const (
	// None passes the wrapped estimator through unchanged.
	None Mode = iota
	// NaNEstimates makes Estimate return (NaN, NaN, true) — a poisoned
	// measurement that claims to be valid.
	NaNEstimates
	// InfEstimates makes Estimate return (+Inf, +Inf, true).
	InfEstimates
	// NotOK makes Estimate report ok=false while leaving the values alone
	// — the estimator declaring itself unwarmed mid-flight.
	NotOK
	// DropUpdates silently discards Update calls (the measurement stream
	// goes dark) while Estimate keeps serving the stale filter state.
	DropUpdates
	modeEnd
)

var modeNames = enum.New(map[Mode]string{
	None:         "none",
	NaNEstimates: "nan",
	InfEstimates: "inf",
	NotOK:        "notok",
	DropUpdates:  "drop",
}, modeEnd)

// String implements fmt.Stringer.
func (m Mode) String() string { return modeNames.String(m) }

// ParseMode is the inverse of Mode.String, for CLI flags and scenario
// configs.
func ParseMode(s string) (Mode, error) { return modeNames.Parse(s) }

// Estimator wraps a real estimator.Estimator with injectable faults. The
// estimator protocol itself stays single-threaded (the gateway drives it
// under its measurement mutex); the fault controls — SetMode, Stall — are
// safe to flip from any goroutine while a tick is in flight, which is the
// point: chaos tests change the weather mid-measurement.
type Estimator struct {
	inner   estimator.Estimator
	mode    atomic.Int32
	dropped atomic.Int64
	gate    atomic.Pointer[chan struct{}]
}

// Wrap returns a fault-injecting estimator around inner, initially
// transparent (Mode None, not stalled).
func Wrap(inner estimator.Estimator) *Estimator {
	return &Estimator{inner: inner}
}

// SetMode switches the injected estimator fault.
func (f *Estimator) SetMode(m Mode) { f.mode.Store(int32(m)) }

// Mode returns the currently injected fault.
func (f *Estimator) Mode() Mode { return Mode(f.mode.Load()) }

// Dropped counts Update calls discarded under DropUpdates.
func (f *Estimator) Dropped() int64 { return f.dropped.Load() }

// Stall wedges the next Advance call (and with it the gateway tick that
// made it, which is holding the measurement mutex) until the returned
// resume function is called. Resume is idempotent. This is the
// stalled-tick fault: admissions keep flowing against the last published
// bound while the measurement loop is stuck, and only a lock-free
// watchdog can notice.
func (f *Estimator) Stall() (resume func()) {
	ch := make(chan struct{})
	f.gate.Store(&ch)
	var closed atomic.Bool
	return func() {
		if closed.CompareAndSwap(false, true) {
			f.gate.Store(nil)
			close(ch)
		}
	}
}

// Reset implements estimator.Estimator.
func (f *Estimator) Reset(t float64) { f.inner.Reset(t) }

// Advance implements estimator.Estimator, first blocking on any installed
// stall gate.
func (f *Estimator) Advance(t float64) {
	if ch := f.gate.Load(); ch != nil {
		<-*ch
	}
	f.inner.Advance(t)
}

// Update implements estimator.Estimator; under DropUpdates the aggregates
// are counted and discarded.
func (f *Estimator) Update(sumRate, sumSq float64, n int) {
	if Mode(f.mode.Load()) == DropUpdates {
		f.dropped.Add(1)
		return
	}
	f.inner.Update(sumRate, sumSq, n)
}

// Estimate implements estimator.Estimator, applying the injected fault to
// the wrapped estimator's output.
func (f *Estimator) Estimate() (mu, sigma float64, ok bool) {
	mu, sigma, ok = f.inner.Estimate()
	switch Mode(f.mode.Load()) {
	case NaNEstimates:
		return math.NaN(), math.NaN(), true
	case InfEstimates:
		return math.Inf(1), math.Inf(1), true
	case NotOK:
		return mu, sigma, false
	}
	return mu, sigma, ok
}

// Name implements estimator.Estimator.
func (f *Estimator) Name() string { return "fault(" + f.inner.Name() + ")" }

// Memory implements estimator.MemoryReporter by delegation, so the
// wrapped estimator's T_m tag survives fault injection.
func (f *Estimator) Memory() float64 { return estimator.Memory(f.inner) }
