package sim

import "math"

// expClock is the heap-free scheduler for memoryless configurations: every
// flow renegotiates after an Exp(T_c) segment (traffic.Stats.ExpSegments),
// departs after an Exp(T_h) holding time, and arrivals, if any, are
// Poisson(λ).
//
// The argument is the one for competing exponentials. With n live flows
// the pending clocks are n renegotiation clocks of rate 1/T_c, n departure
// clocks of rate 1/T_h and the arrival clock of rate λ, all independent and
// memoryless. The first of them fires after Exp(Λ) with
// Λ = n/T_c + n/T_h + λ, and it is clock i with probability rate_i/Λ,
// independently of when. Memorylessness makes the clocks that did not fire
// fresh again, so after every event (and every admission it triggers) the
// scheduler can redraw the time to the next one from the new Λ. One engine
// draw and one uniform pick replace the per-flow timers, the heap and the
// stale events departed flows leave behind.
//
// The flows' own sources still produce every segment on their own
// substreams, so rate draws are unchanged; only the timing comes from the
// engine stream. Runs therefore match the heap scheduler in law, not bit
// for bit.
type expClock struct {
	on          bool
	segRate     float64 // per-flow renegotiation rate 1/T_c
	departRate  float64 // per-flow departure rate 1/T_h; 0 when flows never depart
	arrivalRate float64 // Poisson arrival rate λ; 0 under continuous load
	next        float64 // firing time of the pending event; +Inf when none can fire
}

// newExpClock returns a live clock for segments of mean tc, exponential
// holding times of mean th (th <= 0: flows never depart) and Poisson
// arrivals at rate lambda (lambda <= 0: none).
func newExpClock(tc, th, lambda float64) expClock {
	c := expClock{on: true, segRate: 1 / tc}
	if th > 0 {
		c.departRate = 1 / th
	}
	if lambda > 0 {
		c.arrivalRate = lambda
	}
	return c
}

// rate returns Λ, the total rate of all pending clocks with n live flows.
func (c *expClock) rate(n int) float64 {
	return float64(n)*(c.segRate+c.departRate) + c.arrivalRate
}

// nextEventTime returns the firing time of the earliest pending event, +Inf
// when nothing is pending.
func (e *Engine) nextEventTime() float64 {
	if e.clk.on {
		return e.clk.next
	}
	if e.events.len() == 0 {
		return math.Inf(1)
	}
	return e.events.peek().t
}

// rearm draws the time to the next event from the current population. It
// runs after every state change; the heap scheduler needs no rearming.
func (e *Engine) rearm() {
	if !e.clk.on {
		return
	}
	rate := e.clk.rate(e.nActive)
	if rate <= 0 {
		e.clk.next = math.Inf(1)
		return
	}
	e.clk.next = e.clock + e.rng.Exp(1/rate)
}

// pick decides which clock fired: the arrival clock with probability λ/Λ,
// otherwise a uniformly chosen live flow, which renegotiates with
// probability (1/T_c)/(1/T_c + 1/T_h) and departs otherwise. One uniform on
// [0, Λ) decides both: past λ, its integer part in units of the per-flow
// rate is the flow's index in the active list and the remainder, uniform
// again, is the event kind.
func (e *Engine) pick() (kind uint8, slot int) {
	c := &e.clk
	active := e.ar.active
	u := e.rng.Float64() * c.rate(len(active))
	if u < c.arrivalRate || len(active) == 0 {
		return evArrival, -1
	}
	u -= c.arrivalRate
	per := c.segRate + c.departRate
	k := int(u / per)
	if k >= len(active) { // rounding at the top of [0, Λ)
		k = len(active) - 1
	}
	slot = int(active[k])
	if u-float64(k)*per < c.segRate {
		return evSegment, slot
	}
	return evDepart, slot
}
