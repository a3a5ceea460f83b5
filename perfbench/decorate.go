package main

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// simProbes is one decorator set: the probes around the estimator,
// controller and traffic calls of one simulation engine (or of one
// ensemble, whose pool workers share it). parent is the span the calls
// nest under.
type simProbes struct {
	advance, update, estimate, flow *probe
	admissible                      *probe
	next, initColumn, advanceColumn *probe
	parent                          int64
	reps                            *repTracker // columnar ensembles only
}

func newSimProbes(every int64, log *spanLog) *simProbes {
	return &simProbes{
		advance:       newProbe("estimator.advance", every, log),
		update:        newProbe("estimator.update", every, log),
		estimate:      newProbe("estimator.estimate", every, log),
		flow:          newProbe("estimator.flow", every, log),
		admissible:    newProbe("core.admissible", every, log),
		next:          newProbe("traffic.next", every, log),
		initColumn:    newProbe("traffic.init_column", 1, log),
		advanceColumn: newProbe("traffic.advance_column", 1, log),
	}
}

// addInto folds every probe of s into dst.
func (s *simProbes) addInto(dst *simProbes) {
	s.advance.addInto(dst.advance)
	s.update.addInto(dst.update)
	s.estimate.addInto(dst.estimate)
	s.flow.addInto(dst.flow)
	s.admissible.addInto(dst.admissible)
	s.next.addInto(dst.next)
	s.initColumn.addInto(dst.initColumn)
	s.advanceColumn.addInto(dst.advanceColumn)
}

// layerNs is the extrapolated time spent inside the decorated layers.
func (s *simProbes) layerNs() (est, ctrl, traf float64) {
	est = s.advance.totalNs() + s.update.totalNs() + s.estimate.totalNs() + s.flow.totalNs()
	ctrl = s.admissible.totalNs()
	traf = s.next.totalNs() + s.initColumn.totalNs() + s.advanceColumn.totalNs()
	return est, ctrl, traf
}

// ---------------------------------------------------------------------------
// Estimator decorators. The engine and the gateway type-assert the
// estimator for estimator.FlowAware and estimator.MemoryReporter /
// MemorySetter, so the wrapper must offer exactly the capabilities of the
// estimator it wraps: one type per combination.

type tracedEstimator struct {
	inner estimator.Estimator
	p     *simProbes
}

func (e *tracedEstimator) Reset(t float64) { e.inner.Reset(t) }
func (e *tracedEstimator) Name() string    { return e.inner.Name() }

func (e *tracedEstimator) Advance(t float64) {
	t0 := e.p.advance.begin()
	e.inner.Advance(t)
	e.p.advance.end(t0, 1, e.p.parent)
}

func (e *tracedEstimator) Update(sumRate, sumSq float64, n int) {
	t0 := e.p.update.begin()
	e.inner.Update(sumRate, sumSq, n)
	e.p.update.end(t0, 1, e.p.parent)
}

func (e *tracedEstimator) Estimate() (mu, sigma float64, ok bool) {
	t0 := e.p.estimate.begin()
	mu, sigma, ok = e.inner.Estimate()
	e.p.estimate.end(t0, 1, e.p.parent)
	return mu, sigma, ok
}

type flowEstimator struct {
	*tracedEstimator
	fa estimator.FlowAware
}

func (e flowEstimator) FlowAdmitted(id int, rate float64) {
	t0 := e.p.flow.begin()
	e.fa.FlowAdmitted(id, rate)
	e.p.flow.end(t0, 1, e.p.parent)
}

func (e flowEstimator) FlowRateChanged(id int, rate float64) {
	t0 := e.p.flow.begin()
	e.fa.FlowRateChanged(id, rate)
	e.p.flow.end(t0, 1, e.p.parent)
}

func (e flowEstimator) FlowDeparted(id int) {
	t0 := e.p.flow.begin()
	e.fa.FlowDeparted(id)
	e.p.flow.end(t0, 1, e.p.parent)
}

type memoryEstimator struct {
	*tracedEstimator
	mr estimator.MemoryReporter
}

func (e memoryEstimator) Memory() float64 { return e.mr.Memory() }

type setterEstimator struct {
	memoryEstimator
	ms estimator.MemorySetter
}

func (e setterEstimator) SetMemory(tm float64) { e.ms.SetMemory(tm) }

type flowMemoryEstimator struct {
	flowEstimator
	mr estimator.MemoryReporter
}

func (e flowMemoryEstimator) Memory() float64 { return e.mr.Memory() }

type flowSetterEstimator struct {
	flowMemoryEstimator
	ms estimator.MemorySetter
}

func (e flowSetterEstimator) SetMemory(tm float64) { e.ms.SetMemory(tm) }

// wrapEstimator returns inner behind probes, keeping its optional
// capabilities.
func wrapEstimator(inner estimator.Estimator, p *simProbes) estimator.Estimator {
	base := &tracedEstimator{inner: inner, p: p}
	fa, isFlow := inner.(estimator.FlowAware)
	mr, isMem := inner.(estimator.MemoryReporter)
	ms, isSet := inner.(estimator.MemorySetter)
	switch {
	case isFlow && isSet:
		return flowSetterEstimator{flowMemoryEstimator{flowEstimator{base, fa}, mr}, ms}
	case isFlow && isMem:
		return flowMemoryEstimator{flowEstimator{base, fa}, mr}
	case isFlow:
		return flowEstimator{base, fa}
	case isSet:
		return setterEstimator{memoryEstimator{base, mr}, ms}
	case isMem:
		return memoryEstimator{base, mr}
	default:
		return base
	}
}

// ---------------------------------------------------------------------------
// Controller decorator. Neither the engine nor the gateway type-asserts a
// controller, so one type suffices.

type tracedController struct {
	inner core.Controller
	p     *simProbes
}

func (c tracedController) Name() string { return c.inner.Name() }

func (c tracedController) Admissible(m core.Measurement) float64 {
	t0 := c.p.admissible.begin()
	v := c.inner.Admissible(m)
	c.p.admissible.end(t0, 1, c.p.parent)
	return v
}

// ---------------------------------------------------------------------------
// Traffic decorators. The engine and the ensemble type-assert the model
// for traffic.Renewer (source recycling) and traffic.ColumnModel (the
// columnar ensemble kernel). A wrapper that hid Renewer would change
// allocation behaviour; one that promoted the inner Renew would hand out
// unwrapped sources whose Next calls go uncounted; one that hid
// ColumnModel would silently move the ensemble to its scalar path.

type tracedModel struct {
	inner traffic.Model
	p     *simProbes
}

func (m *tracedModel) Stats() traffic.Stats { return m.inner.Stats() }

func (m *tracedModel) New(r *rng.PCG) traffic.Source {
	return &tracedSource{inner: m.inner.New(r), p: m.p}
}

type tracedSource struct {
	inner traffic.Source
	p     *simProbes
}

func (s *tracedSource) Next() traffic.Segment {
	t0 := s.p.next.begin()
	seg := s.inner.Next()
	s.p.next.end(t0, 1, s.p.parent)
	return seg
}

type renewModel struct {
	*tracedModel
	rn traffic.Renewer
}

// Renew recycles the wrapper together with the source inside it, so a
// recycled source stays counted and the steady state stays allocation-free.
func (m renewModel) Renew(old traffic.Source, r *rng.PCG) traffic.Source {
	if ts, ok := old.(*tracedSource); ok {
		ts.inner = m.rn.Renew(ts.inner, r)
		return ts
	}
	return m.New(r)
}

type columnOps struct {
	cm traffic.ColumnModel
	p  *simProbes
}

func (c columnOps) InitColumn(cols *traffic.Columns, lo, hi int) {
	if lo == 0 && c.p.reps != nil {
		c.p.reps.begin(cols)
	}
	t0 := c.p.initColumn.begin()
	c.cm.InitColumn(cols, lo, hi)
	c.p.initColumn.end(t0, hi-lo, c.p.parent)
}

func (c columnOps) AdvanceColumn(cols *traffic.Columns, n int, t float64) {
	t0 := c.p.advanceColumn.begin()
	c.cm.AdvanceColumn(cols, n, t)
	c.p.advanceColumn.end(t0, n, c.p.parent)
	if c.p.reps != nil {
		c.p.reps.advanced(cols, c.p.parent)
	}
}

// repTracker recovers replication boundaries of the columnar ensemble
// from outside: a replication starts with InitColumn over [0, n) on its
// worker's column arena and ends with its grid-th AdvanceColumn there.
type repTracker struct {
	grid int
	log  *spanLog
	mu   sync.Mutex
	open map[*traffic.Columns]*repState
	busy atomic.Int64 // summed replication time, ns
	reps atomic.Int64
}

type repState struct {
	start    int64
	advances int
}

func newRepTracker(grid int, log *spanLog) *repTracker {
	return &repTracker{grid: grid, log: log, open: make(map[*traffic.Columns]*repState)}
}

func (r *repTracker) begin(cols *traffic.Columns) {
	r.mu.Lock()
	st := r.open[cols]
	if st == nil {
		st = new(repState)
		r.open[cols] = st
	}
	st.start, st.advances = nowNs(), 0
	r.mu.Unlock()
}

func (r *repTracker) advanced(cols *traffic.Columns, parent int64) {
	r.mu.Lock()
	st := r.open[cols]
	done := st != nil && st.advances+1 == r.grid
	var start int64
	if st != nil {
		st.advances++
		start = st.start
	}
	r.mu.Unlock()
	if !done {
		return
	}
	end := nowNs()
	r.busy.Add(end - start)
	r.reps.Add(1)
	r.log.addAlways(span{Name: "pool.replication", Start: start, End: end, Parent: parent})
}

type columnModel struct {
	*tracedModel
	columnOps
}

type renewColumnModel struct {
	renewModel
	columnOps
}

// wrapModel returns inner behind probes, keeping its optional
// capabilities. The columnar capability is forwarded only where
// traffic.ColumnModelOf grants it to inner (a mixture of non-columnar
// components implements the methods but may not use them).
func wrapModel(inner traffic.Model, p *simProbes) traffic.Model {
	base := &tracedModel{inner: inner, p: p}
	rn, isRenew := inner.(traffic.Renewer)
	cm, isCol := traffic.ColumnModelOf(inner)
	switch {
	case isRenew && isCol:
		return renewColumnModel{renewModel{base, rn}, columnOps{cm, p}}
	case isCol:
		return columnModel{base, columnOps{cm, p}}
	case isRenew:
		return renewModel{base, rn}
	default:
		return base
	}
}
