package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// countingRCBR is an RCBR model whose sources count their own Next calls,
// independently of any decorator around the model. It implements Renewer
// like RCBR, so the engine recycles its sources.
type countingRCBR struct {
	m traffic.RCBR
	n *atomic.Int64
}

type countingSource struct {
	inner traffic.Source
	n     *atomic.Int64
}

func (s *countingSource) Next() traffic.Segment { s.n.Add(1); return s.inner.Next() }

func (m countingRCBR) Stats() traffic.Stats { return m.m.Stats() }
func (m countingRCBR) New(r *rng.PCG) traffic.Source {
	return &countingSource{inner: m.m.New(r), n: m.n}
}
func (m countingRCBR) Renew(old traffic.Source, r *rng.PCG) traffic.Source {
	cs := old.(*countingSource)
	cs.inner = m.m.Renew(cs.inner, r)
	return cs
}

func engineResult(t *testing.T, model traffic.Model, est estimator.Estimator, ctrl core.Controller) sim.Result {
	t.Helper()
	e, err := sim.New(sim.Config{
		Capacity: ctsN, Model: model, Controller: ctrl, Estimator: est,
		HoldingTime: ctsTh, Seed: 11, Warmup: 200, MaxTime: 1500, Tc: 1, Tm: 10, CheckEvery: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func ce(t *testing.T) core.Controller {
	t.Helper()
	c, err := core.NewCertaintyEquivalent(ctsPce, 1, ctsSVR)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineTracedBitIdentical runs the same seeded engine with and
// without decorators, for an estimator with a settable memory and for a
// per-flow (FlowAware) one: the Results must match exactly.
func TestEngineTracedBitIdentical(t *testing.T) {
	for _, newEst := range []func() estimator.Estimator{
		func() estimator.Estimator { return estimator.NewExponential(10) },
		func() estimator.Estimator { return estimator.NewPerFlowExponential(10) },
	} {
		plain := engineResult(t, traffic.NewRCBR(1, ctsSVR, 1), newEst(), ce(t))
		p := newSimProbes(8, newSpanLog(1024))
		traced := engineResult(t, wrapModel(traffic.NewRCBR(1, ctsSVR, 1), p), wrapEstimator(newEst(), p), tracedController{ce(t), p})
		if a, b := fmt.Sprintf("%+v", plain), fmt.Sprintf("%+v", traced); a != b {
			t.Errorf("%s: traced result differs:\nplain  %s\ntraced %s", newEst().Name(), a, b)
		}
		if p.next.calls.Load() == 0 || p.update.calls.Load() < plain.Events {
			t.Errorf("%s: probes saw %d Next and %d Update calls over %d events",
				newEst().Name(), p.next.calls.Load(), p.update.calls.Load(), plain.Events)
		}
	}
}

// TestEngineCountsComplete checks the traffic probe against a count the
// model keeps itself, through the engine's recycling (Renew) path: a
// decorator that let the inner Renew hand out unwrapped sources would
// miss most Next calls.
func TestEngineCountsComplete(t *testing.T) {
	var n atomic.Int64
	p := newSimProbes(8, nil)
	res := engineResult(t, wrapModel(countingRCBR{traffic.NewRCBR(1, ctsSVR, 1), &n}, p),
		wrapEstimator(estimator.NewExponential(10), p), tracedController{ce(t), p})
	if got, want := p.next.calls.Load(), n.Load(); got != want || want == 0 {
		t.Errorf("probe counted %d Next calls, the sources saw %d", got, want)
	}
	// Every admission draws a first segment; the rest are renewals.
	if segs := p.next.calls.Load() - res.Admitted; segs <= 0 || segs > res.Events {
		t.Errorf("%d segment redraws for %d events", segs, res.Events)
	}
}

// TestImpulsiveTracedBitIdentical runs a small seeded ensemble with and
// without decorators on both the columnar and the scalar path.
func TestImpulsiveTracedBitIdentical(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		cfg := func(m traffic.Model, c core.Controller) sim.ImpulsiveConfig {
			return sim.ImpulsiveConfig{
				Capacity: 100, Model: m, Controller: c, MeasureCount: 100,
				Grid: []float64{5, 20}, Replications: 300, Seed: 5, Scalar: scalar,
			}
		}
		plain, err := sim.RunImpulsive(cfg(traffic.NewRCBR(1, ctsSVR, 1), ce(t)))
		if err != nil {
			t.Fatal(err)
		}
		p := newSimProbes(4, nil)
		p.reps = newRepTracker(2, nil)
		traced, err := sim.RunImpulsive(cfg(wrapModel(traffic.NewRCBR(1, ctsSVR, 1), p), tracedController{ce(t), p}))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := fmt.Sprintf("%+v", *plain), fmt.Sprintf("%+v", *traced); a != b {
			t.Errorf("scalar=%v: traced ensemble differs:\nplain  %s\ntraced %s", scalar, a, b)
		}
		if got := p.admissible.calls.Load(); got != 300 {
			t.Errorf("scalar=%v: %d controller calls for 300 replications", scalar, got)
		}
		if scalar {
			if p.advanceColumn.calls.Load() != 0 || p.next.calls.Load() == 0 {
				t.Errorf("scalar path: %d column advances, %d Next calls", p.advanceColumn.calls.Load(), p.next.calls.Load())
			}
			continue
		}
		// The columnar kernel advances once per grid point per replication
		// and never touches a scalar source.
		if got := p.advanceColumn.calls.Load(); got != 600 || p.next.calls.Load() != 0 {
			t.Errorf("columnar path: %d column advances (want 600), %d Next calls", got, p.next.calls.Load())
		}
		if got := p.reps.reps.Load(); got != 300 {
			t.Errorf("replication tracker closed %d of 300 replications", got)
		}
	}
}

// TestCapabilitiesForwarded checks that each decorator offers exactly the
// optional interfaces of what it wraps.
func TestCapabilitiesForwarded(t *testing.T) {
	p := newSimProbes(1, nil)
	for _, est := range []estimator.Estimator{
		estimator.NewMemoryless(), estimator.NewExponential(10), estimator.NewPerFlowExponential(10),
		estimator.NewAggregateOnly(10, 10), onlyEstimator{estimator.NewMemoryless()},
	} {
		w := wrapEstimator(est, p)
		for name, has := range map[string]func(estimator.Estimator) bool{
			"FlowAware":      func(e estimator.Estimator) bool { _, ok := e.(estimator.FlowAware); return ok },
			"MemoryReporter": func(e estimator.Estimator) bool { _, ok := e.(estimator.MemoryReporter); return ok },
			"MemorySetter":   func(e estimator.Estimator) bool { _, ok := e.(estimator.MemorySetter); return ok },
		} {
			if has(est) != has(w) {
				t.Errorf("%s: %s is %v on the estimator, %v on the decorator", est.Name(), name, has(est), has(w))
			}
		}
		if estimator.Memory(w) != estimator.Memory(est) {
			t.Errorf("%s: memory %g through the decorator, %g direct", est.Name(), estimator.Memory(w), estimator.Memory(est))
		}
	}
	fluid, err := traffic.NewMarkovFluid([]float64{0, 2}, [][]float64{{-1, 1}, {1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := traffic.NewMixture([]traffic.Model{traffic.NewRCBR(1, 0.3, 1), fluid}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []traffic.Model{traffic.NewRCBR(1, 0.3, 1), traffic.OnOff{PeakRate: 2, OnTime: 1, OffTime: 1}, fluid, mixed} {
		w := wrapModel(m, p)
		_, renew := m.(traffic.Renewer)
		_, wrenew := w.(traffic.Renewer)
		_, col := traffic.ColumnModelOf(m)
		_, wcol := traffic.ColumnModelOf(w)
		if renew != wrenew || col != wcol {
			t.Errorf("%T: Renewer %v/%v, columnar %v/%v (model/decorator)", m, renew, wrenew, col, wcol)
		}
	}
}

// onlyEstimator hides every optional capability of the estimator inside.
type onlyEstimator struct{ e estimator.Estimator }

func (o onlyEstimator) Reset(t float64)                    { o.e.Reset(t) }
func (o onlyEstimator) Advance(t float64)                  { o.e.Advance(t) }
func (o onlyEstimator) Update(s, q float64, n int)         { o.e.Update(s, q, n) }
func (o onlyEstimator) Estimate() (float64, float64, bool) { return o.e.Estimate() }
func (o onlyEstimator) Name() string                       { return "bare " + o.e.Name() }

// TestServedCountsComplete drives a traced server briefly and checks the
// timing Backend saw every decision and depart the server made.
func TestServedCountsComplete(t *testing.T) {
	sch, err := newSchedule(3, false, 4000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServedStack(newSpanLog(1<<12), 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := s.runPhase(sch, 1, 5000, 0.4, 0, nil, 1)
	snap := s.srv.Snapshot()
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if ps.failed != 0 || ps.answered != ps.sent {
		t.Fatalf("%d of %d answered, %d failed: %v", ps.answered, ps.sent, ps.failed, ps.failures)
	}
	if got := s.backend.admitted.Load(); got != snap.Decisions || got != ps.admits {
		t.Errorf("backend saw %d admissions; server decided %d, generator got %d", got, snap.Decisions, ps.admits)
	}
	departs := ps.sent - ps.admits
	if got := s.backend.departed.Load(); got != departs {
		t.Errorf("backend saw %d departs, generator sent %d", got, departs)
	}
	if st := s.g.Stats(); !st.LifecycleBalanced() || st.Active != 0 {
		t.Errorf("gateway not drained: %+v", st)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark")
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, doc []struct{ Name, Unit string }, code [][2]string) {
		if len(doc) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(doc), len(code))
			return
		}
		for i := range doc {
			if doc[i].Name != code[i][0] || doc[i].Unit != code[i][1] {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s printed", kind, i, doc[i].Name, doc[i].Unit, code[i][0], code[i][1])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestWindowedP99IgnoresAStall(t *testing.T) {
	var lat, due []int64
	for i := int64(0); i < 20000; i++ {
		d := i * int64(50*time.Microsecond) // 1 s at 20k/s
		l := int64(40 * time.Microsecond)
		if d >= int64(500*time.Millisecond) && d < int64(510*time.Millisecond) {
			l = int64(10 * time.Millisecond) // one 10 ms stall
		}
		lat, due = append(lat, l), append(due, d)
	}
	if got := windowedP99(lat, due, latencyWindow); got != int64(40*time.Microsecond) {
		t.Errorf("windowed p99 %d ns, want 40µs", got)
	}
	if got := quantile(lat, 0.995); got != int64(10*time.Millisecond) {
		t.Errorf("overall p99.5 %d ns, want the stall", got)
	}
}
