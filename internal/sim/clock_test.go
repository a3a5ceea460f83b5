package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// heapRCBR is the heap-scheduler oracle for RCBR: the same model, sources
// and Renew, but its Stats hide ExpSegments, so the engine queues one
// timer per flow on the event heap instead of using the
// competing-exponentials clock. Short of a HoldingSampler, it is the only
// way RCBR reaches the heap.
type heapRCBR struct{ traffic.RCBR }

func (m heapRCBR) Stats() traffic.Stats {
	st := m.RCBR.Stats()
	st.ExpSegments = false
	return st
}

// fig10Cell is one cell of the paper's Figure 10 grid at n = 100,
// σ/μ = 0.3, T_h = 1000 and p_ce = 1e-3 (so T̃_h = 100).
type fig10Cell struct{ tc, tm float64 }

const (
	fig10N, fig10SVR, fig10Th, fig10Pce = 100.0, 0.3, 1000.0, 1e-3
	fig10Warmup                         = 2000.0
)

var fig10Cells = []fig10Cell{{1, 10}, {1, 100}, {10, 10}, {10, 100}}

func (c fig10Cell) String() string { return fmt.Sprintf("Tc=%g,Tm=%g", c.tc, c.tm) }

// fig10Config builds one Figure 10 run on the given model with the
// stopping rule off, so both schedulers simulate the same time span.
// lambda > 0 switches to Poisson arrivals; th <= 0 means flows never
// depart.
func fig10Config(tb testing.TB, model traffic.Model, c fig10Cell, th, lambda float64, seed uint64, budget float64) Config {
	tb.Helper()
	return Config{
		Capacity: fig10N, Model: model, Controller: mustCE(tb, fig10Pce),
		Estimator: estimator.NewExponential(c.tm), HoldingTime: th, ArrivalRate: lambda,
		Seed: seed, Warmup: fig10Warmup, MaxTime: budget, Tc: c.tc, Tm: c.tm,
		CheckEvery: 10 * budget,
	}
}

// runConfig builds and runs one engine.
func runConfig(tb testing.TB, cfg Config) Result {
	tb.Helper()
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// pooled sums a scheduler's runs over seeds: equal-length runs, so p_f is
// the mean of the per-run fractions and its 95% half-width combines the
// per-run batch-means half-widths. flowTime is the measured flow-time
// ∫N_t dt, the exposure of the per-flow renegotiation clocks.
type pooled struct {
	runs                       int
	flows, pf, pfHW2, flowTime float64
	admitted, departed, final  int64
	arrivals, blocked          int64
	renegUp, renegFail         int64
}

func (p *pooled) add(r Result) {
	p.runs++
	p.flows += r.MeanFlows
	p.pf += r.OverflowTimeFraction
	p.pfHW2 += r.OverflowHalfWidth * r.OverflowHalfWidth
	p.flowTime += r.MeanFlows * r.Duration
	p.admitted += r.Admitted
	p.departed += r.Departed
	p.final += int64(r.Flows)
	p.arrivals += r.Arrivals
	p.blocked += r.Blocked
	p.renegUp += r.RenegRequests
	p.renegFail += r.RenegFailures
}

func (p *pooled) meanFlows() float64 { return p.flows / float64(p.runs) }
func (p *pooled) meanPf() float64    { return p.pf / float64(p.runs) }
func (p *pooled) pfHalfWidth() float64 {
	return math.Sqrt(p.pfHW2) / float64(p.runs)
}

// TestExpClockEngagement pins which configurations take the
// competing-exponentials clock: exactly those whose model declares
// ExpSegments and whose holding times are exponential. Which models
// declare it is pinned in internal/traffic.
func TestExpClockEngagement(t *testing.T) {
	rcbr := traffic.NewRCBR(1, 0.3, 1)
	cases := []struct {
		name  string
		model traffic.Model
		edit  func(*Config)
		want  bool
	}{
		{"rcbr", rcbr, nil, true},
		{"rcbr poisson arrivals", rcbr, func(c *Config) { c.ArrivalRate = 2 }, true},
		{"rcbr no departures", rcbr, func(c *Config) { c.HoldingTime = 0 }, true},
		{"rcbr holding sampler", rcbr, func(c *Config) { c.HoldingSampler = func(r *rng.PCG) float64 { return 5 } }, false},
		{"heap oracle", heapRCBR{rcbr}, nil, false},
		{"onoff", traffic.OnOff{PeakRate: 2, OnTime: 1, OffTime: 1}, nil, false},
	}
	for _, c := range cases {
		cfg := Config{
			Capacity: 50, Model: c.model, Controller: mustCE(t, 1e-2),
			Estimator: estimator.NewMemoryless(), HoldingTime: 20, MaxTime: 10,
		}
		if c.edit != nil {
			c.edit(&cfg)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.clk.on != c.want {
			t.Errorf("%s: competing-exponentials clock on = %v, want %v", c.name, e.clk.on, c.want)
		}
	}
}

// schedulerPair runs the configuration cfg(model, seed) for seeds
// 1..seeds on the competing-exponentials clock (plain RCBR with mean
// segment tc) and on the heap oracle, pooling each scheduler's results.
func schedulerPair(tb testing.TB, tc float64, seeds int, cfg func(model traffic.Model, seed uint64) Config) (clock, heap pooled) {
	tb.Helper()
	model := traffic.NewRCBR(1, fig10SVR, tc)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		clock.add(runConfig(tb, cfg(model, seed)))
		heap.add(runConfig(tb, cfg(heapRCBR{model}, seed)))
	}
	return clock, heap
}

// countsAgree reports whether two event counts over the same simulated
// time agree within four Poisson standard errors of their difference.
func countsAgree(a, b int64) bool {
	return math.Abs(float64(a-b)) <= 4*math.Sqrt(float64(a+b))
}

// assertSameLaw compares the pooled results of the two schedulers in a
// regime that pins N_t near the controller's limit (continuous load,
// arrivals above the admissible load, flows that never depart):
//   - the lifecycle identity Admitted = Departed + Flows, exactly, on both;
//   - mean flow count within 1% (it sits within a flow or two of m*);
//   - overlapping 95% batch-means intervals on p_f;
//   - admission, departure and arrival counts within four Poisson standard
//     errors (countsAgree);
//   - renegotiation requests per unit of flow-time within four Poisson
//     standard errors: 1/(2T_c) on both schedulers, the direct check of
//     the clock's per-flow segment rate;
//   - blocking and renegotiation-failure probabilities within a factor of
//     two: both are counted inside the overflow episodes p_f measures, so
//     they cluster and carry p_f's spread (per-run intervals of ±50–90%)
//     rather than a Poisson one.
func assertSameLaw(t *testing.T, clock, heap pooled) {
	t.Helper()
	for name, p := range map[string]pooled{"clock": clock, "heap": heap} {
		if p.admitted != p.departed+p.final {
			t.Errorf("%s: admitted %d != departed %d + active %d", name, p.admitted, p.departed, p.final)
		}
	}
	if d := clock.meanFlows()/heap.meanFlows() - 1; math.Abs(d) > 0.01 {
		t.Errorf("mean flows: clock %.3f vs heap %.3f (%+.2f%%, bound 1%%)", clock.meanFlows(), heap.meanFlows(), 100*d)
	}
	if d, hw := math.Abs(clock.meanPf()-heap.meanPf()), clock.pfHalfWidth()+heap.pfHalfWidth(); d > hw {
		t.Errorf("p_f: clock %.4g±%.2g vs heap %.4g±%.2g: intervals do not overlap",
			clock.meanPf(), clock.pfHalfWidth(), heap.meanPf(), heap.pfHalfWidth())
	}
	for _, c := range []struct {
		name        string
		clock, heap int64
	}{
		{"admitted", clock.admitted, heap.admitted},
		{"departed", clock.departed, heap.departed},
		{"arrivals", clock.arrivals, heap.arrivals},
	} {
		if !countsAgree(c.clock, c.heap) {
			t.Errorf("%s: clock %d vs heap %d, beyond 4 Poisson standard errors", c.name, c.clock, c.heap)
		}
	}
	rc, rh := float64(clock.renegUp)/clock.flowTime, float64(heap.renegUp)/heap.flowTime
	se := math.Hypot(math.Sqrt(float64(clock.renegUp))/clock.flowTime, math.Sqrt(float64(heap.renegUp))/heap.flowTime)
	if math.Abs(rc-rh) > 4*se {
		t.Errorf("renegotiation requests per flow-time: clock %.5f vs heap %.5f, beyond 4 Poisson standard errors (%.2g)", rc, rh, se)
	}
	for _, c := range []struct {
		name        string
		clock, heap float64
	}{
		{"blocking probability", ratio(clock.blocked, clock.arrivals), ratio(heap.blocked, heap.arrivals)},
		{"renegotiation failure probability", ratio(clock.renegFail, clock.renegUp), ratio(heap.renegFail, heap.renegUp)},
	} {
		if c.clock > 2*c.heap || c.heap > 2*c.clock {
			t.Errorf("%s: clock %.4g vs heap %.4g, beyond a factor of 2", c.name, c.clock, c.heap)
		}
	}
}

// ratio returns num/den, 0 for an empty denominator.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// TestMemorylessMatchesHeapOracle is the distributional differential of
// the competing-exponentials clock against the heap scheduler it replaces
// for RCBR: the four Figure 10 cells, three seeds each, 6000·T_c measured
// time per run (about 0.7M events). The two schedulers consume randomness
// differently, so the comparison is in law (assertSameLaw), not bit for
// bit. The stat tier runs a larger version that also covers Poisson
// arrivals and flows that never depart.
func TestMemorylessMatchesHeapOracle(t *testing.T) {
	for _, c := range fig10Cells {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			clock, heap := schedulerPair(t, c.tc, 3, func(m traffic.Model, seed uint64) Config {
				return fig10Config(t, m, c, fig10Th, 0, seed, 6000*c.tc)
			})
			assertSameLaw(t, clock, heap)
		})
	}
}

// fig10Bench runs Figure 10's (T_c = 1, T_m = 10) cell once per
// iteration and reports the engine's cost per processed event.
func fig10Bench(b *testing.B, model traffic.Model) {
	b.ReportAllocs()
	c := fig10Cells[0]
	var events int64
	for i := 0; i < b.N; i++ {
		events += runConfig(b, fig10Config(b, model, c, fig10Th, 0, uint64(i+1), 2000)).Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkEngineFig10 is the Figure 10 cell on the competing-exponentials
// clock.
func BenchmarkEngineFig10(b *testing.B) { fig10Bench(b, traffic.NewRCBR(1, fig10SVR, 1)) }

// BenchmarkEngineFig10Heap is the same cell on the heap scheduler (the
// oracle wrapper), the layer-level reference for the clock's gain.
func BenchmarkEngineFig10Heap(b *testing.B) { fig10Bench(b, heapRCBR{traffic.NewRCBR(1, fig10SVR, 1)}) }
