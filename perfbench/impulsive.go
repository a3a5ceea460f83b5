package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// impulsive-ensemble: the √2-law ensemble of scenarios/sqrt2-law-pq1e-3.json
// — c = 800, p_q = 1e-3, memoryless certainty equivalence (the initial
// estimate from n = c/μ waiting flows), infinite holding — run through
// sim.RunImpulsive on the replication pool with GOMAXPROCS workers. Each
// job is one ensemble of the scenario's 3 600 replications; overflow is
// probed at t = 20 T_c, long after the admission-time correlation is gone.
const (
	impC, impPq, impSVR = 800.0, 1e-3, 0.3
	impReps             = 3600
	impProbe            = 20.0
	impZ                = 3.29 // 99.9% Wilson interval
	// impFiniteN is how far below the asymptotic Q(α_q/√2) the finite-n
	// overflow may sit: M0 is truncated to an integer (≈0.5 flow fewer
	// than m*), which lowers p_f at c = 800 to ≈0.0126 against 0.0144.
	impFiniteN = 0.25
)

func impConfig(seed uint64, reps int, model traffic.Model, ctrl core.Controller) sim.ImpulsiveConfig {
	return sim.ImpulsiveConfig{
		Capacity: impC, Model: model, Controller: ctrl, MeasureCount: int(impC),
		Grid: []float64{impProbe}, Replications: reps, Seed: seed,
	}
}

// impJob is one ensemble.
type impJob struct {
	seed uint64
	res  *sim.ImpulsiveResult
	wall time.Duration
}

// impEnsembles runs ensembles until seconds have passed (or maxJobs);
// p, when set, decorates the model and controller of every ensemble.
func impEnsembles(seed uint64, seconds float64, maxJobs int, p *simProbes, log *spanLog) ([]impJob, time.Duration, time.Duration, runtimeDelta, error) {
	ce, err := core.NewCertaintyEquivalent(impPq, 1, impSVR)
	if err != nil {
		return nil, 0, 0, runtimeDelta{}, err
	}
	var ctrl core.Controller = ce
	var model traffic.Model = traffic.NewRCBR(1, impSVR, 1)
	if p != nil {
		ctrl = tracedController{ce, p}
		model = wrapModel(model, p)
	}
	var jobs []impJob
	runtime.GC() // start every measured half with a clean heap
	rt0, cpu0, t0 := readRuntime(), processCPU(), time.Now()
	for k := 0; k < maxJobs && time.Since(t0).Seconds() < seconds; k++ {
		j := impJob{seed: seed*1000 + uint64(k)}
		if p != nil {
			p.parent = log.id()
		}
		s0 := nowNs()
		j.res, err = sim.RunImpulsive(impConfig(j.seed, impReps, model, ctrl))
		if err != nil {
			return nil, 0, 0, runtimeDelta{}, err
		}
		j.wall = time.Duration(nowNs() - s0)
		if p != nil {
			log.addAlways(span{ID: p.parent, Name: "sim.ensemble", Start: s0, End: s0 + int64(j.wall)})
		}
		jobs = append(jobs, j)
	}
	return jobs, time.Since(t0), processCPU() - cpu0, readRuntime().sub(rt0), nil
}

func runImpulsive(r *run) error {
	ce, err := core.NewCertaintyEquivalent(impPq, 1, impSVR)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := sim.RunImpulsive(impConfig(uint64(i+1), 600, traffic.NewRCBR(1, impSVR, 1), ce)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setE2E("setup_s", "s", medianF(setups))

	sec := r.seconds
	if r.trace {
		sec /= 2
	}
	jobs, wall, cpu, rt, err := impEnsembles(r.seed, sec, math.MaxInt, nil, nil)
	if err != nil {
		return err
	}
	r.attempted += int64(len(jobs))
	reps := float64(len(jobs) * impReps)
	lat := make([]int64, len(jobs))
	var pf stats.Counter
	var m0 stats.Moments
	for i, j := range jobs {
		lat[i] = int64(j.wall)
		pf.Merge(&j.res.PfAt[0])
		m0.Merge(&j.res.M0)
	}
	mstar := theory.AdmissibleFlows(impC, 1, impSVR, impPq)
	r.setE2E("latency_p50_us", "us", float64(quantile(lat, 0.5))/1e3)
	r.setReported("latency_p99_us", "us", float64(quantile(lat, 0.99))/1e3)
	r.setReported("max_rate_ops", "op/s", reps/wall.Seconds())
	r.setE2E("cpu_us_per_op", "us", cpu.Seconds()*1e6/reps)
	r.setE2E("admitted_share", "ratio", m0.Mean()/mstar)
	fmt.Printf("impulsive: %d ensembles of %d replications in %.4gs (%.0f reps/s)\n", len(jobs), impReps, wall.Seconds(), reps/wall.Seconds())

	// Proposition 3.3: p_f → Q(α_q/√2), far above p_q.
	want := theory.ImpulsiveOverflow(impPq)
	lo, hi := stats.Wilson(pf.Hits(), pf.N(), impZ)
	r.check("impulsive.sqrt2_law", lo <= want && hi >= (1-impFiniteN)*want && lo > 5*impPq,
		"p_f %.5f, 99.9%% Wilson [%.5f, %.5f] over %d replications; Q(α/√2) = %.5f (finite-n allowance %.0f%% below), p_q = %g",
		pf.P(), lo, hi, pf.N(), want, 100*impFiniteN, impPq)
	// Proposition 3.1: M0 ≈ N(m*, ((σ/μ)√n)²); the integer truncation
	// lowers the mean by about half a flow.
	pred := theory.ImpulsiveAdmittedCount(theory.System{Capacity: impC, Mu: 1, Sigma: impSVR}, impPq)
	r.check("impulsive.m0", math.Abs(m0.Mean()-(pred.Mean-0.5)) <= 1 && math.Abs(m0.StdDev()/pred.StdDev-1) <= 0.15,
		"mean M0 %.3f vs m* − 0.5 = %.3f (±1), sd %.3f vs (σ/μ)√n = %.3f (±15%%)",
		m0.Mean(), pred.Mean-0.5, m0.StdDev(), pred.StdDev)

	if !r.trace {
		return nil
	}
	p := newSimProbes(64, r.log)
	p.reps = newRepTracker(1, r.log)
	tjobs, twall, tcpu, _, err := impEnsembles(r.seed, sec, len(jobs), p, r.log)
	if err != nil {
		return err
	}
	r.attempted += int64(len(tjobs))
	same := 0
	for i := range tjobs {
		if fmt.Sprintf("%+v", *tjobs[i].res) == fmt.Sprintf("%+v", *jobs[i].res) {
			same++
		}
	}
	r.check("trace.bit_identical", same == len(tjobs), "%d of %d traced ensembles reproduce their untraced result exactly", same, len(tjobs))
	treps := float64(len(tjobs) * impReps)
	r.setProbeLayer(p)
	workers := gomaxprocs()
	r.setLayer("pool.workers", "count", float64(workers))
	r.setLayer("pool.busy_share", "ratio", float64(p.reps.busy.Load())/(float64(twall.Nanoseconds())*float64(workers)))
	r.setLayer("go.allocs_per_op", "count", rt.allocs/reps)
	r.setLayer("go.gc_cpu_fraction", "ratio", rt.gcShare())
	r.setLayer("trace.overhead_share", "ratio", (tcpu.Seconds()/treps)/(cpu.Seconds()/reps)-1)
	if got := p.reps.reps.Load(); got != int64(treps) {
		r.check("trace.replications_counted", false, "%d of %d replications traced", got, int64(treps))
	}
	return nil
}
