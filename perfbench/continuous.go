package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/traffic"
)

// continuous-rcbr: Figure 10 cells of the continuous-load engine at
// n = 100, σ/μ = 0.3, T_h = 1000, p_ce = 1e-3 (T̃_h = 100). Each cell gets
// 20 000·T_c measured time units after a 2 000-unit warm-up, so every
// cell processes about 2M events; the stopping rule is off (CheckEvery
// past the horizon), so an engine that is statistically the same does the
// same simulated work.
const (
	ctsN, ctsSVR, ctsTh, ctsPce = 100.0, 0.3, 1000.0, 1e-3
	ctsWarmup                   = 2000.0
	ctsPerTc                    = 20000.0
	ctsEngines                  = 2 // engines run at once, one per core
	ctsPfFactorLow              = 30.0
	ctsPfFactorHigh             = 2.0
	ctsFlowsTolerance           = 0.03
)

type ctsCell struct{ tc, tmRatio float64 }

var fig10Cells = []ctsCell{{1, 0.1}, {1, 1}, {10, 0.1}, {10, 1}}

func (c ctsCell) tm() float64 { return c.tmRatio * ctsTh / math.Sqrt(ctsN) }

func (c ctsCell) String() string { return fmt.Sprintf("Tc=%g Tm=%g", c.tc, c.tm()) }

// ctsJob is one cell run.
type ctsJob struct {
	cell ctsCell
	seed uint64
	res  sim.Result
	wall time.Duration
	err  error
}

// runCell builds and runs one engine; p, when set, decorates its
// estimator, controller and traffic model.
func runCell(c ctsCell, seed uint64, budget float64, p *simProbes) (sim.Result, error) {
	ce, err := core.NewCertaintyEquivalent(ctsPce, 1, ctsSVR)
	if err != nil {
		return sim.Result{}, err
	}
	var ctrl core.Controller = ce
	var model traffic.Model = traffic.NewRCBR(1, ctsSVR, c.tc)
	var est estimator.Estimator = estimator.NewExponential(c.tm())
	if p != nil {
		ctrl = tracedController{ce, p}
		model = wrapModel(model, p)
		est = wrapEstimator(est, p)
	}
	e, err := sim.New(sim.Config{
		Capacity: ctsN, Model: model, Controller: ctrl, Estimator: est,
		HoldingTime: ctsTh, Seed: seed, Warmup: ctsWarmup, MaxTime: budget,
		Tc: c.tc, Tm: c.tm(), CheckEvery: 10 * budget,
	})
	if err != nil {
		return sim.Result{}, err
	}
	return e.Run()
}

// runCells runs jobs on ctsEngines goroutines; probes, when set, gives
// each job its own decorator set (merged by the caller).
func runCells(jobs []ctsJob, budget func(ctsCell) float64, probes []*simProbes, log *spanLog) {
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < ctsEngines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := &jobs[i]
				var p *simProbes
				if probes != nil {
					p = probes[i]
					p.parent = log.id()
				}
				t0 := nowNs()
				j.res, j.err = runCell(j.cell, j.seed, budget(j.cell), p)
				j.wall = time.Duration(nowNs() - t0)
				if p != nil {
					log.addAlways(span{ID: p.parent, Name: "sim.cell", Start: t0, End: t0 + int64(j.wall)})
				}
			}
		}()
	}
	wg.Wait()
}

func ctsBudget(c ctsCell) float64 { return ctsPerTc * c.tc }

// ctsRounds runs rounds of the cell list until seconds have passed and
// returns the jobs of the completed rounds.
func ctsRounds(seed uint64, seconds float64, maxRounds int, traced bool, log *spanLog) ([]ctsJob, []*simProbes, time.Duration, time.Duration, runtimeDelta, error) {
	var all []ctsJob
	var probes []*simProbes
	runtime.GC() // start every measured half with a clean heap
	rt0, cpu0, t0 := readRuntime(), processCPU(), time.Now()
	for round := 0; round < maxRounds && time.Since(t0).Seconds() < seconds; round++ {
		jobs := make([]ctsJob, len(fig10Cells))
		var ps []*simProbes
		for i, c := range fig10Cells {
			jobs[i] = ctsJob{cell: c, seed: seed*1000 + uint64(round*len(fig10Cells)+i)}
			if traced {
				ps = append(ps, newSimProbes(64, log))
			}
		}
		runCells(jobs, ctsBudget, ps, log)
		for _, j := range jobs {
			if j.err != nil {
				return nil, nil, 0, 0, runtimeDelta{}, j.err
			}
		}
		all = append(all, jobs...)
		probes = append(probes, ps...)
	}
	return all, probes, time.Since(t0), processCPU() - cpu0, readRuntime().sub(rt0), nil
}

func runContinuous(r *run) error {
	// Set-up: build and run a short pair of cells on both engines, which
	// also warms the engine arena pool and the code paths.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		jobs := []ctsJob{{cell: fig10Cells[0], seed: 1}, {cell: fig10Cells[1], seed: 2}}
		runCells(jobs, func(ctsCell) float64 { return 2000 }, nil, nil)
		for _, j := range jobs {
			if j.err != nil {
				return j.err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setE2E("setup_s", "s", medianF(setups))

	sec := r.seconds
	if r.trace {
		sec /= 2
	}
	jobs, _, wall, cpu, rt, err := ctsRounds(r.seed, sec, math.MaxInt, false, nil)
	if err != nil {
		return err
	}
	r.attempted += int64(len(jobs))
	var simTime float64
	lat := make([]int64, len(jobs))
	var events int64
	var cellWall time.Duration
	for i, j := range jobs {
		simTime += j.res.SimTime
		lat[i] = int64(j.wall)
		events += j.res.Events
		cellWall += j.wall
	}
	r.setE2E("latency_p50_us", "us", float64(quantile(lat, 0.5))/1e3)
	r.setReported("latency_p99_us", "us", float64(quantile(lat, 0.99))/1e3)
	r.setReported("max_rate_ops", "op/s", simTime/wall.Seconds())
	r.setE2E("cpu_us_per_op", "us", cpu.Seconds()*1e6/simTime)
	fmt.Printf("continuous: %d cells in %d rounds, %.4gs wall, %.4g sim-time units, %d events (%.0f ns/event per engine)\n",
		len(jobs), len(jobs)/len(fig10Cells), wall.Seconds(), simTime, events, float64(cellWall.Nanoseconds())/float64(events))
	r.ctsChecks(jobs)

	if !r.trace {
		return nil
	}
	rounds := len(jobs) / len(fig10Cells)
	tjobs, probes, twall, tcpu, _, err := ctsRounds(r.seed, sec, rounds, true, r.log)
	if err != nil {
		return err
	}
	r.attempted += int64(len(tjobs))
	same := 0
	for i := range tjobs {
		if fmt.Sprintf("%+v", tjobs[i].res) == fmt.Sprintf("%+v", jobs[i].res) {
			same++
		}
	}
	r.check("trace.bit_identical", same == len(tjobs), "%d of %d traced cells reproduce their untraced Result exactly", same, len(tjobs))
	total := newSimProbes(1, nil)
	for _, p := range probes {
		p.addInto(total)
	}
	r.setProbeLayer(total)
	var tSim float64
	var tEvents, admitted, departed int64
	var tCellWall time.Duration
	for _, j := range tjobs {
		tSim += j.res.SimTime
		tEvents += j.res.Events
		admitted += j.res.Admitted
		departed += j.res.Departed
		tCellWall += j.wall
	}
	// ns per event comes from the untraced engines; the self share from
	// the traced ones, whose layer times the probes extrapolate.
	r.setLayer("sim.events", "count", float64(tEvents))
	r.setLayer("sim.ns_per_event", "ns", float64(cellWall.Nanoseconds())/float64(events))
	est, ctrl, traf := total.layerNs()
	cw := float64(tCellWall.Nanoseconds())
	r.setLayer("sim.self_share", "ratio", (cw-est-ctrl-traf)/cw)
	r.setLayer("sim.useful_event_share", "ratio", float64(total.next.calls.Load()-admitted+departed)/float64(tEvents))
	// The go layer describes the program, so it comes from the untraced
	// half.
	r.setLayer("go.allocs_per_op", "count", rt.allocs/simTime)
	r.setLayer("go.gc_cpu_fraction", "ratio", rt.gcShare())
	r.setLayer("trace.overhead_share", "ratio", (tcpu.Seconds()/tSim)/(cpu.Seconds()/simTime)-1)
	fmt.Printf("traced: %d cells, %.4gs wall, layers est %.3gs ctrl %.3gs traffic %.3gs of %.3gs engine time\n",
		len(tjobs), twall.Seconds(), est/1e9, ctrl/1e9, traf/1e9, cw/1e9)
	return nil
}

// ctsChecks compares each cell's pooled results with the paper's theory:
// the time-averaged flow count with m* (eqs. 4–5) and the overflow
// probability with the eq.-37 integral, within stated factors (eq. 37 is a
// diffusion approximation that overstates p_f at n = 100 by 3–12×).
func (r *run) ctsChecks(jobs []ctsJob) {
	mstar := theory.AdmissibleFlows(ctsN, 1, ctsSVR, ctsPce)
	var share float64
	for _, c := range fig10Cells {
		var pf, flows float64
		k := 0
		for _, j := range jobs {
			if j.cell == c {
				pf += j.res.OverflowTimeFraction
				flows += j.res.MeanFlows
				k++
			}
		}
		if k == 0 {
			r.check("continuous.cells", false, "%v never ran", c)
			continue
		}
		pf /= float64(k)
		flows /= float64(k)
		share += flows / mstar
		sys := theory.System{Capacity: ctsN, Mu: 1, Sigma: ctsSVR, Th: ctsTh, Tc: c.tc, Tm: c.tm()}
		want := theory.ContinuousOverflowIntegral(sys, ctsPce)
		r.check("continuous.mean_flows "+c.String(), math.Abs(flows/mstar-1) <= ctsFlowsTolerance,
			"mean flows %.3f vs m* %.3f over %d runs (tolerance %.0f%%)", flows, mstar, k, 100*ctsFlowsTolerance)
		r.check("continuous.pf "+c.String(), pf >= want/ctsPfFactorLow && pf <= want*ctsPfFactorHigh,
			"p_f %.4g vs eq. 37 %.4g (allowed [%.3g, %.3g])", pf, want, want/ctsPfFactorLow, want*ctsPfFactorHigh)
	}
	r.setE2E("admitted_share", "ratio", share/float64(len(fig10Cells)))
}
