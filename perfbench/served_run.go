package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/server"
)

// Served-run parameters. The base rate sits well below saturation on a
// 2-vCPU box, so its latencies describe the decision path rather than a
// queue; the ladder then finds the highest fixed rate that still meets
// the latency limit.
const (
	baseRate       = 20000.0 // requests/s for latency and CPU per op
	ladderFloor    = 10000.0 // lowest ladder rung, requests/s
	ladderStep     = 1.04    // ratio between adjacent rungs
	ladderRungs    = 80      // rungs above the floor (10k·1.04^80 ≈ 230k/s)
	ladderStart    = 18      // first rung tried: the base rate
	ladderStride   = 8       // rungs climbed per step before bisecting
	rungSeconds    = 0.8     // length of one ladder rung
	latencyLimitUs = 1000.0  // p99 limit a ladder rung must meet
	lagLimitUs     = 500.0   // generator median lag beyond which a run is invalid
	setupRepeats   = 5
	warmupSeconds  = 0.3
)

// rungRate is the fixed rate of ladder rung k.
func rungRate(k int) float64 { return math.Round(ladderFloor * math.Pow(ladderStep, float64(k))) }

func runServed(r *run, reneg bool) error {
	// Most of the run goes to the base phase: its metrics are gated, and a
	// longer window averages over the host's slower swings.
	baseSec := 0.6 * r.seconds
	if r.trace {
		baseSec = 0.5 * r.seconds
	}
	// The schedule must cover the longest phase.
	maxEvents := int(math.Max(baseRate*baseSec, rungRate(ladderRungs)*rungSeconds)) + 1
	phase := 0
	var stack *servedStack
	var sch *schedule
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		// Free the previous set-up before timing the next, so the peak
		// resident set does not depend on when the collector ran.
		runtime.GC()
		t0 := time.Now()
		s, err := newSchedule(r.seed, reneg, maxEvents)
		if err != nil {
			return err
		}
		st, err := newServedStack(nil, 1)
		if err != nil {
			return err
		}
		phase++
		w := st.runPhase(s, phase, baseRate, warmupSeconds, 0, nil, 1)
		r.account(w)
		setups = append(setups, time.Since(t0).Seconds())
		if stack != nil {
			if err := stack.close(); err != nil {
				return err
			}
		}
		stack, sch = st, s
	}
	r.setE2E("setup_s", "s", medianF(setups))
	fmt.Printf("setup: %d schedules of %d events, stacks built and warmed: %.3fs median of %v\n",
		setupRepeats, len(sch.events), medianF(setups), setups)

	phase++
	base := stack.runPhase(sch, phase, baseRate, baseSec, 0, nil, 1)
	r.account(base)
	r.servedBase(base)
	// The ladder's memory grows with the rate it reaches, so the served
	// peak is taken through set-up and the base phase.
	r.setE2E("peak_rss_mb", "MiB", peakRSSMiB())

	if r.trace {
		if err := stack.close(); err != nil {
			return err
		}
		r.servedChecks(stack)
		traced, err := newServedStack(r.log, 4)
		if err != nil {
			return err
		}
		phase++
		r.account(traced.runPhase(sch, phase, baseRate, warmupSeconds, 0, nil, 1))
		snap0 := traced.srv.Snapshot()
		phase++
		tb := traced.runPhase(sch, phase, baseRate, baseSec, 0, r.log, 64)
		r.account(tb)
		snap1 := traced.srv.Snapshot()
		if err := traced.close(); err != nil {
			return err
		}
		r.servedLedger(base, tb, traced, snap0, snap1)
		r.servedChecks(traced)
		return nil
	}

	r.ladder(stack, sch, &phase, time.Duration(0.4*r.seconds*float64(time.Second)))
	if err := stack.close(); err != nil {
		return err
	}
	r.servedChecks(stack)
	return nil
}

// account folds a phase's request counts into the run totals.
func (r *run) account(p phaseStats) {
	r.attempted += p.sent
	r.failed += p.failed
	if p.failed > 0 {
		r.check("served.answers", false, "%d of %d requests failed: %s", p.failed, p.sent, joinFailures(p.failures))
	}
}

// latencyWindow is the window of windowedP99.
const latencyWindow = int64(50 * time.Millisecond)

// servedBase reports the base-rate end-to-end metrics.
func (r *run) servedBase(b phaseStats) {
	n := len(b.lat)
	p50 := quantile(b.lat, 0.50)
	wp99 := windowedP99(b.lat, b.latDue, latencyWindow)
	tq := tailQuantile(n)
	lagW := windowedP99(b.lag, b.lagDue, latencyWindow)
	busy := b.cpu.Seconds() / (b.wall.Seconds() * float64(gomaxprocs()))
	fmt.Printf("base: %.0f req/s for %.1fs: %d answered; latency p50 %s, p99 %s (median of 50ms windows), overall p99 %s, p%.4g %s (n=%d); lag p99 %s (windows) %s (overall); cpu busy %.2f\n",
		b.rate, b.seconds, b.answered, fmtUs(p50), fmtUs(wp99), fmtUs(quantile(b.lat, 0.99)), 100*tq, fmtUs(quantile(b.lat, tq)), n,
		fmtUs(lagW), fmtUs(quantile(b.lag, 0.99)), busy)
	r.setE2E("latency_p50_us", "us", float64(p50)/1e3)
	r.setReported("latency_p99_us", "us", float64(wp99)/1e3)
	r.setE2E("cpu_us_per_op", "us", b.cpu.Seconds()*1e6/float64(b.requests))
	if b.admits > 0 {
		r.setE2E("admitted_share", "ratio", float64(b.admitted)/float64(b.admits))
	}
	// The generator fell behind its schedule when its typical frame went
	// out late, not when a vCPU stall delayed a burst of them.
	if lag50 := quantile(b.lag, 0.5); float64(lag50)/1e3 > lagLimitUs {
		r.invalid = append(r.invalid, fmt.Sprintf("generator median lag %s over %.0fµs at the base rate", fmtUs(lag50), lagLimitUs))
	}
	if b.aborted || b.answered < b.requests {
		r.invalid = append(r.invalid, "base phase did not complete")
	}
}

// ladder finds the highest rung that meets the latency limit with no
// failures and no growing backlog: climb in strides of ladderStride
// rungs from the base rate until a rung fails, then bisect the last
// stride. A rung fails only if two attempts fail: a burst of host
// interference can sink one attempt, and it rarely passes a rung that
// the system cannot carry.
func (r *run) ladder(s *servedStack, sch *schedule, phase *int, budget time.Duration) {
	deadline := time.Now().Add(budget)
	attempt := func(k int) bool {
		*phase++
		p := s.runPhase(sch, *phase, rungRate(k), rungSeconds, int64(20*latencyLimitUs*1e3), nil, 1)
		r.account(p)
		p99 := windowedP99(p.lat, p.latDue, latencyWindow)
		lag99 := windowedP99(p.lag, p.lagDue, latencyWindow)
		tail := lastShare(p.lat, p.latDue, 0.1)
		ok := !p.aborted && p.failed == 0 && p.answered >= p.requests &&
			float64(p99)/1e3 <= latencyLimitUs && float64(lag99)/1e3 <= latencyLimitUs &&
			float64(tail)/1e3 <= latencyLimitUs
		fmt.Printf("rung %2d: %7.0f req/s p99 %s lag p99 %s last-10%% p50 %s aborted %v -> %v\n",
			k, rungRate(k), fmtUs(p99), fmtUs(lag99), fmtUs(tail), p.aborted, ok)
		return ok
	}
	pass := func(k int) bool { return attempt(k) || attempt(k) }
	lo, hi := -1, ladderRungs+1 // last pass, first failure
	for k := ladderStart; k <= ladderRungs && time.Now().Before(deadline); k += ladderStride {
		if !pass(k) {
			hi = k
			break
		}
		lo = k
	}
	if lo < 0 {
		// Even the first stride failed: search the rungs below it.
		lo = -1
	}
	for hi-lo > 1 {
		if time.Now().After(deadline) {
			fmt.Printf("ladder: time budget spent; keeping rung %d\n", lo)
			break
		}
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		// max_rate_ops is reported, not gated: a ladder sunk by host
		// interference reads 0 rather than failing the run.
		fmt.Println("ladder: no rung met the latency limit")
		r.setReported("max_rate_ops", "op/s", 0)
		return
	}
	r.setReported("max_rate_ops", "op/s", rungRate(lo))
}

// lastShare is the median latency of the last share of requests by due
// time: a backlog that grows through a rung shows there.
func lastShare(lat, due []int64, share float64) int64 {
	if len(due) == 0 {
		return 0
	}
	cut := quantile(due, 1-share)
	var tail []int64
	for i, d := range due {
		if d >= cut {
			tail = append(tail, lat[i])
		}
	}
	return quantile(tail, 0.5)
}

// servedChecks runs the end-of-run invariants on the gateway and server.
func (r *run) servedChecks(s *servedStack) {
	st := s.g.Stats()
	r.check("gateway.lifecycle_balanced", st.LifecycleBalanced() && st.Active == 0 && st.Expired == 0,
		"admitted %d = departed %d + expired %d + active %d", st.Admitted, st.Departed, st.Expired, st.Active)
	snap := s.srv.Snapshot()
	r.check("server.no_refusals", snap.ProtocolErrors == 0 && snap.ConnsShed == 0 && snap.ConnsRateLimited == 0 && snap.ConnsRefused == 0,
		"protocol errors %d, shed %d, rate-limited %d, refused %d",
		snap.ProtocolErrors, snap.ConnsShed, snap.ConnsRateLimited, snap.ConnsRefused)
	if r.failed == 0 {
		r.check("served.answers", true, "%d requests answered once, in order, each consistent with its flow (admitted active <= floor(M))", r.attempted)
	}
}

// servedLedger reports the per-layer metrics of the traced base phase.
func (r *run) servedLedger(untraced, b phaseStats, s *servedStack, snap0, snap1 server.Snapshot) {
	wallNs := float64(b.wall.Nanoseconds())
	lag99 := quantile(b.lag, 0.99)
	r.setLayer("loadgen.latency_p99_us", "us", float64(windowedP99(untraced.lat, untraced.latDue, latencyWindow))/1e3)
	r.setLayer("loadgen.lag_p99_us", "us", float64(lag99)/1e3)
	r.setLayer("loadgen.sent", "count", float64(b.sent))
	r.setLayer("loadgen.answered", "count", float64(b.answered))
	r.setLayer("loadgen.cpu_busy_share", "ratio", b.cpu.Seconds()/(b.wall.Seconds()*float64(gomaxprocs())))
	encNs := float64(b.encodeNs) / math.Max(1, float64(b.encoded))
	decNs := float64(b.decodeNs) / math.Max(1, float64(b.decoded))
	r.setLayer("wire.encode_ns_per_frame", "ns", encNs)
	r.setLayer("wire.decode_ns_per_frame", "ns", decNs)
	r.setLayer("wire.burst_share", "ratio", float64(b.burst)/math.Max(1, float64(b.frames)))

	frames := snap1.Frames - snap0.Frames
	decisions := snap1.Decisions - snap0.Decisions
	batches := snap1.Batches - snap0.Batches
	r.setLayer("server.frames", "count", float64(frames))
	r.setLayer("server.decisions", "count", float64(decisions))
	r.setLayer("server.batches", "count", float64(batches))
	r.setLayer("server.batch_mean", "count", float64(decisions)/math.Max(1, float64(batches)))

	be := s.backend
	gwNs := be.admit.totalNs() + be.depart.totalNs() + be.update.totalNs() + be.touch.totalNs()
	var tickSum int64
	for _, t := range s.tickNs {
		tickSum += t
	}
	r.setLayer("gateway.admit_batch_calls", "count", float64(be.admit.calls.Load()))
	r.setLayer("gateway.admit_batch_ns_per_flow", "ns", be.admit.nsPerUnit())
	r.setLayer("gateway.depart_batch_ns_per_flow", "ns", be.depart.nsPerUnit())
	r.setLayer("gateway.update_rate_calls", "count", float64(be.update.calls.Load()))
	r.setLayer("gateway.update_rate_ns", "ns", be.update.nsPerUnit())
	r.setLayer("gateway.tick_ns_p50", "ns", float64(quantile(s.tickNs, 0.5)))
	r.setLayer("gateway.tick_ns_max", "ns", float64(quantile(s.tickNs, 1)))
	gst := s.g.Stats()
	r.setLayer("gateway.reject_share", "ratio", float64(gst.Rejected)/math.Max(1, float64(gst.Admitted+gst.Rejected)))
	r.setLayer("gateway.busy_share", "ratio", (gwNs+float64(tickSum))/(wallNs*float64(gomaxprocs())))

	// The residual is what the request spent neither in the gateway nor
	// in the generator's own encode/decode: server read/batch/write, the
	// kernel's loopback and scheduling waits.
	perReq := gwNs / math.Max(1, float64(frames))
	p50 := quantile(b.lat, 0.5)
	r.setLayer("server.residual_us_p50", "us", (float64(p50)-perReq-encNs-decNs)/1e3)

	r.setProbeLayer(s.probes)
	r.setLayer("go.allocs_per_op", "count", untraced.rt.allocs/math.Max(1, float64(untraced.requests)))
	r.setLayer("go.gc_cpu_fraction", "ratio", untraced.rt.gcShare())

	cpuU := untraced.cpu.Seconds() / float64(untraced.requests)
	cpuT := b.cpu.Seconds() / float64(b.requests)
	r.setLayer("trace.overhead_share", "ratio", cpuT/cpuU-1)
	fmt.Printf("traced base: cpu/op %.2fµs traced vs %.2fµs untraced\n", cpuT*1e6, cpuU*1e6)
}
