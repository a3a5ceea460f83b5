package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/theory"
)

// The served workloads run the admission server in-process, built the
// way `gateway -serve` builds it with its default flags (memoryless
// estimator, certainty-equivalent controller at p_ce = 1e-2, σ/μ = 0.3, 16
// shards, 100ms ticks), plus flow leases and the capacity below. Load
// arrives open loop over two loopback connections.
const (
	servedCapacity = 1000.0 // link capacity in mean flow rates
	servedPce      = 1e-2
	servedSVR      = 0.3
	servedTTL      = 60.0 // flow lease TTL, seconds; far above any hold
	offeredFactor  = 1.2  // offered flow load over m*: the CE bound binds
	renegPerHold   = 20.0 // served-reneg: mean renegotiations per flow
	tickInterval   = 100 * time.Millisecond

	// servedProcs pins the served process to one P. On a 2-vCPU virtual
	// machine the cross-vCPU wakeups of a two-P process cost so much that
	// its CPU per request flips between ~26µs and ~40µs with the host's
	// scheduling; with one P it holds at 23–27µs from run to run. The
	// pin is recorded with every result (environment GOMAXPROCS).
	servedProcs = 1
)

// servedStack is one server + gateway + generator connection set.
type servedStack struct {
	g         *gateway.Gateway
	srv       *server.Server
	conns     [2]*genConn
	serveDone chan error
	tickStop  context.CancelFunc
	tickDone  chan struct{}
	tickNs    []int64 // duration of every measurement tick

	backend *tracedBackend // traced stacks only
	probes  *simProbes     // traced stacks only: estimator and controller
}

func newServedStack(log *spanLog, every int64) (*servedStack, error) {
	s := &servedStack{}
	ctrl0, err := core.NewCertaintyEquivalent(servedPce, 1, servedSVR)
	if err != nil {
		return nil, err
	}
	var ctrl core.Controller = ctrl0
	var est estimator.Estimator = estimator.NewMemoryless()
	if log != nil {
		s.probes = newSimProbes(1, log) // ticks are rare: time each one
		est = wrapEstimator(est, s.probes)
		ctrl = tracedController{ctrl, s.probes}
	}
	s.g, err = gateway.New(gateway.Config{
		Capacity:       servedCapacity,
		Controller:     ctrl,
		Estimator:      est,
		Shards:         16,
		TickInterval:   tickInterval,
		LatencySample:  1,
		OverflowWindow: 1024,
		FlowTTL:        servedTTL,
		Degraded:       gateway.DegradedFreeze,
	})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Gateway: s.g, MaxConns: 1024}
	if log != nil {
		s.backend = newTracedBackend(s.g, every, log)
		cfg.Backend = s.backend
	}
	if s.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	lns, err := server.Listen("127.0.0.1:0", 1)
	if err != nil {
		return nil, err
	}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.srv.Serve(lns...) }()
	ctx, cancel := context.WithCancel(context.Background())
	s.tickStop, s.tickDone = cancel, make(chan struct{})
	go s.tickLoop(ctx)
	for i := range s.conns {
		if s.conns[i], err = dialGen(lns[0].Addr().String(), i); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// tickLoop is gateway.Run (which the serving binary uses, with its
// watchdog off) with each tick timed.
func (s *servedStack) tickLoop(ctx context.Context) {
	defer close(s.tickDone)
	t := time.NewTicker(tickInterval)
	defer t.Stop()
	start := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			t0 := nowNs()
			s.g.Tick(time.Since(start).Seconds())
			s.tickNs = append(s.tickNs, nowNs()-t0)
		}
	}
}

// close drains the server and stops every goroutine the stack started.
func (s *servedStack) close() error {
	for _, c := range s.conns {
		if c != nil {
			c.nc.Close()
			c.pace.close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveDone; err == nil {
		err = serr
	}
	s.tickStop()
	<-s.tickDone
	return err
}

// schedule is the seeded virtual-time workload every phase replays a
// prefix of.
type schedule struct {
	events []loadgen.Event
	flows  int
}

func newSchedule(seed uint64, reneg bool, minEvents int) (*schedule, error) {
	mstar := theory.AdmissibleFlows(servedCapacity, 1, servedSVR, servedPce)
	hold := offeredFactor * mstar // with one arrival per time unit
	cfg := loadgen.Config{
		Seed: seed, Lambda: 1, Hold: hold, SVR: servedSVR, TC: 1,
		Renegotiate: reneg,
	}
	perFlow := 2.0
	if reneg {
		cfg.TC = hold / renegPerHold
		perFlow += renegPerHold
	}
	// Enough arrivals for minEvents requests, plus a tail the phases never
	// reach, so the schedule's end (which departs every flow at once) is
	// never replayed.
	cfg.Duration = float64(minEvents)/perFlow*1.2 + 3*hold
	ev, err := loadgen.Schedule(cfg)
	if err != nil {
		return nil, err
	}
	if len(ev) < minEvents+1 {
		return nil, fmt.Errorf("schedule: %d events, need %d", len(ev), minEvents+1)
	}
	flows := 0
	for _, e := range ev {
		if int(e.Flow) >= flows {
			flows = int(e.Flow) + 1
		}
	}
	return &schedule{events: ev, flows: flows}, nil
}

// phaseStats is what one phase of a served run measured.
type phaseStats struct {
	rate     float64
	seconds  float64
	requests int64 // requests due in the window (the cleanup is extra)
	connStats
	cpu  time.Duration // process CPU during the window
	rt   runtimeDelta
	wall time.Duration
}

// runPhase replays the first rate·seconds requests of sch at rate
// requests/s, then departs every flow still admitted. Phases use disjoint
// flow IDs.
func (s *servedStack) runPhase(sch *schedule, phase int, rate, seconds float64, abortLag int64, log *spanLog, every int64) phaseStats {
	n := int(rate * seconds)
	if n >= len(sch.events) {
		n = len(sch.events) - 1
	}
	window := sch.events[n].T
	scale := seconds * 1e9 / window // ns per virtual time unit
	var plans [2]plan
	for _, e := range sch.events[:n] {
		p := &plans[e.Flow%2]
		p.add(int64(e.T*scale), e.Kind, flowID(phase, e.Flow), e.Rate)
	}
	states := make([]uint8, sch.flows)
	ps := phaseStats{rate: rate, seconds: seconds, requests: int64(n)}
	// Collect the previous phase's garbage outside the measured window, so
	// the peak heap (and the collector's share) is set by one phase's data.
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now().Add(2 * time.Millisecond)
	ps.connStats = s.runBoth(&plans, states, start, abortLag, log, every)
	ps.wall = time.Since(start)
	ps.cpu = processCPU() - cpu0
	ps.rt = readRuntime().sub(rt0)

	// Depart what is still admitted: untimed, but answered and checked.
	var clean [2]plan
	for f, st := range states {
		if st == flowAdmitted {
			clean[f%2].add(-1, loadgen.KindDepart, flowID(phase, uint64(f)), 0)
		}
	}
	cs := s.runBoth(&clean, states, time.Now(), 0, nil, 1)
	ps.failed += cs.failed
	ps.failures = append(ps.failures, cs.failures...)
	ps.sent += cs.sent
	ps.answered += cs.answered
	return ps
}

// runBoth runs one plan per connection concurrently and merges the stats.
func (s *servedStack) runBoth(plans *[2]plan, states []uint8, start time.Time, abortLag int64, log *spanLog, every int64) connStats {
	var out [2]connStats
	var wg sync.WaitGroup
	for i := range s.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.conns[i].run(&plans[i], states, start, abortLag, log, every)
		}(i)
	}
	wg.Wait()
	m := out[0]
	o := out[1]
	m.sent += o.sent
	m.answered += o.answered
	m.failed += o.failed
	m.failures = append(m.failures, o.failures...)
	m.lat = append(m.lat, o.lat...)
	m.latDue = append(m.latDue, o.latDue...)
	m.lag = append(m.lag, o.lag...)
	m.lagDue = append(m.lagDue, o.lagDue...)
	m.admits += o.admits
	m.admitted += o.admitted
	m.encodeNs += o.encodeNs
	m.encoded += o.encoded
	m.decodeNs += o.decodeNs
	m.decoded += o.decoded
	m.burst += o.burst
	m.frames += o.frames
	m.aborted = m.aborted || o.aborted
	return m
}

// tracedBackend is the timing server.Backend around the gateway: it
// counts every call, times a sampled 1-in-every, and records each timed
// batch as a span listing the flows it decided (the server's request IDs
// do not cross the Backend boundary; flow IDs do).
type tracedBackend struct {
	g                            *gateway.Gateway
	admit, depart, update, touch *probe
	admitted, departed           atomic.Int64 // flows passed to each batch call
	log                          *spanLog
}

func newTracedBackend(g *gateway.Gateway, every int64, log *spanLog) *tracedBackend {
	return &tracedBackend{
		g:      g,
		admit:  newProbe("gateway.admit_batch", every, nil),
		depart: newProbe("gateway.depart_batch", every, nil),
		update: newProbe("gateway.update_rate", every, nil),
		touch:  newProbe("gateway.touch", every, nil),
		log:    log,
	}
}

// batchSpan records one in spanEvery timed batch calls, with the flows
// it carried, after the call's timing is closed.
func (b *tracedBackend) batchSpan(p *probe, t0, t1 int64, ids []uint64) {
	if t0 < 0 || p.timed.Load()%spanEvery != 0 {
		return
	}
	flows := ids
	if len(flows) > 64 {
		flows = flows[:64]
	}
	b.log.add(span{Name: p.name, Start: t0, End: t1, Flows: append([]uint64(nil), flows...)})
}

func (b *tracedBackend) AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error) {
	t0 := b.admit.begin()
	out, err := b.g.AdmitBatch(ids, rates, dst)
	t1 := nowNs()
	b.admitted.Add(int64(len(ids)))
	b.admit.end(t0, len(ids), 0)
	b.batchSpan(b.admit, t0, t1, ids)
	return out, err
}

func (b *tracedBackend) DepartBatch(ids []uint64, dst []bool) []bool {
	t0 := b.depart.begin()
	out := b.g.DepartBatch(ids, dst)
	t1 := nowNs()
	b.departed.Add(int64(len(ids)))
	b.depart.end(t0, len(ids), 0)
	b.batchSpan(b.depart, t0, t1, ids)
	return out
}

func (b *tracedBackend) UpdateRate(flow uint64, rate float64) error {
	t0 := b.update.begin()
	err := b.g.UpdateRate(flow, rate)
	b.update.end(t0, 1, 0)
	return err
}

func (b *tracedBackend) Touch(flow uint64) error {
	t0 := b.touch.begin()
	err := b.g.Touch(flow)
	b.touch.end(t0, 1, 0)
	return err
}
