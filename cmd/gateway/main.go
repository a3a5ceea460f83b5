// Command gateway is the load driver for the online admission gateway: it
// replays traffic-model arrivals, renegotiations and departures against
// internal/gateway at configurable concurrency on a deterministic virtual
// clock, then prints the admission statistics next to the paper's
// perfect-knowledge prediction m*.
//
// The schedule is pregenerated by internal/loadgen from the RCBR model
// (Poisson arrivals, exponential holding times, per-flow rate
// renegotiations) and replayed in tick-sized windows: within a window,
// loadgen.Run shards the flows across -workers goroutines by flow ID, so
// each flow's events keep their order while different flows race — the
// realistic concurrent regime — and a measurement tick closes the window.
//
// Example — a n=100 link under offered load 1.2× its flow capacity:
//
//	gateway -n 100 -svr 0.3 -th 200 -tc 1 -tm 20 -pce 1e-2 -lambda 0.6 -duration 2000 -workers 8
//
// # Observability
//
// With -listen the driver serves the observability endpoint while (and,
// with -hold, after) the replay runs:
//
//	/metrics      Prometheus text exposition (mbac_gateway_* families)
//	/snapshot     the gateway snapshot as JSON
//	/audit        the QoS audit report as JSON (verdict vs p_q and √2 law)
//	/debug/vars   expvar, including the snapshot under the "mbac" key
//	/debug/pprof  the standard pprof handlers
//
// The QoS audit grades the windowed overflow probability p_f against the
// target -pq (default: the -pce value) and the √2-law prediction
// Q(α_q/√2) of Prop 3.3; the final verdict is printed after the replay.
//
// # Serving
//
// With -serve the binary stops being a replay driver and becomes the
// admission server: it listens on -addr for the internal/wire protocol
// (see cmd/loadgen and the client package), optionally across
// -listener-shards SO_REUSEPORT accept shards, ticks the measurement loop
// on the wall clock every -tick-interval, and drains gracefully on
// SIGINT/SIGTERM — stop accepting, flush in-flight decisions, depart
// nothing (flow leases reclaim abandoned flows). The observability
// endpoint gains the mbac_server_* families and a /server JSON snapshot:
//
//	gateway -serve -addr :9000 -n 100 -svr 0.3 -pce 1e-2 -ttl 60 -listen :8080
//
// With -cluster N the served backend becomes a fleet of N gateway
// instances — each with its own capacity -n, estimator and MBAC bound —
// behind the headroom-scored router of internal/cluster (-placement
// selects the policy). The wire protocol is unchanged: clients cannot
// tell a cluster from a single gateway. The observability endpoint gains
// the mbac_cluster_* families and a /cluster JSON snapshot:
//
//	gateway -serve -cluster 4 -placement least-loaded -addr :9000 -n 25 -ttl 60 -listen :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/server"
	"repro/internal/theory"
)

func main() {
	var (
		n         = flag.Float64("n", 100, "link capacity in units of the mean flow rate")
		svr       = flag.Float64("svr", 0.3, "sigma/mu of a flow")
		tc        = flag.Float64("tc", 1, "RCBR correlation time (mean segment length)")
		th        = flag.Float64("th", 200, "mean flow holding time")
		tm        = flag.Float64("tm", 0, "estimator memory window (0 = memoryless)")
		estMode   = flag.String("estimator", "", "estimator: memoryless, exponential, window, aggregate or oracle (default: exponential when -tm > 0, else memoryless)")
		adaptiveF = flag.Bool("adaptive", false, "retune estimator memory online toward the critical time-scale T~_h = th/sqrt(n) (Section 7; needs a memory-bearing -estimator)")
		pce       = flag.Float64("pce", 1e-2, "certainty-equivalent target overflow probability")
		lambda    = flag.Float64("lambda", 0.6, "Poisson flow arrival rate")
		duration  = flag.Float64("duration", 2000, "virtual replay duration")
		tick      = flag.Float64("tick", 0.5, "measurement tick period (virtual time)")
		workers   = flag.Int("workers", 8, "concurrent client goroutines")
		batch     = flag.Int("batch", 32, "admissions coalesced per AdmitBatch call")
		shards    = flag.Int("shards", 16, "gateway flow-table shards")
		seed      = flag.Uint64("seed", 1, "schedule random seed")
		listen    = flag.String("listen", "", "serve the observability endpoint on this address (e.g. :8080)")
		hold      = flag.Bool("hold", false, "keep serving after the replay finishes (requires -listen)")
		pq        = flag.Float64("pq", 0, "QoS target p_q for the audit (default: the -pce value)")
		window    = flag.Int("window", 1024, "audit/overflow window in measurement ticks")

		ttl        = flag.Float64("ttl", 0, "flow lease TTL in virtual time (0 = leases off)")
		staleAfter = flag.Int("stale-after", 0, "degrade after this many stale/faulty ticks (0 = watchdogs off)")
		degraded   = flag.String("degraded", "freeze", "degraded admission policy: freeze, peak-rate or reject-all")
		faults     = flag.String("faults", "", "estimator fault schedule, e.g. 'nan:100-120,drop:500-520' (virtual time)")
		leak       = flag.Float64("leak", 0, "probability a departing flow leaks its slot instead of departing")
		lie        = flag.Float64("lie", 1, "declared-rate multiplier for admissions (1 = honest clients)")

		serve        = flag.Bool("serve", false, "serve the wire admission protocol instead of replaying a schedule")
		addr         = flag.String("addr", ":9000", "admission protocol listen address (with -serve)")
		lnShards     = flag.Int("listener-shards", 1, "accept-path listener shards on -addr (SO_REUSEPORT where supported; with -serve)")
		tickInterval = flag.Duration("tick-interval", 100*time.Millisecond, "wall-clock measurement tick period (with -serve)")
		maxConns     = flag.Int("max-conns", 1024, "served connection limit (with -serve)")
		frameRate    = flag.Int("frame-rate", 0, "per-connection frame-rate cap in frames/sec, 0 = off (with -serve)")
		clusterN     = flag.Int("cluster", 0, "serve N gateway instances behind the headroom router, each with capacity -n (with -serve; 0 = single gateway)")
		placement    = flag.String("placement", "least-loaded", "cluster placement policy: least-loaded, weighted or round-robin (with -cluster)")
	)
	flag.Parse()
	if *workers < 1 || *tick <= 0 || *duration <= 0 || *lambda <= 0 {
		fatal(fmt.Errorf("workers, tick, duration and lambda must be positive"))
	}
	if *batch < 1 {
		fatal(fmt.Errorf("batch %d must be at least 1", *batch))
	}
	if *clusterN < 0 {
		fatal(fmt.Errorf("cluster %d must be non-negative", *clusterN))
	}
	if *clusterN > 0 && !*serve {
		fatal(fmt.Errorf("-cluster requires -serve"))
	}

	ctrl, err := core.NewCertaintyEquivalent(*pce, 1, *svr)
	if err != nil {
		fatal(err)
	}
	policy, err := gateway.ParseDegradedPolicy(*degraded)
	if err != nil {
		fatal(err)
	}
	faultWindows, err := fault.ParseWindows(*faults)
	if err != nil {
		fatal(err)
	}
	plan := fault.ClientPlan{LeakP: *leak, Lie: *lie}
	if err := plan.Validate(); err != nil {
		fatal(err)
	}
	// Without -estimator, -tm alone selects the filter (the legacy flags).
	estKind := estimator.ModeMemoryless
	if *tm > 0 {
		estKind = estimator.ModeExponential
	}
	if *estMode != "" {
		if estKind, err = estimator.ParseMode(*estMode); err != nil {
			fatal(err)
		}
		if (estKind == estimator.ModeExponential || estKind == estimator.ModeWindow) && *tm <= 0 {
			fatal(fmt.Errorf("-estimator %s requires -tm > 0", estKind))
		}
	}
	newEstimator := func() estimator.Estimator { return estimator.New(estKind, *tm, *tick, 1, *svr) }
	// Each gateway instance gets its own time-scale controller: the
	// controller's ACF ring and EWMA state are per-instance measurements.
	var tuners []*adaptive.Controller
	newTuner := func() gateway.Tuner {
		if !*adaptiveF {
			return nil
		}
		tcfg := adaptive.Config{Capacity: *n, Th: *th, PQ: *pce}
		if *pq > 0 {
			tcfg.PQ = *pq
		}
		t, err := adaptive.New(tcfg)
		if err != nil {
			fatal(err)
		}
		tuners = append(tuners, t)
		return t
	}
	if *adaptiveF && len(faultWindows) > 0 {
		// fault.Wrap interposes on the estimator and does not forward
		// SetMemory, so the retune loop cannot reach the real filter.
		fatal(fmt.Errorf("-adaptive cannot be combined with -faults"))
	}
	gatewayConfig := func(est estimator.Estimator) gateway.Config {
		return gateway.Config{
			Capacity:       *n,
			Controller:     ctrl,
			Estimator:      est,
			Shards:         *shards,
			TickInterval:   *tickInterval,
			OverflowWindow: *window,
			FlowTTL:        *ttl,
			StaleAfter:     *staleAfter,
			Degraded:       policy,
			Tuner:          newTuner(),
		}
	}
	if *clusterN > 0 {
		pol, err := cluster.ParsePlacementPolicy(*placement)
		if err != nil {
			fatal(err)
		}
		ccfg := cluster.Config{Policy: pol, TickInterval: *tickInterval}
		for i := 0; i < *clusterN; i++ {
			ccfg.Instances = append(ccfg.Instances, gatewayConfig(newEstimator()))
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			fatal(err)
		}
		runServe(cl.Gateway(0), cl, *addr, *listen, *maxConns, *frameRate, *lnShards, tuners)
		return
	}

	est := newEstimator()
	// The fault wrapper sits between the gateway and the real estimator
	// whenever a fault schedule is given, so injected NaN bursts and
	// dropped updates exercise the gateway's hold-last-bound and
	// degradation paths against otherwise-genuine measurement.
	var faulty *fault.Estimator
	if len(faultWindows) > 0 {
		faulty = fault.Wrap(est)
		est = faulty
	}
	g, err := gateway.New(gatewayConfig(est))
	if err != nil {
		fatal(err)
	}

	if *serve {
		runServe(g, nil, *addr, *listen, *maxConns, *frameRate, *lnShards, tuners)
		return
	}

	auditTarget := *pq
	if auditTarget <= 0 {
		auditTarget = *pce
	}
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: auditTarget, Window: *window})
	if err != nil {
		fatal(err)
	}
	var auditMu sync.Mutex // audit is single-writer; HTTP readers snapshot under this

	// The observability endpoint runs on its own http.Server; listener
	// failures surface on Err() and are checked from the replay loop in
	// the main goroutine rather than exiting asynchronously mid-replay.
	var endpoint *obs.Endpoint
	if *listen != "" {
		endpoint, err = obs.Start(obs.Config{Addr: *listen, Gateway: g, Audit: audit, AuditMu: &auditMu, Adaptive: tuners})
		if err != nil {
			fatal(err)
		}
	}

	events, err := loadgen.Schedule(loadgen.Config{
		Seed: *seed, Lambda: *lambda, Hold: *th, SVR: *svr, TC: *tc, Duration: *duration,
		Plan: plan, Renegotiate: true,
	})
	if err != nil {
		fatal(err)
	}
	flows := 0
	for _, ev := range events {
		if ev.Kind == loadgen.KindAdmit {
			flows++
		}
	}
	fmt.Printf("schedule:   %d events (%d flows) over %g virtual time units\n",
		len(events), flows, *duration)

	start := time.Now()
	activeSum, ticks := 0.0, 0
	err = replay(g, events, *duration, *tick, loadgen.RunConfig{Workers: *workers, Batch: *batch}, func(now float64) {
		if faulty != nil {
			faulty.SetMode(fault.ModeAt(faultWindows, now))
		}
		st := g.Tick(now)
		auditMu.Lock()
		audit.ObserveWith(st.AggregateRate > *n, st.Degraded)
		auditMu.Unlock()
		if now > *duration/2 { // steady-state half
			activeSum += float64(st.Active)
			ticks++
		}
		if endpoint != nil {
			select {
			case err, ok := <-endpoint.Err():
				if ok && err != nil {
					fatal(err)
				}
			default:
			}
		}
	})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	st := g.Stats()
	// Every scheduled flow carries a unique ID and a valid rate, so each
	// admission is decided on capacity; an invalid-rate or duplicate
	// decision (counted by neither Admitted nor Rejected) is a driver bug.
	if st.Admitted+st.Rejected != int64(flows) {
		fatal(fmt.Errorf("replay decided %d of %d scheduled flows on capacity", st.Admitted+st.Rejected, flows))
	}
	mstar := theory.AdmissibleFlows(*n, 1, *svr, *pce)
	fmt.Printf("replay:     %v wall, %.0f events/sec, %d workers\n",
		wall.Round(time.Millisecond), float64(len(events))/wall.Seconds(), *workers)
	fmt.Printf("admission:  %d admitted, %d rejected (blocking %.4g), %d departed, %d active\n",
		st.Admitted, st.Rejected,
		float64(st.Rejected)/math.Max(1, float64(st.Admitted+st.Rejected)),
		st.Departed, st.Active)
	if *ttl > 0 || *staleAfter > 0 || faulty != nil {
		degState := "healthy"
		if st.Degraded {
			degState = "degraded (" + st.DegradedReason + ")"
		}
		dropped := int64(0)
		if faulty != nil {
			dropped = faulty.Dropped()
		}
		fmt.Printf("lifecycle:  %d leases expired, %d updates dropped, policy %s, finished %s\n",
			st.Expired, dropped, policy, degState)
	}
	fmt.Printf("measure:    mu^ %.4g, sigma^ %.4g (ok=%v), aggregate %.4g, %d ticks\n",
		st.Mu, st.Sigma, st.MeasurementOK, st.AggregateRate, st.Ticks)
	fmt.Printf("bound:      M = %.4g vs perfect-knowledge m* = %.4g\n", st.Admissible, mstar)
	for _, t := range tuners {
		as := t.Snapshot()
		fmt.Printf("adaptive:   T_m %.4g -> target %.4g, T^_c %.4g, regime %s (p_f masking %.4g, repair %.4g), %d retunes\n",
			as.Tm, as.Target, as.TcHat, as.Regime, as.PfMasking, as.PfRepair, as.Retunes)
	}
	if ticks > 0 {
		fmt.Printf("steady:     mean active %.4g over the final %d ticks (m* = %.4g)\n",
			activeSum/float64(ticks), ticks, mstar)
	}

	snap := g.Snapshot()
	fmt.Printf("latency:    admit p50 %.3gs p99 %.3gs mean %.3gs over %d decisions\n",
		snap.AdmitLatency.Quantile(0.5), snap.AdmitLatency.Quantile(0.99),
		snap.AdmitLatency.Mean(), snap.AdmitLatency.Count)
	auditMu.Lock()
	rep := audit.Report()
	auditMu.Unlock()
	fmt.Printf("audit:      p_f %.4g [%.4g, %.4g] over %d ticks vs p_q %.4g, sqrt2 law %.4g -> %s\n",
		rep.Estimate.P, rep.Estimate.Lo, rep.Estimate.Hi, rep.Estimate.N,
		rep.TargetPf, rep.Sqrt2Law, rep.Verdict)

	if endpoint != nil {
		if *hold {
			fmt.Printf("holding:    observability endpoint serving on %s (Ctrl-C to exit)\n", *listen)
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			select {
			case <-ctx.Done():
			case err := <-endpoint.Err():
				if err != nil {
					stop()
					fatal(err)
				}
			}
			stop()
		}
		// Drain the scrape port instead of letting process exit sever
		// in-flight scrapes.
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := endpoint.Shutdown(sctx); err != nil {
			fatal(fmt.Errorf("observability shutdown: %w", err))
		}
	}
}

// replay runs the schedule against g window by window: every event due by
// the end of a tick period runs through loadgen.Run, which shards flows
// across the workers by ID, then tick(now) closes the window — the hook
// where the caller ticks the gateway. The per-worker targets, and with
// them their decision buffers, are reused across windows.
func replay(g *gateway.Gateway, events []loadgen.Event, duration, period float64, cfg loadgen.RunConfig, tick func(now float64)) error {
	targets := make([]loadgen.GatewayTarget, cfg.Workers)
	for i := range targets {
		targets[i].G = g
	}
	target := func(w int) loadgen.Target { return &targets[w] }
	for lo, now := 0, 0.0; lo < len(events) || now < duration; {
		now += period
		hi := lo
		for hi < len(events) && events[hi].T <= now {
			hi++
		}
		if hi > lo {
			if _, err := loadgen.Run(context.Background(), target, events[lo:hi], cfg); err != nil {
				return err
			}
		}
		lo = hi
		tick(now)
	}
	return nil
}

// backend is what -serve fronts: one gateway, or a cluster of them behind
// the headroom router.
type backend interface {
	server.Backend
	Run(ctx context.Context)
	Stats() gateway.Stats
}

// runServe is the -serve mode: the gateway g, or with -cluster the
// cluster cl, becomes a long-running network admission server (g is then
// the cluster's first instance, the one the observability endpoint
// snapshots). The measurement loop ticks on the wall clock, the wire
// protocol is served on addr, and SIGINT/SIGTERM trigger the graceful
// drain — stop accepting, flush in-flight decisions, depart nothing and
// let the flow leases reclaim what clients abandoned. Instance
// drain/failover is an admin-plane operation on the cluster, not part of
// process shutdown.
func runServe(g *gateway.Gateway, cl *cluster.Cluster, addr, listen string, maxConns, frameRate, lnShards int, tuners []*adaptive.Controller) {
	var b backend = g
	if cl != nil {
		b = cl
	}
	srv, err := server.New(server.Config{
		Backend:   b,
		MaxConns:  maxConns,
		FrameRate: frameRate,
	})
	if err != nil {
		fatal(err)
	}
	lns, err := server.Listen(addr, lnShards)
	if err != nil {
		fatal(err)
	}
	var endpoint *obs.Endpoint
	if listen != "" {
		endpoint, err = obs.Start(obs.Config{Addr: listen, Gateway: g, Server: srv, Cluster: cl, Adaptive: tuners})
		if err != nil {
			fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tickDone := make(chan struct{})
	go func() { defer close(tickDone); b.Run(ctx) }()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lns...) }()
	fleet, pages := "", "metrics/snapshot/pprof"
	if cl != nil {
		fleet = fmt.Sprintf(", %d-instance cluster (%s placement)", cl.Instances(), cl.Snapshot().Policy)
		pages = "metrics/snapshot/cluster/pprof"
	}
	fmt.Printf("serving:    admission protocol on %s across %d listener shard(s)%s (Ctrl-C to drain)\n",
		lns[0].Addr(), len(lns), fleet)
	if endpoint != nil {
		fmt.Printf("observing:  %s on %s\n", pages, endpoint.Addr())
	}

	var obsErr <-chan error
	if endpoint != nil {
		obsErr = endpoint.Err()
	}
	select {
	case <-ctx.Done():
		// Signal: fall through to the drain.
	case err := <-serveDone:
		if err != nil {
			fatal(fmt.Errorf("admission server: %w", err))
		}
	case err := <-obsErr:
		if err != nil {
			fatal(err)
		}
	}
	stop()
	<-tickDone

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gateway: drain incomplete: %v\n", err)
	}
	if err := <-serveDone; err != nil {
		fatal(fmt.Errorf("admission server: %w", err))
	}
	if endpoint != nil {
		if err := endpoint.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "gateway: observability shutdown: %v\n", err)
		}
	}
	snap := srv.Snapshot()
	st := b.Stats()
	fmt.Printf("served:     %d conns (%d refused), %d frames, %d decisions in %d batches (mean %.2f)\n",
		snap.ConnsAccepted, snap.ConnsRefused+snap.ConnsDrainRef, snap.Frames,
		snap.Decisions, snap.Batches, snap.MeanBatch())
	fmt.Printf("admission:  %d admitted, %d rejected, %d departed, %d expired, %d active at drain\n",
		st.Admitted, st.Rejected, st.Departed, st.Expired, st.Active)
	if cl == nil {
		return
	}
	cs := cl.Snapshot()
	fmt.Printf("cluster:    %d pinned, %d placements, %d migrations (%d failed), %d drains\n",
		cs.Pinned, cs.Placements, cs.Migrations, cs.MigrationFailures, cs.Drains)
	for _, in := range cs.Instances {
		fmt.Printf("instance %d: %s, bound %.4g, active %d, headroom %.4g, placed %d\n",
			in.Index, in.State, in.Bound, in.Active, in.Headroom, in.Placements)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gateway:", err)
	os.Exit(1)
}
