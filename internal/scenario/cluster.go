package scenario

import (
	"context"
	"sync/atomic"

	"repro/internal/adaptive"
	"repro/internal/cluster"
	gw "repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/qos"
)

// runClusterCell replays a churn schedule against a fleet of identical
// gateway instances behind the headroom-scored router: arrivals route
// through placement and flow pinning, departures and rate updates follow
// the pins, and an optional mid-run drain migrates one instance's flows
// onto the rest of the fleet. Each instance keeps its own overflow audit;
// the cell's Overflow/QoS report the WORST instance (highest Wilson lower
// bound), so an interval hypothesis grades the per-instance claim — every
// member of the fleet must honor the bound, not the fleet on average.
// Stats is the fleet sum, which stays lifecycle-balanced across
// migrations because a migrated flow is admitted at its target before it
// departs its source.
//
// The replay is single-threaded and the drain walks flows in flow-ID
// order, so the cell — like every other — is deterministic in (seed, arm)
// and safe to lock into golden reports.
func runClusterCell(ctx context.Context, cfg *Config, arm Arm, seed uint64) (CellResult, error) {
	events, err := churnSchedule(cfg, seed)
	if err != nil {
		return CellResult{}, err
	}
	spec := cfg.Cluster
	w := cfg.Workload
	model, err := buildModel(&w)
	if err != nil {
		return CellResult{}, err
	}
	ts := model.Stats()

	// Drain past the schedule so leases expire and every lifecycle closes.
	drain := 2
	if ttl := cfg.Gateway.FlowTTL; ttl > 0 {
		drain += int(ttl/w.Tick) + 1
	}
	totalTicks := int(w.Duration/w.Tick) + drain + 2
	overflowWindow := cfg.Gateway.OverflowWindow
	if overflowWindow == 0 {
		overflowWindow = totalTicks
	}

	ccfg := cluster.Config{
		Policy:     spec.policy,
		Warmup:     spec.Warmup,
		Hysteresis: spec.Hysteresis,
	}
	// Each instance measures its own traffic, so each gets its own
	// time-scale controller when the arm is adaptive; the cell records
	// instance 0's snapshot.
	espec := cfg.effectiveGateway(arm)
	tuners := make([]*adaptive.Controller, 0, spec.Instances)
	for i := 0; i < spec.Instances; i++ {
		ctrl, err := buildController(arm, cfg.Gateway, ts)
		if err != nil {
			return CellResult{}, err
		}
		tuner, err := buildTuner(cfg, espec)
		if err != nil {
			return CellResult{}, err
		}
		tuners = append(tuners, tuner)
		lat := new(atomic.Int64) // per-instance deterministic latency clock
		icfg := gw.Config{
			Capacity:       cfg.Gateway.Capacity,
			Controller:     ctrl,
			Estimator:      buildEstimator(espec, ts, w.Tick),
			Shards:         4,
			EstimateRing:   1,
			LatencyClock:   func() int64 { return lat.Add(1) },
			OverflowWindow: overflowWindow,
			FlowTTL:        cfg.Gateway.FlowTTL,
			StaleAfter:     cfg.Gateway.StaleAfter,
			Degraded:       arm.degraded,
		}
		if tuner != nil {
			icfg.Tuner = tuner
		}
		ccfg.Instances = append(ccfg.Instances, icfg)
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return CellResult{}, err
	}
	audits := make([]*qos.Audit, spec.Instances)
	for i := range audits {
		if audits[i], err = qos.NewAudit(qos.AuditConfig{
			TargetPf: cfg.Gateway.PQ,
			Z:        auditZ(cfg),
			Window:   totalTicks,
		}); err != nil {
			return CellResult{}, err
		}
	}

	cell := CellResult{Seed: seed, Arm: arm.Name, Instances: spec.Instances}
	drained := false
	var utilN int64
	lastTick := 0.0
	fleetCap := cfg.Gateway.Capacity * float64(spec.Instances)
	gradeFrom := gradeAfter(cfg)
	tick := func(now float64) {
		lastTick = now
		if spec.DrainAt > 0 && !drained && now >= spec.DrainAt {
			// The scheduled failover: placement stops on the victim and
			// its pinned flows migrate. Stragglers the fleet has no
			// headroom for stay served on the draining instance.
			if _, _, err := cl.Drain(spec.DrainInstance); err == nil {
				drained = true
			}
		}
		anyDegraded := false
		var agg float64
		for i, st := range cl.Tick(now) {
			if now >= gradeFrom {
				audits[i].ObserveWith(st.AggregateRate > cfg.Gateway.Capacity, st.Degraded)
			}
			agg += st.AggregateRate
			anyDegraded = anyDegraded || st.Degraded
		}
		if anyDegraded {
			cell.DegradedTicks++
		}
		cell.UtilMean += agg / fleetCap
		utilN++
	}

	const batch = 8
	rst, err := loadgen.Replay(ctx, &cluster.ReplayTarget{C: cl}, events, batch, w.Tick, tick)
	if err != nil {
		return CellResult{}, err
	}
	// Drain from wherever the replay's tick loop stopped, never backwards.
	start := max(lastTick, w.Duration)
	for i := 1; i <= drain; i++ {
		tick(start + float64(i)*w.Tick)
	}
	if utilN > 0 {
		cell.UtilMean /= float64(utilN)
	}
	cell.Replay = rst
	cell.Stats = cl.Stats()
	cell.Migrations = cl.Snapshot().Migrations
	if tuners[0] != nil {
		snap := tuners[0].Snapshot()
		cell.Adaptive = &snap
	}

	worst := audits[0].Report()
	for _, a := range audits[1:] {
		if rep := a.Report(); rep.Estimate.Lo > worst.Estimate.Lo {
			worst = rep
		}
	}
	cell.Overflow = worst.Estimate
	cell.QoS = worst.Verdict
	return cell, nil
}
