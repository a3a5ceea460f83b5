package scenario

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	gw "repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// CellResult is one point of the seed x arm matrix: the final gateway
// state, the windowed overflow estimate with its qos verdict, and the
// derived scalars the hypotheses grade.
type CellResult struct {
	Seed uint64 `json:"seed"`
	Arm  string `json:"arm"`

	Stats    gw.Stats               `json:"stats"`
	Overflow stats.WindowedEstimate `json:"overflow"`
	QoS      qos.Verdict            `json:"qos"`

	// StormAdmitted counts admissions granted while the gateway served
	// under its degraded policy; DegradedTicks counts ticks spent there.
	StormAdmitted int64 `json:"storm_admitted"`
	DegradedTicks int64 `json:"degraded_ticks"`
	// UtilMean is the mean of AggregateRate/Capacity over ticks (churn).
	UtilMean float64 `json:"util_mean"`

	// ServedP50/ServedP99 are the serving layer's per-decision latency
	// percentiles in seconds (network target only; 0 in-process). They are
	// wall-clock measurements — the one non-deterministic part of a cell —
	// so byte-exact golden scenarios must not run the network target.
	ServedP50 float64 `json:"served_p50,omitempty"`
	ServedP99 float64 `json:"served_p99,omitempty"`

	// Instances is the fleet size and Migrations the flows moved off
	// draining instances (cluster topology only). With a cluster, Stats
	// is the fleet sum and Overflow/QoS grade the worst instance's audit.
	Instances  int   `json:"instances,omitempty"`
	Migrations int64 `json:"migrations,omitempty"`

	// Adaptive is the time-scale controller's final snapshot when this
	// cell's arm ran with adaptive measurement (instance 0's controller
	// under a cluster topology).
	Adaptive *adaptive.Snapshot `json:"adaptive,omitempty"`

	// Replay is the driver-side decision accounting (churn only).
	Replay loadgen.Stats `json:"replay"`
	// Reps is the ensemble size (impulsive only).
	Reps int `json:"reps,omitempty"`
	// NetMatched reports whether the in-process twin reproduced the
	// network run exactly (network target only).
	NetMatched bool `json:"net_matched,omitempty"`
}

// Metric extracts the named per-cell scalar.
func (c CellResult) Metric(m Metric) float64 {
	switch m {
	case MetricAdmitted:
		return float64(c.Stats.Admitted)
	case MetricRejected:
		return float64(c.Stats.Rejected)
	case MetricExpired:
		return float64(c.Stats.Expired)
	case MetricStormAdmitted:
		return float64(c.StormAdmitted)
	case MetricDegradedTicks:
		return float64(c.DegradedTicks)
	case MetricUtilization:
		return c.UtilMean
	case MetricServedP50:
		return c.ServedP50
	case MetricServedP99:
		return c.ServedP99
	}
	return 0
}

// buildModel returns the workload's flow-rate model.
func buildModel(w *Workload) (traffic.Model, error) {
	if w.Model == nil {
		return traffic.NewRCBR(1, w.SVR, w.TC), nil
	}
	return w.Model.build()
}

func (m *ModelSpec) build() (traffic.Model, error) {
	switch m.Kind {
	case "rcbr":
		return traffic.NewRCBR(m.Mu, m.SVR, m.TC), nil
	case "onoff":
		return traffic.OnOff{PeakRate: m.Peak, OnTime: m.OnTime, OffTime: m.OffTime}, nil
	case "constant":
		return traffic.Constant{Rate: m.Rate}, nil
	case "mixture":
		models := make([]traffic.Model, len(m.Mix))
		weights := make([]float64, len(m.Mix))
		for i := range m.Mix {
			sub, err := m.Mix[i].Model.build()
			if err != nil {
				return nil, err
			}
			models[i] = sub
			weights[i] = m.Mix[i].Weight
		}
		return traffic.NewMixture(models, weights)
	}
	return nil, fmt.Errorf("scenario: unknown model kind %q", m.Kind)
}

// buildController instantiates one arm's admission policy against the
// declared (model) statistics — the controlled variable every arm shares.
func buildController(arm Arm, g Gateway, ts traffic.Stats) (core.Controller, error) {
	switch arm.Policy {
	case "certainty-equivalent":
		return core.NewCertaintyEquivalent(g.PQ, ts.Mean, ts.StdDev())
	case "perfect-knowledge":
		return core.NewPerfectKnowledge(g.Capacity, ts.Mean, ts.StdDev(), g.PQ)
	case "peak-rate":
		peak := arm.Peak
		if peak == 0 {
			peak = ts.Peak
		}
		if peak <= 0 {
			return nil, fmt.Errorf("scenario: arm %q: peak-rate needs an explicit peak (the model declares none)", arm.Name)
		}
		return core.PeakRate{Peak: peak}, nil
	case "measured-sum":
		return core.NewMeasuredSum(arm.Eta, ts.Mean)
	}
	return nil, fmt.Errorf("scenario: arm %q: unknown policy %q", arm.Name, arm.Policy)
}

// buildEstimator instantiates the effective measurement spec against the
// workload's declared statistics; tick sizes the aggregate estimator's
// variance memory when no T_m is given.
func buildEstimator(g Gateway, ts traffic.Stats, tick float64) estimator.Estimator {
	return estimator.New(g.mode, g.Memory, tick, ts.Mean, ts.StdDev())
}

// buildTuner instantiates the online time-scale controller for one arm's
// effective spec, or nil when the arm is not adaptive. Th defaults to the
// churn workload's mean holding time — the horizon the critical
// time-scale T~_h = Th/sqrt(n) scales down from.
func buildTuner(cfg *Config, spec Gateway) (*adaptive.Controller, error) {
	if !spec.Adaptive {
		return nil, nil
	}
	th := spec.Th
	if th == 0 {
		th = cfg.Workload.Hold
	}
	return adaptive.New(adaptive.Config{
		Capacity: spec.Capacity,
		Th:       th,
		PQ:       spec.PQ,
	})
}

// auditZ returns the Wilson quantile the scenario grades with.
func auditZ(cfg *Config) float64 {
	if cfg.Check.Interval != nil && cfg.Check.Interval.Z > 0 {
		return cfg.Check.Interval.Z
	}
	return 1.96
}

// gradeAfter returns the virtual time before which ticks are excluded
// from the graded overflow audit (0 = grade the whole run).
func gradeAfter(cfg *Config) float64 {
	if cfg.Check.Interval != nil {
		return cfg.Check.Interval.GradeAfter
	}
	return 0
}

// newCellGateway builds the gateway for one cell: deterministic latency
// clock, small shard count (cells are single-threaded), overflow window
// sized to hold the whole run. When the arm's effective spec is adaptive
// the returned controller is attached as the gateway's Tuner; callers
// snapshot it into the cell after the replay.
func newCellGateway(cfg *Config, arm Arm, ctrl core.Controller, est estimator.Estimator, overflowWindow int) (*gw.Gateway, *adaptive.Controller, error) {
	tuner, err := buildTuner(cfg, cfg.effectiveGateway(arm))
	if err != nil {
		return nil, nil, err
	}
	var lat atomic.Int64
	gcfg := gw.Config{
		Capacity:       cfg.Gateway.Capacity,
		Controller:     ctrl,
		Estimator:      est,
		Shards:         4,
		EstimateRing:   1,
		LatencyClock:   func() int64 { return lat.Add(1) },
		OverflowWindow: overflowWindow,
		FlowTTL:        cfg.Gateway.FlowTTL,
		StaleAfter:     cfg.Gateway.StaleAfter,
		Degraded:       arm.degraded,
	}
	if tuner != nil {
		// Assign only a live controller: a typed-nil in the interface field
		// would pass the gateway's nil check and panic on the first tick.
		gcfg.Tuner = tuner
	}
	g, err := gw.New(gcfg)
	if err != nil {
		return nil, nil, err
	}
	return g, tuner, nil
}

// runCell executes one (seed, arm) cell of the matrix.
func runCell(ctx context.Context, cfg *Config, arm Arm, seed uint64) (CellResult, error) {
	if cfg.Workload.Kind == WorkloadImpulsive {
		return runImpulsiveCell(ctx, cfg, arm, seed)
	}
	if cfg.Cluster != nil {
		return runClusterCell(ctx, cfg, arm, seed)
	}
	return runChurnCell(ctx, cfg, arm, seed)
}

// runImpulsiveCell is the Prop 3.3 steady state: per replication, fill the
// gateway one flow at a time (a measurement tick after each) until the
// bound refuses one, then redraw every admitted flow's rate — the t >> T_c
// state where the load is independent of the admission-time fluctuation —
// and record whether the redrawn aggregate overflows. Replications fan out
// over the shared worker pool; indicators merge in replication order, so
// the cell is bit-identical for a fixed seed at any worker count.
func runImpulsiveCell(ctx context.Context, cfg *Config, arm Arm, seed uint64) (CellResult, error) {
	n := cfg.Gateway.Capacity
	svr := cfg.Workload.SVR
	model := traffic.NewRCBR(1, svr, 1)
	ts := model.Stats()

	type repOut struct {
		overflow bool
		admitted int64
	}
	pool := sim.Replicated{Replications: cfg.Workload.Replications, Seed: seed, Tag: 0x7363656e} // "scen"
	outs, err := sim.Collect(ctx, pool, func(rep int, r *rng.PCG) (repOut, error) {
		ctrl, err := buildController(arm, cfg.Gateway, ts)
		if err != nil {
			return repOut{}, err
		}
		g, _, err := newCellGateway(cfg, arm, ctrl, buildEstimator(cfg.effectiveGateway(arm), ts, 1e-3), 8)
		if err != nil {
			return repOut{}, err
		}
		admitted := 0
		for i := 0; ; i++ {
			rate := model.New(r.Split(uint64(i))).Next().Rate
			d, err := g.Admit(uint64(i), rate)
			if err != nil {
				return repOut{}, err
			}
			g.Tick(float64(i+1) * 1e-3)
			if !d.Admitted {
				admitted = i
				break
			}
			if i > int(4*n) {
				return repOut{}, fmt.Errorf("scenario: impulsive fill did not terminate at capacity %g", n)
			}
		}
		for j := 0; j < admitted; j++ {
			rate := model.New(r.Split(uint64(1)<<32 + uint64(j))).Next().Rate
			if err := g.UpdateRate(uint64(j), rate); err != nil {
				return repOut{}, err
			}
		}
		st := g.Tick(1e6) // well past T_c
		return repOut{overflow: st.AggregateRate > n, admitted: int64(admitted)}, nil
	})
	if err != nil {
		return CellResult{}, err
	}

	audit, err := qos.NewAudit(qos.AuditConfig{
		TargetPf: cfg.Gateway.PQ,
		Z:        auditZ(cfg),
		Window:   len(outs),
	})
	if err != nil {
		return CellResult{}, err
	}
	cell := CellResult{Seed: seed, Arm: arm.Name, Reps: len(outs)}
	for _, o := range outs {
		audit.Observe(o.overflow)
		cell.Stats.Admitted += o.admitted
		cell.Stats.Rejected++ // the fill stops at the first refusal
		cell.UtilMean += float64(o.admitted) / n / float64(len(outs))
	}
	cell.Stats.Active = cell.Stats.Admitted
	rep := audit.Report()
	cell.Overflow = rep.Estimate
	cell.QoS = rep.Verdict
	return cell, nil
}

// runChurnCell replays a loadgen schedule through the gateway (directly,
// or through client -> server -> gateway on loopback for the network
// target), driving measurement ticks, the fault schedule, and the
// overflow audit from the replay's tick hook, then drains extra ticks so
// leases expire and the final state is quiescent.
func runChurnCell(ctx context.Context, cfg *Config, arm Arm, seed uint64) (CellResult, error) {
	events, err := churnSchedule(cfg, seed)
	if err != nil {
		return CellResult{}, err
	}
	cell, st, err := replayChurn(ctx, cfg, arm, events, cfg.Target == TargetNetwork)
	if err != nil {
		return CellResult{}, err
	}
	cell.Seed = seed
	cell.Arm = arm.Name
	if cfg.Target == TargetNetwork {
		// The in-process twin replays the identical schedule; substrate
		// identity means both the driver-side decision accounting and the
		// final gateway state agree exactly.
		twin, twinSt, err := replayChurn(ctx, cfg, arm, events, false)
		if err != nil {
			return CellResult{}, err
		}
		cell.NetMatched = cell.Replay == twin.Replay && st == twinSt
	}
	cell.Stats = st
	return cell, nil
}

func churnSchedule(cfg *Config, seed uint64) ([]loadgen.Event, error) {
	w := cfg.Workload
	lcfg := loadgen.Config{
		Seed:        seed,
		Lambda:      w.Lambda,
		Hold:        w.Hold,
		SVR:         w.SVR,
		TC:          w.TC,
		Duration:    w.Duration,
		ArrivalCV:   w.ArrivalCV,
		Renegotiate: w.Renegotiate,
	}
	if w.Model != nil {
		m, err := w.Model.build()
		if err != nil {
			return nil, err
		}
		lcfg.Model = m
	}
	if w.Shift != nil {
		m, err := w.Shift.Model.build()
		if err != nil {
			return nil, err
		}
		lcfg.ShiftAt = w.Shift.At
		lcfg.ShiftModel = m
	}
	if w.Crowd != nil {
		lcfg.Crowd = loadgen.Crowd{Factor: w.Crowd.Factor, From: w.Crowd.From, To: w.Crowd.To}
	}
	if w.Clients != nil {
		lcfg.Plan = fault.ClientPlan{LeakP: w.Clients.LeakP, Lie: w.Clients.Lie}
		if lcfg.Plan.Lie == 0 {
			lcfg.Plan.Lie = 1
		}
	}
	return loadgen.Schedule(lcfg)
}

// replayChurn runs one substrate's replay of an already-built schedule and
// returns the cell accounting plus the final gateway stats.
func replayChurn(ctx context.Context, cfg *Config, arm Arm, events []loadgen.Event, network bool) (CellResult, gw.Stats, error) {
	w := cfg.Workload
	model, err := buildModel(&w)
	if err != nil {
		return CellResult{}, gw.Stats{}, err
	}
	ts := model.Stats()
	ctrl, err := buildController(arm, cfg.Gateway, ts)
	if err != nil {
		return CellResult{}, gw.Stats{}, err
	}
	est := buildEstimator(cfg.effectiveGateway(arm), ts, w.Tick)
	windows := cfg.FaultSchedule()
	var faulty *fault.Estimator
	if len(windows) > 0 {
		faulty = fault.Wrap(est)
		est = faulty
	}

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
	g, tuner, err := newCellGateway(cfg, arm, ctrl, est, overflowWindow)
	if err != nil {
		return CellResult{}, gw.Stats{}, err
	}
	audit, err := qos.NewAudit(qos.AuditConfig{TargetPf: cfg.Gateway.PQ, Z: auditZ(cfg), Window: totalTicks})
	if err != nil {
		return CellResult{}, gw.Stats{}, err
	}

	var cell CellResult
	var prevAdmitted int64
	prevDegraded := false
	var utilN int64
	lastTick := 0.0
	gradeFrom := gradeAfter(cfg)
	tick := func(now float64) {
		lastTick = now
		if faulty != nil {
			faulty.SetMode(fault.ModeAt(windows, now))
		}
		st := g.Tick(now)
		if now >= gradeFrom {
			audit.ObserveWith(st.AggregateRate > cfg.Gateway.Capacity, st.Degraded)
		}
		if st.Degraded {
			cell.DegradedTicks++
		}
		// Admissions since the previous tick were decided under the policy
		// state published there.
		if prevDegraded {
			cell.StormAdmitted += st.Admitted - prevAdmitted
		}
		prevAdmitted = st.Admitted
		prevDegraded = st.Degraded
		cell.UtilMean += st.AggregateRate / cfg.Gateway.Capacity
		utilN++
	}

	const batch = 8
	var tgt loadgen.Target
	var shutdown func() error
	var srv *server.Server
	if network {
		srv, err = server.New(server.Config{Gateway: g})
		if err != nil {
			return CellResult{}, gw.Stats{}, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return CellResult{}, gw.Stats{}, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		cl, err := client.New(client.Config{Addr: ln.Addr().String()})
		if err != nil {
			return CellResult{}, gw.Stats{}, err
		}
		tgt = loadgen.ClientTarget{C: cl}
		shutdown = func() error {
			defer cl.Close()
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				return err
			}
			return <-done
		}
	} else {
		tgt = &loadgen.GatewayTarget{G: g}
	}

	rst, err := loadgen.Replay(ctx, tgt, events, batch, w.Tick, tick)
	if shutdown != nil {
		if serr := shutdown(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return CellResult{}, gw.Stats{}, err
	}
	if srv != nil {
		// The serving-layer latency percentiles, read after the drained
		// shutdown so every decision is in the histogram.
		snap := srv.Snapshot()
		cell.ServedP50, cell.ServedP99 = snap.ServedP50, snap.ServedP99
	}
	// Drain from wherever the replay's tick loop stopped, never backwards.
	start := max(lastTick, w.Duration)
	for i := 1; i <= drain; i++ {
		tick(start + float64(i)*w.Tick)
	}
	if utilN > 0 {
		cell.UtilMean /= float64(utilN)
	}
	if tuner != nil {
		snap := tuner.Snapshot()
		cell.Adaptive = &snap
	}
	cell.Replay = rst
	rep := audit.Report()
	cell.Overflow = rep.Estimate
	cell.QoS = rep.Verdict
	return cell, g.Stats(), nil
}
