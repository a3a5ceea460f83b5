// Package loadgen generates and replays open-loop admission workloads:
// Poisson flow arrivals at a configurable offered load, exponential
// holding times, RCBR-marginal flow rates. The same seeded schedule can
// be replayed against an in-process gateway or through the network
// client — the deterministic single-worker replay produces identical
// decision counts on both substrates, which is the end-to-end
// correctness check for the serving layer (the wire, the server's
// micro-batching and the client's correlation must all be transparent
// to the admission outcome).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/client"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// Kind is an event type in the generated workload.
type Kind uint8

const (
	KindAdmit Kind = iota
	KindDepart
	// KindUpdate renegotiates a flow's rate mid-life — the path through
	// which a lying client's *measured* rate reaches the gateway after its
	// understated declaration was admitted.
	KindUpdate
)

// Event is one scheduled admission action at virtual time T.
type Event struct {
	T    float64
	Kind Kind
	Flow uint64
	Rate float64
}

// Crowd is a flash-crowd window: while virtual time is in [From, To) the
// arrival intensity is multiplied by Factor. The zero value disables it.
type Crowd struct {
	Factor float64
	From   float64
	To     float64
}

// Config parameterizes a workload.
type Config struct {
	Seed     uint64  // schedule RNG seed
	Lambda   float64 // flow arrival rate (flows per virtual time unit)
	Hold     float64 // mean exponential holding time
	SVR      float64 // sigma/mu of the flow-rate distribution (RCBR default model)
	TC       float64 // RCBR correlation time of the rate model
	Duration float64 // virtual schedule length

	// ArrivalCV selects the interarrival law: 0 (or 1) keeps the paper's
	// Poisson arrivals; any other positive value draws Gamma interarrival
	// times with that coefficient of variation at the same mean — the
	// Gamma-burst arrivals of the scenario tier (CV > 1 clusters arrivals
	// into bursts a Poisson process never produces).
	ArrivalCV float64

	// Model overrides the flow-rate model. nil keeps the default
	// RCBR(1, SVR, TC); with a Model set, SVR and TC are not required.
	Model traffic.Model

	// Plan is the client-misbehavior population (fault.ClientPlan): flows
	// declare Plan.Declared(rate) at admission (a lying client's actual
	// rate still follows as a KindUpdate event), and a departing flow
	// silently leaks its slot with probability LeakP — no depart event is
	// scheduled, leaving reclamation to the gateway's lease sweep. The
	// zero value is an honest population.
	Plan fault.ClientPlan

	// Crowd, when Factor > 1, is the flash-crowd window.
	Crowd Crowd

	// ShiftModel, when non-nil, replaces the rate model for flows arriving
	// at or after ShiftAt: a mid-run change in the traffic's correlation
	// structure (e.g. the RCBR correlation time T_c jumping) that the
	// adaptive measurement tier must detect and retune for. Flows arriving
	// before ShiftAt draw from the base model with exactly the historical
	// RNG stream, so a schedule with a shift is bit-identical to the
	// unshifted one up to the shift point.
	ShiftAt    float64
	ShiftModel traffic.Model

	// Renegotiate, when true, walks each flow's segment process across its
	// holding time and emits a KindUpdate event at every segment boundary —
	// the paper's renegotiated-CBR dynamics, where an admitted flow's rate
	// keeps fluctuating at the model's correlation time-scale instead of
	// freezing at its admission draw. Off, schedules are bit-identical to
	// the historical single-draw form.
	Renegotiate bool
}

func (c Config) validate() error {
	if c.Lambda <= 0 || c.Hold <= 0 || c.Duration <= 0 {
		return fmt.Errorf("loadgen: lambda, hold and duration must be positive")
	}
	if c.Model == nil && (c.SVR <= 0 || c.TC <= 0) {
		return fmt.Errorf("loadgen: svr and tc must be positive without an explicit model")
	}
	if math.IsNaN(c.ArrivalCV) || math.IsInf(c.ArrivalCV, 0) || c.ArrivalCV < 0 {
		return fmt.Errorf("loadgen: arrival CV %g must be a non-negative finite value", c.ArrivalCV)
	}
	if c.Plan.Lie != 0 || c.Plan.LeakP != 0 {
		if err := c.Plan.Validate(); err != nil {
			return err
		}
	}
	if c.Crowd.Factor != 0 {
		if math.IsNaN(c.Crowd.Factor) || math.IsInf(c.Crowd.Factor, 0) || c.Crowd.Factor < 1 {
			return fmt.Errorf("loadgen: crowd factor %g must be >= 1 and finite", c.Crowd.Factor)
		}
		if math.IsNaN(c.Crowd.From) || math.IsNaN(c.Crowd.To) || !(c.Crowd.To > c.Crowd.From) {
			return fmt.Errorf("loadgen: crowd window [%g, %g) is empty", c.Crowd.From, c.Crowd.To)
		}
	}
	if c.ShiftModel != nil &&
		(math.IsNaN(c.ShiftAt) || math.IsInf(c.ShiftAt, 0) || c.ShiftAt < 0) {
		return fmt.Errorf("loadgen: shift time %g must be a non-negative finite value", c.ShiftAt)
	}
	return nil
}

// Schedule pregenerates the deterministic event list for cfg: one admit
// per arriving flow (rate drawn from the RCBR marginal) and one depart at
// the end of its holding time. Events are sorted by time with flow/kind
// tie-breaks, so a given seed always yields the same list.
func Schedule(cfg Config) ([]Event, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed, 0x6c6f6164) // "load"
	model := cfg.Model
	if model == nil {
		model = traffic.NewRCBR(1, cfg.SVR, cfg.TC)
	}
	// next draws one interarrival time starting at virtual time now. With
	// the new knobs at their zero values this is exactly the historical
	// r.Exp(1/λ) draw, so old seeds keep their old schedules bit for bit.
	next := func(now float64) float64 {
		mean := 1 / cfg.Lambda
		if cfg.Crowd.Factor > 1 && now >= cfg.Crowd.From && now < cfg.Crowd.To {
			mean /= cfg.Crowd.Factor
		}
		if cfg.ArrivalCV == 0 || cfg.ArrivalCV == 1 {
			return r.Exp(mean)
		}
		shape := 1 / (cfg.ArrivalCV * cfg.ArrivalCV)
		return r.Gamma(shape, mean/shape)
	}
	var events []Event
	id := uint64(0)
	for t := next(0); t < cfg.Duration; t += next(t) {
		fr := r.Split(id)
		m := model
		if cfg.ShiftModel != nil && t >= cfg.ShiftAt {
			// The shifted model draws from the same split per-flow stream,
			// so the arrival process (driven by r) is untouched and the
			// pre-shift prefix of the schedule is bit-identical.
			m = cfg.ShiftModel
		}
		src := m.New(fr)
		seg := src.Next() // same two draws (rate, duration) as the historical single-draw form
		rate := seg.Rate
		hold := fr.Exp(cfg.Hold)
		leak := false
		if cfg.Plan.LeakP > 0 { // draw only when leaking is on: keeps old streams intact
			leak = cfg.Plan.Leaks(fr.Float64())
		}
		if t+hold > cfg.Duration {
			hold = cfg.Duration - t
		}
		declared := cfg.Plan.Declared(rate)
		events = append(events, Event{T: t, Kind: KindAdmit, Flow: id, Rate: declared})
		if declared != rate {
			// The measured rate follows the lying declaration immediately;
			// the kind tie-break keeps it after the admit.
			events = append(events, Event{T: t, Kind: KindUpdate, Flow: id, Rate: rate})
		}
		if cfg.Renegotiate {
			// Renegotiated-CBR dynamics: the flow redraws its rate at every
			// segment boundary until it departs. Updates carry the true rate
			// — renegotiation models the measured path, not the declaration.
			for ts := t + seg.Duration; ts < t+hold; {
				seg = src.Next()
				events = append(events, Event{T: ts, Kind: KindUpdate, Flow: id, Rate: seg.Rate})
				if !(seg.Duration > 0) {
					break // a non-advancing source cannot renegotiate further
				}
				ts += seg.Duration
			}
		}
		if !leak {
			events = append(events, Event{T: t + hold, Kind: KindDepart, Flow: id})
		}
		id++
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].T != events[j].T {
			return events[i].T < events[j].T
		}
		if events[i].Flow != events[j].Flow {
			return events[i].Flow < events[j].Flow
		}
		return events[i].Kind < events[j].Kind
	})
	return events, nil
}

// Stats counts replay outcomes. NotActive counts departs that raced a
// rejected (or never-admitted) flow — the schedule departs every flow,
// admitted or not.
type Stats struct {
	Admitted  int64
	Rejected  int64
	Departed  int64
	NotActive int64
	// Updated counts rate renegotiations that landed on an active flow;
	// UpdateMissed counts those whose flow was rejected or already gone.
	Updated      int64
	UpdateMissed int64
}

func (s *Stats) add(o Stats) {
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.Departed += o.Departed
	s.NotActive += o.NotActive
	s.Updated += o.Updated
	s.UpdateMissed += o.UpdateMissed
}

// Target is an admission substrate a schedule can replay against: the
// in-process gateway or the network client, interchangeably.
type Target interface {
	// AdmitBatch decides the batch in order; decisions index-align with
	// the flows.
	AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error)
	// Depart releases one flow; active reports whether the flow was
	// actually active (false for the gateway's not-active outcome).
	Depart(ctx context.Context, flow uint64) (active bool, err error)
	// UpdateRate renegotiates an active flow's rate; active reports
	// whether the flow was active (false when it was rejected or gone).
	UpdateRate(ctx context.Context, flow uint64, rate float64) (active bool, err error)
}

// GatewayTarget replays against an in-process gateway.
type GatewayTarget struct {
	G   *gateway.Gateway
	dst []gateway.Decision
}

// AdmitBatch implements Target.
func (t *GatewayTarget) AdmitBatch(_ context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	var err error
	t.dst, err = t.G.AdmitBatch(flows, rates, t.dst[:0])
	return t.dst, err
}

// Depart implements Target.
func (t *GatewayTarget) Depart(_ context.Context, flow uint64) (bool, error) {
	if err := t.G.Depart(flow); err != nil {
		return false, nil // the gateway's only Depart error is not-active
	}
	return true, nil
}

// UpdateRate implements Target. Schedules never carry invalid rates, so
// any gateway error here is the not-active outcome.
func (t *GatewayTarget) UpdateRate(_ context.Context, flow uint64, rate float64) (bool, error) {
	if err := t.G.UpdateRate(flow, rate); err != nil {
		return false, nil
	}
	return true, nil
}

// ClientTarget replays through the network client.
type ClientTarget struct{ C *client.Client }

// AdmitBatch implements Target.
func (t ClientTarget) AdmitBatch(ctx context.Context, flows []uint64, rates []float64) ([]gateway.Decision, error) {
	return t.C.AdmitBatch(ctx, flows, rates)
}

// Depart implements Target.
func (t ClientTarget) Depart(ctx context.Context, flow uint64) (bool, error) {
	switch err := t.C.Depart(ctx, flow); {
	case err == nil:
		return true, nil
	case errors.Is(err, client.ErrNotActive):
		return false, nil
	default:
		return false, err
	}
}

// UpdateRate implements Target.
func (t ClientTarget) UpdateRate(ctx context.Context, flow uint64, rate float64) (bool, error) {
	switch err := t.C.UpdateRate(ctx, flow, rate); {
	case err == nil:
		return true, nil
	case errors.Is(err, client.ErrNotActive), errors.Is(err, client.ErrInvalidRate):
		return false, nil
	default:
		return false, err
	}
}

// replayer is one goroutine's replay state: the admission batch being
// coalesced and the outcome counts. Replay runs one; Run runs one per
// worker and sums their Stats after the workers finish, so no counter is
// shared between goroutines.
type replayer struct {
	ctx   context.Context
	tgt   Target
	batch int
	ids   []uint64
	rates []float64
	st    Stats
}

func newReplayer(ctx context.Context, tgt Target, batch int) *replayer {
	batch = max(batch, 1)
	return &replayer{
		ctx:   ctx,
		tgt:   tgt,
		batch: batch,
		ids:   make([]uint64, 0, batch),
		rates: make([]float64, 0, batch),
	}
}

// flush submits the pending admits, if any.
func (r *replayer) flush() error {
	if len(r.ids) == 0 {
		return nil
	}
	ds, err := r.tgt.AdmitBatch(r.ctx, r.ids, r.rates)
	if err != nil {
		return err
	}
	for _, d := range ds {
		if d.Admitted {
			r.st.Admitted++
		} else {
			r.st.Rejected++
		}
	}
	r.ids = r.ids[:0]
	r.rates = r.rates[:0]
	return nil
}

// step applies one event. Admits coalesce up to the batch size; a depart
// or update flushes them first, so per-flow event order holds.
func (r *replayer) step(ev Event) error {
	if ev.Kind == KindAdmit {
		r.ids = append(r.ids, ev.Flow)
		r.rates = append(r.rates, ev.Rate)
		if len(r.ids) >= r.batch {
			return r.flush()
		}
		return nil
	}
	if err := r.flush(); err != nil {
		return err
	}
	if ev.Kind == KindDepart {
		active, err := r.tgt.Depart(r.ctx, ev.Flow)
		if err != nil {
			return err
		}
		if active {
			r.st.Departed++
		} else {
			r.st.NotActive++
		}
		return nil
	}
	active, err := r.tgt.UpdateRate(r.ctx, ev.Flow, ev.Rate)
	if err != nil {
		return err
	}
	if active {
		r.st.Updated++
	} else {
		r.st.UpdateMissed++
	}
	return nil
}

// Replay runs the schedule against tgt deterministically: one goroutine,
// strict event order, consecutive admits coalesced into AdmitBatch calls
// of up to batch (flushed before any depart, so per-flow order holds).
// tick, when non-nil, is called at each multiple of window virtual time —
// the hook through which a test drives measurement ticks identically on
// two substrates.
func Replay(ctx context.Context, tgt Target, events []Event, batch int, window float64, tick func(now float64)) (Stats, error) {
	r := newReplayer(ctx, tgt, batch)
	now := 0.0
	for _, ev := range events {
		if tick != nil && window > 0 {
			for ev.T > now {
				if err := r.flush(); err != nil {
					return r.st, err
				}
				now += window
				tick(now)
			}
		}
		if err := r.step(ev); err != nil {
			return r.st, err
		}
	}
	return r.st, r.flush()
}

// RunConfig parameterizes a concurrent open-loop run (the cmd/loadgen
// tool, cmd/gateway's replay windows and the soak tests).
type RunConfig struct {
	Workers int // concurrent replay goroutines (flows shard by id)
	Batch   int // admits coalesced per AdmitBatch call within a worker
	// Timescale maps one virtual time unit to a wall duration, pacing the
	// open-loop arrivals (departures follow the schedule's holding
	// times). 0 replays as fast as the substrate allows.
	Timescale time.Duration
}

// Run replays the schedule concurrently and open-loop: each worker owns
// the flows with id % Workers == its index and walks their events in
// time order, skipping the other workers' flows and sleeping toward each
// event's wall time under Timescale. Per-flow event order is exact;
// cross-flow interleaving is whatever the race produces — this is the
// load tool, not the determinism check. Run returns the workers' summed
// Stats and the first worker error.
func Run(ctx context.Context, tgt func(worker int) Target, events []Event, cfg RunConfig) (Stats, error) {
	workers := max(cfg.Workers, 1)
	rs := make([]*replayer, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range rs {
		rs[w] = newReplayer(ctx, tgt(w), cfg.Batch)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = rs[w].run(events, uint64(w), uint64(workers), start, cfg.Timescale)
		}(w)
	}
	wg.Wait()
	var st Stats
	for _, r := range rs {
		st.add(r.st)
	}
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// run is one Run worker: it replays the events of the flows with
// id % workers == shard.
func (r *replayer) run(events []Event, shard, workers uint64, start time.Time, timescale time.Duration) error {
	for _, ev := range events {
		if ev.Flow%workers != shard {
			continue
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if timescale > 0 {
			due := start.Add(time.Duration(ev.T * float64(timescale)))
			if d := time.Until(due); d > 0 {
				// Pace the open loop: flush what we have, then wait.
				if err := r.flush(); err != nil {
					return err
				}
				select {
				case <-time.After(d):
				case <-r.ctx.Done():
					return r.ctx.Err()
				}
			}
		}
		if err := r.step(ev); err != nil {
			return err
		}
	}
	return r.flush()
}
