// Package gateway turns the paper's batch-simulated admission controller
// into a serving-shaped subsystem: a sharded, goroutine-safe online gateway
// that answers Admit/Depart requests concurrently while a periodic
// measurement tick drives the estimator and republishes the
// certainty-equivalent bound.
//
// # Mapping to the paper
//
// The gateway maintains exactly the state of the paper's controller loop
// (eqs. 6/22), split for concurrency:
//
//   - per-shard flow tables hold each active flow's current rate; their
//     sums ΣX_i and ΣX_i² are the cross-sectional aggregates of eq. 7;
//   - the measurement tick feeds those aggregates to an
//     estimator.Estimator, producing (μ̂, σ̂) — the paper's estimated
//     per-flow mean and standard deviation;
//   - the controller maps (μ̂, σ̂) to the admissible flow count M (eq. 42),
//     which is published atomically; Admit admits while the active count
//     stays below M.
//
// # Concurrency design
//
// Flow state is sharded by a mixed hash of the flow ID; each shard is
// protected by its own mutex, and all hot-path instrumentation (admission
// counters, the latency histogram) is striped per shard inside that same
// critical section, so Admit/Depart/UpdateRate on different flows contend
// only on one shared atomic: the active-flow count. The admission check
// itself is lock-free: a compare-and-swap loop on that counter against the
// last published bound, which guarantees the active count never exceeds
// ⌊M⌋ no matter how many goroutines race.
//
// Measurement is decoupled from admission, as in any real MBAC: between
// ticks the bound is (deliberately) stale. Tests and the simulator call
// Tick with a virtual clock for deterministic replay; production callers
// use Run, which ticks on a wall-clock interval until the context ends.
package gateway

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Reason classifies the outcome of an Admit call.
type Reason int

// Admission outcomes.
const (
	// ReasonAdmitted: the flow was admitted.
	ReasonAdmitted Reason = iota
	// ReasonCapacity: admitting would push the active count past the
	// controller's bound M.
	ReasonCapacity
	// ReasonInvalidRate: the declared rate was non-positive, infinite or
	// NaN. Batch admissions report it per item; Admit returns an error
	// instead.
	ReasonInvalidRate
	// ReasonDuplicate: the flow ID is already active. Batch admissions
	// report it per item; Admit returns an error instead.
	ReasonDuplicate
	// ReasonExpired: the flow's lease ran out (no UpdateRate/Touch within
	// Config.FlowTTL) and the expiry sweep reclaimed its slot. It never
	// appears in an admission Decision; it classifies lease-sweep
	// departures in stats and metrics.
	ReasonExpired
	reasonEnd
)

var reasonNames = enum.New(map[Reason]string{
	ReasonAdmitted:    "admitted",
	ReasonCapacity:    "capacity",
	ReasonInvalidRate: "invalid-rate",
	ReasonDuplicate:   "duplicate",
	ReasonExpired:     "expired",
}, reasonEnd)

// String implements fmt.Stringer.
func (r Reason) String() string { return reasonNames.String(r) }

// DegradedPolicy selects how the gateway admits while its measurement
// pipeline is unhealthy (stale ticks, or estimates that stay invalid with
// flows present). The paper's controller assumes measurements keep
// arriving; a serving gateway must pick an explicit fallback when they
// don't.
type DegradedPolicy int

const (
	// DegradedFreeze: keep admitting against the last healthy bound M.
	// The default — the bound is stale but was recently defensible.
	DegradedFreeze DegradedPolicy = iota
	// DegradedPeakRate: fall back to peak-rate allocation, M = c / peak,
	// where peak is the largest rate any flow has declared or reported.
	// Zero multiplexing gain, but safe without any measurement at all
	// (the paper's Section 2 a-priori baseline).
	DegradedPeakRate
	// DegradedRejectAll: admit nothing until measurement recovers.
	DegradedRejectAll
	degradedEnd
)

var degradedNames = enum.New(map[DegradedPolicy]string{
	DegradedFreeze:    "freeze",
	DegradedPeakRate:  "peak-rate",
	DegradedRejectAll: "reject-all",
}, degradedEnd)

// String implements fmt.Stringer.
func (p DegradedPolicy) String() string { return degradedNames.String(p) }

// ParseDegradedPolicy is the inverse of DegradedPolicy.String, for CLI
// flags and scenario configs.
func ParseDegradedPolicy(s string) (DegradedPolicy, error) { return degradedNames.Parse(s) }

// Degradation causes, kept as a bitmask so both faults can hold at once.
const (
	degradedStaleTicks  int32 = 1 << iota // the measurement loop stopped ticking
	degradedMeasurement                   // estimates stayed invalid with flows present
)

// degradedReason renders a degradation bitmask for stats and logs.
func degradedReason(flags int32) string {
	switch {
	case flags == 0:
		return ""
	case flags == degradedStaleTicks:
		return "stale-ticks"
	case flags == degradedMeasurement:
		return "measurement"
	default:
		return "stale-ticks+measurement"
	}
}

// Decision reports the outcome of one admission request.
type Decision struct {
	Admitted   bool
	Reason     Reason
	Admissible float64 // the bound M in force at decision time
	Active     int64   // active flows immediately after the decision
}

// Config parameterizes a Gateway.
type Config struct {
	Capacity   float64             // link capacity c (required, > 0)
	Controller core.Controller     // admission controller (required)
	Estimator  estimator.Estimator // measurement process (required); owned by the gateway after New
	Shards     int                 // flow-table shards, rounded up to a power of two (default 16)

	// TickInterval is the wall-clock measurement period used by Run
	// (default 100ms). Virtual-clock users ignore it and call Tick
	// directly.
	TickInterval time.Duration

	// LatencyClock supplies monotonic nanoseconds for the admission
	// latency histogram. Nil selects the process-monotonic wall clock;
	// deterministic tests inject a virtual clock so two equally seeded
	// runs produce bit-identical snapshots.
	LatencyClock func() int64

	// LatencySample controls admission-latency fidelity: the gateway
	// observes one in every LatencySample decisions per shard, rounded up
	// to a power of two. 0 or 1 keeps full fidelity — every decision is
	// timed from just after validation to just after the decision. Load
	// drivers set a larger N: sampled-out decisions then skip the latency
	// clock entirely (zero clock reads), and sampled-in decisions time the
	// admission critical section (the sampling choice lives under the
	// shard lock, so the measured interval starts there and excludes lock
	// wait).
	LatencySample int

	// EstimateRing is the number of per-tick (μ̂, σ̂) points retained for
	// observability (default 256).
	EstimateRing int

	// OverflowWindow is the number of measurement ticks over which the
	// gateway estimates the windowed overflow probability p_f — one
	// Bernoulli indicator {ΣX_i > c} per tick (default 1024).
	OverflowWindow int

	// FlowTTL enables flow leases: a flow whose rate has not been refreshed
	// (UpdateRate with a positive rate, or Touch) within FlowTTL units of
	// virtual time is reclaimed by the next measurement tick's expiry sweep
	// and counted as expired. 0 (the default) disables leases — the
	// paper's model, where every flow departs cleanly. When enabled,
	// FlowTTL should comfortably exceed the tick period: leases are
	// anchored to the last tick's time, so a TTL under one tick expires
	// flows on arrival.
	FlowTTL float64

	// StaleAfter arms the degradation watchdogs, in measurement ticks.
	// Two faults trip them: Run's wall-clock watchdog degrades the gateway
	// when no tick completes for StaleAfter tick intervals (the bound is
	// silently stale), and the measurement watchdog degrades it when the
	// estimator reports invalid estimates (not-OK, NaN or Inf) for
	// StaleAfter consecutive ticks while at least two flows are active.
	// 0 (the default) disables both watchdogs. Either way, a tick whose
	// estimates are invalid with flows present never republishes the
	// controller's fallback output — the gateway holds the last healthy
	// bound instead.
	StaleAfter int

	// Degraded selects the admission policy applied while degraded:
	// freeze the last healthy bound (default), fall back to peak-rate
	// allocation, or reject all arrivals until measurement recovers.
	Degraded DegradedPolicy

	// Tuner, when set, retunes the estimator's memory window online: the
	// gateway feeds it one aggregate sample per measurement tick (under
	// the measurement lock) and applies the returned memory before the
	// next tick. The configured Estimator must implement
	// estimator.MemorySetter. The admit hot path is untouched: the tuner
	// runs on the tick path only.
	Tuner Tuner
}

// Tuner is the adaptive-measurement seam (the paper's Section 7 online
// time-scale adaptation): an online controller that observes each
// measurement tick and steers the estimator memory T_m. ObserveTick
// receives the tick time, the instantaneous aggregate rate and flow
// count, the estimator's current estimates, and the memory in force; it
// returns the memory to use from the next tick on, with retune true when
// it differs. Implementations are called under the gateway's measurement
// lock and must not call back into the gateway.
type Tuner interface {
	ObserveTick(now, aggregate float64, flows int, mu, sigma, tm float64) (newTm float64, retune bool)
}

// processStart anchors the default monotonic latency clock.
var processStart = time.Now()

// defaultLatencyClock returns monotonic nanoseconds since process start.
func defaultLatencyClock() int64 { return int64(time.Since(processStart)) }

// shard is one lock domain of the flow table, and also one stripe of the
// hot-path instrumentation: admit/reject/depart counts and the latency
// histogram are plain (non-atomic) fields updated inside the critical
// section the admission path already holds, then merged across shards only
// when Stats or Snapshot asks. Compared to global atomic counters this
// removes every cross-shard cache-line bounce from the hot path — the
// three-way contention on admitted/rejected/admitLat was what doubled
// Admit's cost when instrumentation landed. The padding keeps shards on
// separate cache lines so uncontended shards don't false-share.
type shard struct {
	mu      sync.Mutex
	flows   map[uint64]flowEntry // flow ID -> rate and lease deadline
	sumRate float64              // ΣX_i over this shard
	sumSq   float64              // ΣX_i² over this shard

	// minDeadline is a conservative lower bound on the earliest lease
	// deadline in this shard (+Inf when leases are off or the shard holds
	// none): the expiry sweep scans a shard's flows only when minDeadline
	// has come due, so an all-healthy tick stays O(shards), not O(flows).
	// Lease refreshes only extend deadlines, so the cached bound can run
	// low — the cost is a wasted scan, never a missed expiry.
	minDeadline float64

	admitted uint64 // striped counters, merged at read time
	rejected uint64
	departed uint64
	expired  uint64                  // lease-sweep reclaims (ReasonExpired departures)
	latSeq   uint64                  // decision sequence for 1-in-N latency sampling
	lat      *metrics.LocalHistogram // admission latency, single-writer under mu
	_        [48]byte
}

// flowEntry is one active flow's per-shard state: its current rate and,
// with leases enabled, the virtual time at which its lease expires.
type flowEntry struct {
	rate     float64
	deadline float64
}

// Gateway is a concurrent online admission controller. Construct with New;
// all methods are safe for concurrent use.
type Gateway struct {
	cfg    Config
	shards []shard
	mask   uint64

	active atomic.Int64 // CAS-reserved active-flow count (admission invariant)

	// departPool recycles DepartBatch's shard-grouping scratch across
	// calls and connections, keeping the batched departure path
	// allocation-free in the steady state.
	departPool sync.Pool

	// Hot-path instrumentation lives striped in the shards (see shard);
	// here only the latency clock and the sampling mask. sampleMask is a
	// power of two minus one: a decision is timed when latSeq&sampleMask
	// == 0, so mask 0 means every decision (full fidelity).
	clock      func() int64
	sampleMask uint64

	bound metrics.Gauge // the effective published admissible count (eq. 42, post-policy)
	raw   metrics.Gauge // the controller's last healthy bound, pre-degradation

	// Flow-lifecycle state. vnow republishes the last tick's virtual time
	// so the admission path can stamp lease deadlines without touching the
	// measurement mutex; peakBits tracks the largest rate ever declared or
	// reported (float64 bits — positive floats order like their bits), the
	// denominator of the peak-rate degraded fallback.
	ttl       float64
	trackPeak bool
	vnow      metrics.Gauge
	peakBits  atomic.Uint64

	// Degradation state: the cause bitmask and the wall-clock (LatencyClock)
	// time of the last completed tick, compared by Run's watchdog.
	degraded     atomic.Int32
	lastTickWall atomic.Int64

	// Tick-path instrumentation: the (μ̂, σ̂) snapshot ring tagged with the
	// estimator memory T_m, and the windowed overflow indicator ring.
	ring *metrics.Ring
	tm   float64

	// setMemory is the cached MemorySetter of cfg.Estimator when a Tuner
	// is configured (validated by New), nil otherwise.
	setMemory estimator.MemorySetter

	// measMu guards the estimator, the overflow window, the rotation
	// recompute state, and the last-tick snapshot below.
	measMu     sync.Mutex
	overflow   *stats.SlidingCounter
	rot        int       // next shard for the per-tick exact-sum recompute
	rotScratch []float64 // reusable sorted-rate buffer for the recompute
	lastTick   float64
	lastMu     float64
	lastSigma  float64
	lastOK     bool
	lastAgg    float64
	lastFlows  int
	ticks      int64
	notOK      int // consecutive invalid-measurement ticks with flows present
}

// Stats is a consistent snapshot of the gateway's aggregate state.
type Stats struct {
	Active   int64 // flows currently admitted
	Admitted int64 // cumulative admissions
	Rejected int64 // cumulative capacity rejections
	Departed int64 // cumulative departures
	Expired  int64 // cumulative lease-sweep reclaims (ReasonExpired)

	Degraded       bool   // serving under the degraded policy
	DegradedReason string // "", "stale-ticks", "measurement", or both

	Admissible    float64 // published bound M
	Mu            float64 // estimated per-flow mean μ̂ (last tick)
	Sigma         float64 // estimated per-flow stddev σ̂ (last tick)
	MeasurementOK bool    // estimates valid (estimator warmed up)
	AggregateRate float64 // measured ΣX_i at the last tick
	MeasuredFlows int     // flow count seen by the last tick
	LastTick      float64 // virtual time of the last tick
	Ticks         int64   // measurement ticks performed
}

// LifecycleBalanced reports the flow-conservation identity every quiescent
// gateway must satisfy: every admission is accounted for by a departure, a
// lease expiry, or a still-active flow (Admitted = Departed + Expired +
// Active). Mid-flight snapshots can legitimately be off by in-progress
// operations; after a drained run it must hold exactly, and the scenario
// tier's invariant hypotheses assert it after every storm.
func (s Stats) LifecycleBalanced() bool {
	return s.Admitted == s.Departed+s.Expired+s.Active
}

// New validates the configuration and returns a gateway whose bound has
// been initialized by one measurement tick at virtual time zero (so a
// certainty-equivalent controller starts from its bootstrap declaration).
func New(cfg Config) (*Gateway, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("gateway: capacity %g must be positive", cfg.Capacity)
	}
	if cfg.Controller == nil || cfg.Estimator == nil {
		return nil, fmt.Errorf("gateway: Controller and Estimator are required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	nshards := 1
	for nshards < cfg.Shards {
		nshards <<= 1
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 100 * time.Millisecond
	}
	if cfg.LatencyClock == nil {
		cfg.LatencyClock = defaultLatencyClock
	}
	if cfg.EstimateRing <= 0 {
		cfg.EstimateRing = 256
	}
	if cfg.OverflowWindow <= 0 {
		cfg.OverflowWindow = 1024
	}
	if math.IsNaN(cfg.FlowTTL) || math.IsInf(cfg.FlowTTL, 0) || cfg.FlowTTL < 0 {
		return nil, fmt.Errorf("gateway: flow TTL %g must be a non-negative finite duration", cfg.FlowTTL)
	}
	if !degradedNames.Valid(cfg.Degraded) {
		return nil, fmt.Errorf("gateway: unknown degraded policy %d", int(cfg.Degraded))
	}
	if cfg.StaleAfter < 0 {
		return nil, fmt.Errorf("gateway: StaleAfter %d must be non-negative", cfg.StaleAfter)
	}
	var setMemory estimator.MemorySetter
	if cfg.Tuner != nil {
		ms, ok := cfg.Estimator.(estimator.MemorySetter)
		if !ok {
			return nil, fmt.Errorf("gateway: Tuner requires an estimator implementing MemorySetter; %s does not", cfg.Estimator.Name())
		}
		setMemory = ms
	}
	g := &Gateway{
		cfg:       cfg,
		shards:    make([]shard, nshards),
		mask:      uint64(nshards - 1),
		clock:     cfg.LatencyClock,
		ring:      metrics.NewRing(cfg.EstimateRing),
		tm:        estimator.Memory(cfg.Estimator),
		overflow:  stats.NewSlidingCounter(cfg.OverflowWindow),
		ttl:       cfg.FlowTTL,
		trackPeak: cfg.Degraded == DegradedPeakRate,
		setMemory: setMemory,
	}
	if cfg.LatencySample > 1 {
		n := 1
		for n < cfg.LatencySample {
			n <<= 1
		}
		g.sampleMask = uint64(n - 1)
	}
	// All striped histograms alias one bounds slice so Snapshot merges stay
	// layout-compatible by construction.
	bounds := metrics.DefaultLatencyBounds()
	for i := range g.shards {
		g.shards[i].flows = make(map[uint64]flowEntry)
		g.shards[i].lat = metrics.NewLocalHistogram(bounds)
		g.shards[i].minDeadline = math.Inf(1)
	}
	g.cfg.Estimator.Reset(0)
	g.Tick(0)
	return g, nil
}

// shardIndex mixes the flow ID (SplitMix64 finalizer) so adjacent IDs
// spread across shards.
func (g *Gateway) shardIndex(flowID uint64) uint64 {
	z := flowID + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z & g.mask
}

// shardFor returns the shard owning flowID.
func (g *Gateway) shardFor(flowID uint64) *shard {
	return &g.shards[g.shardIndex(flowID)]
}

// Admissible returns the currently published bound M.
func (g *Gateway) Admissible() float64 {
	return g.bound.Load()
}

// startTimingLocked decides whether this decision's latency is observed
// and, if so, reads the clock; the caller holds s.mu. At full fidelity the
// caller already read start before the lock (timing the whole call), so
// this is a no-op; in sampled mode the 1-in-N choice happens here, under
// the lock that owns latSeq, and sampled-out decisions never touch the
// clock at all — the measurement cost the paper's philosophy (§4) says
// must not perturb the measured system.
func (g *Gateway) startTimingLocked(s *shard, start int64) (int64, bool) {
	if g.sampleMask == 0 {
		return start, true
	}
	s.latSeq++
	if s.latSeq&g.sampleMask != 0 {
		return 0, false
	}
	return g.clock(), true
}

// insertLocked records an admitted flow in s; the caller holds s.mu and
// has already CAS-reserved the active slot. With leases enabled the flow's
// deadline is stamped from the last published tick time, so a flow that
// never refreshes expires one TTL after (at most) its admission tick.
func (g *Gateway) insertLocked(s *shard, flowID uint64, rate float64) {
	e := flowEntry{rate: rate}
	if g.ttl > 0 {
		e.deadline = g.vnow.Load() + g.ttl
		if e.deadline < s.minDeadline {
			s.minDeadline = e.deadline
		}
	}
	s.flows[flowID] = e
	s.sumRate += rate
	s.sumSq += rate * rate
	s.admitted++
	if g.trackPeak {
		g.notePeak(rate)
	}
}

// notePeak folds rate into the running peak (the degraded peak-rate
// denominator). Positive float64s order like their bit patterns, so the
// monotone max is a plain CAS on the bits; the fast path is one load.
func (g *Gateway) notePeak(rate float64) {
	for {
		old := g.peakBits.Load()
		if rate <= math.Float64frombits(old) {
			return
		}
		if g.peakBits.CompareAndSwap(old, math.Float64bits(rate)) {
			return
		}
	}
}

// Admit requests admission for flowID at the given declared (or
// pre-measured, per Qadir et al.) rate. A capacity refusal is a normal
// Decision, not an error; errors indicate invalid input (non-positive or
// non-finite rate, duplicate active flow ID) and carry a Decision whose
// Reason says why — error-path Decisions are never ReasonAdmitted. Invalid
// requests are refused before the latency clock starts: they are not
// admission decisions and do not perturb the latency distribution.
func (g *Gateway) Admit(flowID uint64, declaredRate float64) (Decision, error) {
	if !(declaredRate > 0) || math.IsInf(declaredRate, 0) {
		return Decision{Reason: ReasonInvalidRate, Admissible: g.Admissible(), Active: g.active.Load()},
			fmt.Errorf("gateway: declared rate %g must be positive and finite", declaredRate)
	}
	var start int64
	if g.sampleMask == 0 {
		start = g.clock()
	}
	m := g.Admissible()
	s := g.shardFor(flowID)
	s.mu.Lock()
	if _, dup := s.flows[flowID]; dup {
		s.mu.Unlock()
		return Decision{Reason: ReasonDuplicate, Admissible: m, Active: g.active.Load()},
			fmt.Errorf("gateway: flow %d is already active", flowID)
	}
	start, timed := g.startTimingLocked(s, start)
	// Reserve a slot lock-free: the CAS loop ensures the active count can
	// never exceed ⌊M⌋ even when many goroutines race a single free slot.
	// (Spinning while holding the shard lock is safe: other threads
	// advance the counter without needing this shard.) Counters and the
	// latency observation stay inside the critical section the path already
	// owns — striped plain fields, merged only when a reader asks.
	for {
		cur := g.active.Load()
		if float64(cur)+1 > m {
			s.rejected++
			if timed {
				s.lat.Observe(float64(g.clock()-start) * 1e-9)
			}
			s.mu.Unlock()
			return Decision{Admitted: false, Reason: ReasonCapacity, Admissible: m, Active: cur}, nil
		}
		if g.active.CompareAndSwap(cur, cur+1) {
			g.insertLocked(s, flowID, declaredRate)
			if timed {
				s.lat.Observe(float64(g.clock()-start) * 1e-9)
			}
			s.mu.Unlock()
			return Decision{Admitted: true, Reason: ReasonAdmitted, Admissible: m, Active: cur + 1}, nil
		}
	}
}

// AdmitBatch decides a batch of admission requests in one call, appending
// one Decision per request to dst (pass a reused dst with spare capacity
// for an allocation-free steady state) and returning the extended slice.
// Semantically each item is decided exactly as by Admit, in order, except
// that invalid inputs become per-item Decisions (ReasonInvalidRate,
// ReasonDuplicate) rather than errors — a batch replay must not abort on
// one bad record. The only error is a length mismatch between ids and
// rates.
//
// The batch amortizes instrumentation: an all-valid batch pays one
// clock-read pair and one bound load total, and the latency histogram
// receives the per-decision mean, once per decided item, so
// AdmitLatency.Count still equals Admitted+Rejected. Undecided items
// (invalid rate, duplicate) are excluded from the averaged interval — the
// clock is stopped across runs of invalid items and restarted at the next
// valid one — and the mean is attributed to the shard that decided the
// first item, never to a shard that only saw invalid input. (A duplicate's
// table lookup is the one sliver that rides on an open interval: it is
// indistinguishable from a decision until the lookup returns.) Batches
// bypass LatencySample — the clock cost is already amortized.
func (g *Gateway) AdmitBatch(ids []uint64, rates []float64, dst []Decision) ([]Decision, error) {
	if len(ids) != len(rates) {
		return dst, fmt.Errorf("gateway: batch length mismatch: %d ids, %d rates", len(ids), len(rates))
	}
	if len(ids) == 0 {
		return dst, nil
	}
	m := g.Admissible()
	var (
		latNanos int64 // decided-interval time, accumulated across runs
		start    int64 // open interval start
		timing   bool  // an interval is open
		decided  int
		latShard *shard // the first shard that decided an item
	)
	for i, id := range ids {
		rate := rates[i]
		if !(rate > 0) || math.IsInf(rate, 0) {
			if timing {
				latNanos += g.clock() - start
				timing = false
			}
			dst = append(dst, Decision{Reason: ReasonInvalidRate, Admissible: m, Active: g.active.Load()})
			continue
		}
		if !timing {
			start = g.clock()
			timing = true
		}
		s := g.shardFor(id)
		s.mu.Lock()
		if _, dup := s.flows[id]; dup {
			s.mu.Unlock()
			latNanos += g.clock() - start
			timing = false
			dst = append(dst, Decision{Reason: ReasonDuplicate, Admissible: m, Active: g.active.Load()})
			continue
		}
		d := Decision{Admissible: m, Reason: ReasonCapacity}
		for {
			cur := g.active.Load()
			if float64(cur)+1 > m {
				s.rejected++
				d.Active = cur
				break
			}
			if g.active.CompareAndSwap(cur, cur+1) {
				g.insertLocked(s, id, rate)
				d.Admitted, d.Reason, d.Active = true, ReasonAdmitted, cur+1
				break
			}
		}
		s.mu.Unlock()
		if latShard == nil {
			latShard = s
		}
		decided++
		dst = append(dst, d)
	}
	if timing {
		latNanos += g.clock() - start
	}
	if decided > 0 {
		latShard.mu.Lock()
		latShard.lat.ObserveN(float64(latNanos)*1e-9/float64(decided), decided)
		latShard.mu.Unlock()
	}
	return dst, nil
}

// UpdateRate records a renegotiated rate for an active flow — the online
// rate-measurement path: callers feed measured per-flow rates here and the
// next tick folds them into (μ̂, σ̂).
//
// Zero is a valid rate: a paused flow keeps its admission slot and
// contributes a zero sample to the cross-section (eq. 7 averages over the
// flows in the system, silent or not — Admit's rate > 0 requirement is
// about the *declaration* an unmeasured newcomer is admitted on, not about
// what measurement later reports). With leases enabled, though, a zero
// report does NOT refresh the flow's lease: a flow that only ever reports
// zero is indistinguishable from a crashed client holding a slot, so it
// expires one TTL after its last positive report (or Touch — the explicit
// keepalive for deliberately idle flows).
func (g *Gateway) UpdateRate(flowID uint64, rate float64) error {
	if !(rate >= 0) || math.IsInf(rate, 0) {
		return fmt.Errorf("gateway: rate %g must be non-negative and finite", rate)
	}
	s := g.shardFor(flowID)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.flows[flowID]
	if !ok {
		return fmt.Errorf("gateway: flow %d is not active", flowID)
	}
	e := flowEntry{rate: rate, deadline: old.deadline}
	if g.ttl > 0 && rate > 0 {
		e.deadline = g.vnow.Load() + g.ttl
	}
	s.flows[flowID] = e
	s.sumRate += rate - old.rate
	s.sumSq += rate*rate - old.rate*old.rate
	if g.trackPeak && rate > 0 {
		g.notePeak(rate)
	}
	return nil
}

// Touch refreshes an active flow's lease without changing its rate — the
// keepalive for flows that are legitimately idle (rate 0) or whose rate
// reports arrive out of band. A no-op when leases are disabled.
func (g *Gateway) Touch(flowID uint64) error {
	s := g.shardFor(flowID)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.flows[flowID]
	if !ok {
		return fmt.Errorf("gateway: flow %d is not active", flowID)
	}
	if g.ttl > 0 {
		e.deadline = g.vnow.Load() + g.ttl
		s.flows[flowID] = e
	}
	return nil
}

// Depart removes an active flow. Departing an unknown flow is an error.
func (g *Gateway) Depart(flowID uint64) error {
	s := g.shardFor(flowID)
	s.mu.Lock()
	e, ok := s.flows[flowID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("gateway: flow %d is not active", flowID)
	}
	delete(s.flows, flowID)
	s.sumRate -= e.rate
	s.sumSq -= e.rate * e.rate
	// With churn the incremental shard sums accumulate floating-point
	// drift; renormalize from the table whenever a shard empties, and rely
	// on Tick's rotating exact recompute for shards that never drain.
	if len(s.flows) == 0 {
		s.sumRate, s.sumSq = 0, 0
		s.minDeadline = math.Inf(1)
	}
	s.departed++
	s.mu.Unlock()
	g.active.Add(-1)
	return nil
}

// departScratch is DepartBatch's pooled shard-grouping scratch: intrusive
// per-shard chains (head/tail indexed by shard, next indexed by item) so a
// batch groups by shard in one pass with no per-call allocation.
type departScratch struct {
	head, tail []int
	next       []int
}

// DepartBatch removes a batch of active flows in one call, appending one
// result per id to dst (true = departed, false = not active) and
// returning the extended slice. Semantically each id is departed exactly
// as by Depart, in order — a duplicated id departs at its first
// occurrence and reports not active at the rest — except the outcomes are
// values instead of errors: the serving layer acks every frame and must
// not abort a pipelined run on one unknown flow.
//
// The batch is the departure half of the AdmitBatch amortization story:
// ids are grouped by shard (order-preserving intrusive chains over pooled
// scratch), so a batch takes each shard's lock once instead of once per
// flow, and the active count is decremented once with the batch total
// instead of once per departure.
func (g *Gateway) DepartBatch(ids []uint64, dst []bool) []bool {
	n := len(ids)
	if n == 0 {
		return dst
	}
	base := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, false)
	}
	sc, _ := g.departPool.Get().(*departScratch)
	if sc == nil {
		sc = new(departScratch)
	}
	nshards := len(g.shards)
	if cap(sc.head) < nshards {
		sc.head = make([]int, nshards)
		sc.tail = make([]int, nshards)
	}
	head, tail := sc.head[:nshards], sc.tail[:nshards]
	for i := range head {
		head[i] = -1
	}
	if cap(sc.next) < n {
		sc.next = make([]int, n)
	}
	next := sc.next[:n]
	for i, id := range ids {
		si := int(g.shardIndex(id))
		next[i] = -1
		if head[si] < 0 {
			head[si] = i
		} else {
			next[tail[si]] = i
		}
		tail[si] = i
	}
	departed := 0
	for si, i := range head {
		if i < 0 {
			continue
		}
		s := &g.shards[si]
		s.mu.Lock()
		for ; i >= 0; i = next[i] {
			e, ok := s.flows[ids[i]]
			if !ok {
				continue
			}
			delete(s.flows, ids[i])
			s.sumRate -= e.rate
			s.sumSq -= e.rate * e.rate
			// Same drift renormalization as Depart: exact zeros whenever a
			// shard empties.
			if len(s.flows) == 0 {
				s.sumRate, s.sumSq = 0, 0
				s.minDeadline = math.Inf(1)
			}
			s.departed++
			departed++
			dst[base+i] = true
		}
		s.mu.Unlock()
	}
	g.departPool.Put(sc)
	if departed > 0 {
		g.active.Add(int64(-departed))
	}
	return dst
}

// Tick performs one measurement cycle at virtual time now: gather the
// cross-sectional aggregates from the shards, advance and update the
// estimator, re-evaluate the controller, and publish the new bound. It
// returns the resulting snapshot. now is clamped to be non-decreasing;
// concurrent Ticks serialize on the measurement mutex.
//
// A flow mid-admission (slot reserved, shard insert pending) may be
// missed by the sweep; that is ordinary measurement noise, identical to a
// flow arriving just after a tick.
//
// Each tick also renormalizes one shard (round-robin) by recomputing its
// sums exactly from the flow table, so incremental floating-point drift on
// a long-lived shard is bounded by one rotation period instead of growing
// without bound. The recompute sums rates in sorted order — map iteration
// order is randomized, and a deterministic summation order keeps equally
// seeded virtual-clock runs bit-identical.
//
// With leases enabled the tick starts with the expiry sweep: any shard
// whose cached earliest deadline has come due is scanned, expired flows
// are reclaimed (ReasonExpired) before the cross-section is gathered, and
// the shard's sums are recomputed exactly. A silent flow is therefore gone
// by the first tick at or past its deadline — within one TTL of its last
// refresh — and never pollutes (μ̂, σ̂) after expiry.
//
// A tick whose estimates come back invalid (not-OK, NaN or Inf) while at
// least two flows are active is a measurement fault, not a measurement:
// the gateway holds the last healthy bound instead of republishing
// whatever the controller derives from a poisoned input, and — with
// Config.StaleAfter armed — degrades to the configured policy after
// StaleAfter consecutive faulty ticks. One healthy tick exits degraded
// mode and republishes the controller's fresh bound.
func (g *Gateway) Tick(now float64) Stats {
	g.measMu.Lock()
	if !(now > g.lastTick) {
		now = g.lastTick
	}
	rot := g.rot
	g.rot++
	if g.rot >= len(g.shards) {
		g.rot = 0
	}
	var sumRate, sumSq float64
	var n int
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		if g.ttl > 0 && s.minDeadline <= now {
			g.sweepLocked(s, now)
		} else if i == rot {
			g.recomputeLocked(s)
		}
		sumRate += s.sumRate
		sumSq += s.sumSq
		n += len(s.flows)
		s.mu.Unlock()
	}

	g.cfg.Estimator.Advance(now)
	g.cfg.Estimator.Update(sumRate, sumSq, n)
	mu, sigma, ok := g.cfg.Estimator.Estimate()
	valid := ok && !math.IsNaN(mu) && !math.IsInf(mu, 0) &&
		!math.IsNaN(sigma) && !math.IsInf(sigma, 0)
	faulted := n >= 2 && !valid
	var m float64
	if faulted {
		g.notOK++
		m = g.raw.Load() // hold the last healthy bound
	} else {
		g.notOK = 0
		m = g.cfg.Controller.Admissible(core.Measurement{
			Capacity:      g.cfg.Capacity,
			Flows:         n,
			AggregateRate: sumRate,
			Mu:            mu,
			Sigma:         sigma,
			OK:            ok,
		})
		if math.IsNaN(m) || m < 0 {
			m = 0
		}
	}
	if g.cfg.StaleAfter > 0 {
		if g.notOK >= g.cfg.StaleAfter {
			g.setDegraded(degradedMeasurement)
		} else {
			g.clearDegraded(degradedMeasurement)
		}
		g.clearDegraded(degradedStaleTicks) // a completed tick is fresh
		g.lastTickWall.Store(g.clock())
	}
	g.raw.Set(m)
	g.bound.Set(g.effectiveBound(m))
	g.vnow.Set(now)
	g.overflow.Add(sumRate > g.cfg.Capacity)
	g.ring.Push(metrics.EstimatePoint{Time: now, Mu: mu, Sigma: sigma, OK: ok, Tm: g.tm})
	g.lastTick = now
	g.lastMu, g.lastSigma, g.lastOK = mu, sigma, ok
	g.lastAgg, g.lastFlows = sumRate, n
	g.ticks++
	if g.cfg.Tuner != nil {
		// The retune applies from the next tick's Advance on: this tick's
		// measurements were produced under the old memory, and the ring
		// point above is tagged accordingly.
		if newTm, retune := g.cfg.Tuner.ObserveTick(now, sumRate, n, mu, sigma, g.tm); retune {
			g.setMemory.SetMemory(newTm)
			g.tm = g.setMemory.Memory()
		}
	}
	st := g.statsLocked()
	g.measMu.Unlock()
	return st
}

// sweepLocked reclaims expired leases from s at virtual time now and
// refreshes the shard's cached earliest deadline; the caller holds measMu
// and s.mu. After any reclaim the shard's sums are recomputed exactly (in
// sorted order — see recomputeLocked), so expiry never leaves incremental
// drift or an order-dependent residue behind.
func (g *Gateway) sweepLocked(s *shard, now float64) {
	expired := 0
	min := math.Inf(1)
	for id, e := range s.flows {
		if e.deadline <= now {
			delete(s.flows, id)
			expired++
			continue
		}
		if e.deadline < min {
			min = e.deadline
		}
	}
	s.minDeadline = min
	if expired == 0 {
		return
	}
	s.expired += uint64(expired)
	g.active.Add(-int64(expired))
	g.recomputeLocked(s)
}

// recomputeLocked replaces s's incremental sums with exact recomputations
// from the flow table; the caller holds measMu (which owns rotScratch) and
// s.mu.
func (g *Gateway) recomputeLocked(s *shard) {
	g.rotScratch = g.rotScratch[:0]
	for _, e := range s.flows {
		g.rotScratch = append(g.rotScratch, e.rate)
	}
	sort.Float64s(g.rotScratch)
	s.sumRate, s.sumSq = estimator.FoldRates(g.rotScratch)
}

// setDegraded and clearDegraded maintain the degradation bitmask with CAS
// (several writers: ticks, Run's watchdog).
func (g *Gateway) setDegraded(bit int32) {
	for {
		old := g.degraded.Load()
		if old&bit != 0 || g.degraded.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (g *Gateway) clearDegraded(bit int32) {
	for {
		old := g.degraded.Load()
		if old&bit == 0 || g.degraded.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// effectiveBound maps the controller's bound through the degraded policy:
// healthy gateways publish raw; degraded ones publish what the policy
// allows. Freezing publishes raw too — raw itself is held during
// measurement faults, and a stalled tick leaves it untouched by nature.
func (g *Gateway) effectiveBound(raw float64) float64 {
	if g.degraded.Load() == 0 {
		return raw
	}
	switch g.cfg.Degraded {
	case DegradedPeakRate:
		peak := math.Float64frombits(g.peakBits.Load())
		if !(peak > 0) {
			return 0
		}
		return g.cfg.Capacity / peak
	case DegradedRejectAll:
		return 0
	default:
		return raw
	}
}

// Degraded reports whether the gateway is serving under its degraded
// policy, and why ("stale-ticks", "measurement", or both; empty when
// healthy).
func (g *Gateway) Degraded() (bool, string) {
	flags := g.degraded.Load()
	return flags != 0, degradedReason(flags)
}

// Stats returns a snapshot of counters and the last tick's measurements.
func (g *Gateway) Stats() Stats {
	g.measMu.Lock()
	defer g.measMu.Unlock()
	return g.statsLocked()
}

// statsLocked assembles a snapshot; the caller holds measMu. The striped
// hot-path counters are merged under the shard locks (taken after measMu,
// the gateway's lock order).
func (g *Gateway) statsLocked() Stats {
	var admitted, rejected, departed, expired uint64
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		admitted += s.admitted
		rejected += s.rejected
		departed += s.departed
		expired += s.expired
		s.mu.Unlock()
	}
	deg, reason := g.Degraded()
	return Stats{
		Active:         g.active.Load(),
		Admitted:       int64(admitted),
		Rejected:       int64(rejected),
		Departed:       int64(departed),
		Expired:        int64(expired),
		Degraded:       deg,
		DegradedReason: reason,
		Admissible:     g.Admissible(),
		Mu:             g.lastMu,
		Sigma:          g.lastSigma,
		MeasurementOK:  g.lastOK,
		AggregateRate:  g.lastAgg,
		MeasuredFlows:  g.lastFlows,
		LastTick:       g.lastTick,
		Ticks:          g.ticks,
	}
}

// Snapshot is the full observability view of a gateway: the admission
// counters, the published bound, the last measurement, the windowed
// overflow estimate with its Wilson interval, the admission latency
// histogram, and the recent (μ̂, σ̂) trajectory. It is JSON-encodable (the
// expvar/HTTP payload) and convertible to Prometheus text via
// WritePrometheus. DESIGN.md maps each field to its paper quantity.
type Snapshot struct {
	Time           float64                   `json:"time"`            // virtual time of the last tick
	Capacity       float64                   `json:"capacity"`        // link capacity c
	Active         int64                     `json:"active"`          // flows currently admitted
	Admitted       int64                     `json:"admitted"`        // cumulative admissions
	Rejected       int64                     `json:"rejected"`        // cumulative capacity rejections
	Departed       int64                     `json:"departed"`        // cumulative departures
	Expired        int64                     `json:"expired"`         // cumulative lease-sweep reclaims
	Ticks          int64                     `json:"ticks"`           // measurement ticks performed
	Bound          float64                   `json:"bound"`           // published admissible count M (eq. 42, post-policy)
	BoundRaw       float64                   `json:"bound_raw"`       // the controller's last healthy bound, pre-degradation
	Degraded       bool                      `json:"degraded"`        // serving under the degraded policy
	DegradedReason string                    `json:"degraded_reason"` // "", "stale-ticks", "measurement", or both
	Mu             float64                   `json:"mu"`              // μ̂ at the last tick (eq. 6)
	Sigma          float64                   `json:"sigma"`           // σ̂ at the last tick (eq. 6)
	MeasurementOK  bool                      `json:"measurement_ok"`  // estimator warmed up
	AggregateRate  float64                   `json:"aggregate_rate"`  // ΣX_i at the last tick (eq. 7)
	MeasuredFlows  int                       `json:"measured_flows"`  // flows seen by the last tick
	Tm             float64                   `json:"tm"`              // estimator filter memory (Section 4.3)
	Overflow       stats.WindowedEstimate    `json:"overflow"`        // windowed p_f with Wilson CI
	AdmitLatency   metrics.HistogramSnapshot `json:"admit_latency"`   // seconds
	Estimates      []metrics.EstimatePoint   `json:"estimates"`       // recent (μ̂, σ̂) ring, oldest first
}

// Snapshot assembles the observability snapshot. The tick-path state is
// read under the measurement mutex; the striped hot-path counters and
// latency histograms are then merged shard by shard, so they may run a few
// operations ahead of the tick state — the standard weakly-consistent
// metrics contract.
func (g *Gateway) Snapshot() Snapshot {
	g.measMu.Lock()
	snap := Snapshot{
		Time:          g.lastTick,
		Capacity:      g.cfg.Capacity,
		Ticks:         g.ticks,
		Mu:            g.lastMu,
		Sigma:         g.lastSigma,
		MeasurementOK: g.lastOK,
		AggregateRate: g.lastAgg,
		MeasuredFlows: g.lastFlows,
		Tm:            g.tm,
		Overflow:      g.overflow.Estimate(0),
	}
	g.measMu.Unlock()
	var admitted, rejected, departed, expired uint64
	lat := g.shards[0].lat.EmptySnapshot()
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		admitted += s.admitted
		rejected += s.rejected
		departed += s.departed
		expired += s.expired
		s.lat.AddTo(&lat)
		s.mu.Unlock()
	}
	snap.Active = g.active.Load()
	snap.Admitted = int64(admitted)
	snap.Rejected = int64(rejected)
	snap.Departed = int64(departed)
	snap.Expired = int64(expired)
	snap.Bound = g.Admissible()
	snap.BoundRaw = g.raw.Load()
	snap.Degraded, snap.DegradedReason = g.Degraded()
	snap.AdmitLatency = lat
	snap.Estimates = g.ring.Snapshot()
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the mbac_gateway_* namespace.
func (s Snapshot) WritePrometheus(w io.Writer) {
	metrics.WriteGauge(w, "mbac_gateway_capacity", "link capacity c", s.Capacity)
	metrics.WriteGauge(w, "mbac_gateway_active_flows", "flows currently admitted", float64(s.Active))
	metrics.WriteCounter(w, "mbac_gateway_admitted_total", "cumulative admitted flows", s.Admitted)
	metrics.WriteCounter(w, "mbac_gateway_rejected_total", "cumulative capacity rejections", s.Rejected)
	metrics.WriteCounter(w, "mbac_gateway_departed_total", "cumulative departed flows", s.Departed)
	metrics.WriteCounter(w, "mbac_gateway_expired_total", "cumulative lease-expired flows", s.Expired)
	metrics.WriteCounter(w, "mbac_gateway_ticks_total", "measurement ticks performed", s.Ticks)
	metrics.WriteGauge(w, "mbac_gateway_bound", "published admissible flow count M (eq. 42, post-policy)", s.Bound)
	metrics.WriteGauge(w, "mbac_gateway_bound_raw", "controller's last healthy bound, pre-degradation", s.BoundRaw)
	deg := 0.0
	if s.Degraded {
		deg = 1
	}
	metrics.WriteGauge(w, "mbac_gateway_degraded", "1 while serving under the degraded policy", deg)
	metrics.WriteGauge(w, "mbac_gateway_mu", "estimated per-flow mean rate (eq. 6)", s.Mu)
	metrics.WriteGauge(w, "mbac_gateway_sigma", "estimated per-flow rate stddev (eq. 6)", s.Sigma)
	ok := 0.0
	if s.MeasurementOK {
		ok = 1
	}
	metrics.WriteGauge(w, "mbac_gateway_measurement_ok", "1 when the estimator has warmed up", ok)
	metrics.WriteGauge(w, "mbac_gateway_aggregate_rate", "measured aggregate rate (eq. 7)", s.AggregateRate)
	metrics.WriteGauge(w, "mbac_gateway_estimator_memory", "estimator filter memory T_m (Section 4.3)", s.Tm)
	metrics.WriteGauge(w, "mbac_gateway_overflow_window_p", "windowed overflow probability p_f", s.Overflow.P)
	metrics.WriteGauge(w, "mbac_gateway_overflow_window_lo", "Wilson lower bound of windowed p_f", s.Overflow.Lo)
	metrics.WriteGauge(w, "mbac_gateway_overflow_window_hi", "Wilson upper bound of windowed p_f", s.Overflow.Hi)
	metrics.WriteCounter(w, "mbac_gateway_overflow_window_hits", "overflow ticks inside the window", s.Overflow.Hits)
	metrics.WriteCounter(w, "mbac_gateway_overflow_window_samples", "ticks inside the window", s.Overflow.N)
	metrics.WriteHistogram(w, "mbac_gateway_admit_latency_seconds", "admission decision latency", s.AdmitLatency)
}

// Run ticks the gateway on the configured wall-clock interval until ctx is
// done, mapping wall time to the estimator's virtual time in seconds since
// Run started. It blocks; run it in its own goroutine.
//
// With Config.StaleAfter armed, Run also starts the tick-staleness
// watchdog: a side goroutine that compares the latency clock against the
// last completed tick and flips the gateway into its degraded policy when
// the bound has gone StaleAfter tick intervals without refresh — the
// failure mode where the measurement loop itself is wedged (an estimator
// stall holds the measurement mutex mid-Tick) and nothing else would
// notice. The watchdog is deliberately lock-free so it keeps working while
// Tick is stuck.
func (g *Gateway) Run(ctx context.Context) {
	ticker := time.NewTicker(g.cfg.TickInterval)
	defer ticker.Stop()
	start := time.Now()
	if g.cfg.StaleAfter > 0 {
		g.lastTickWall.Store(g.clock())
		wctx, cancel := context.WithCancel(ctx)
		defer cancel()
		go g.watchdog(wctx)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.Tick(time.Since(start).Seconds())
		}
	}
}

// watchdog polls checkStale every tick interval until ctx is done.
func (g *Gateway) watchdog(ctx context.Context) {
	ticker := time.NewTicker(g.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			g.checkStale()
		}
	}
}

// checkStale degrades the gateway if no measurement tick has completed for
// more than StaleAfter tick intervals of latency-clock time, republishing
// the bound through the degraded policy, and reports whether the gateway
// is (now) stale. It takes no locks — it must work while Tick is wedged —
// and the flag is cleared by the next completed tick.
func (g *Gateway) checkStale() bool {
	if g.cfg.StaleAfter == 0 {
		return false
	}
	stale := int64(g.cfg.StaleAfter) * int64(g.cfg.TickInterval)
	if g.clock()-g.lastTickWall.Load() <= stale {
		return false
	}
	g.setDegraded(degradedStaleTicks)
	g.bound.Set(g.effectiveBound(g.raw.Load()))
	return true
}
