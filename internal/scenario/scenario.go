// Package scenario is the declarative experiment engine: a Config (a Go
// struct, JSON on disk) names a workload, a target substrate, the seeds,
// the controlled and varied variables, and a typed hypothesis; Run
// executes the seed x arm matrix deterministically on the shared worker
// pool, grades the outcome through the qos/stats layers, and returns a
// Result that renders as a FINDINGS-style markdown report plus a
// machine-readable JSON verdict.
//
// The point of the typed hypothesis is that a scenario cannot end in a
// shrug: every run grades to Confirmed, Refuted, or Inconclusive under
// rules fixed by the config, so the built-in scenario suite under
// scenarios/ doubles as an executable restatement of the paper's claims
// (the sqrt2 law of Prop 3.3, certainty equivalence vs peak-rate
// provisioning, robustness of the serving layer under faults).
package scenario

import "repro/internal/enum"

// Verdict is the outcome of grading one scenario.
type Verdict int

const (
	// Inconclusive: the data cannot grade the hypothesis (too few window
	// samples, or a dominance comparison where both arms are zero).
	Inconclusive Verdict = iota
	// Confirmed: the hypothesis held for every seed of the matrix.
	Confirmed
	// Refuted: at least one seed contradicted the hypothesis.
	Refuted
	verdictEnd
)

var verdictNames = enum.New(map[Verdict]string{
	Inconclusive: "Inconclusive",
	Confirmed:    "Confirmed",
	Refuted:      "Refuted",
}, verdictEnd)

// String implements fmt.Stringer.
func (v Verdict) String() string { return verdictNames.String(v) }

// MarshalJSON encodes the verdict as its string form.
func (v Verdict) MarshalJSON() ([]byte, error) { return verdictNames.Marshal(v) }

// UnmarshalJSON decodes the string form.
func (v *Verdict) UnmarshalJSON(b []byte) error { return verdictNames.Unmarshal(b, v) }

// HypothesisKind selects the grading rule a scenario's hypothesis uses.
type HypothesisKind int

const (
	// HypDominance compares one scalar metric between two named arms,
	// seed by seed: arm A must relate to arm B (greater/less) with at
	// least the configured effect-size ratio on every seed.
	HypDominance HypothesisKind = iota
	// HypInterval grades each cell's windowed overflow estimate against a
	// reference level (the sqrt2-law prediction, the target p_q, or an
	// explicit value): the Wilson interval must cover it, sit at or below
	// it, or sit at or above it.
	HypInterval
	// HypInvariant asserts structural predicates (flow-lifecycle
	// conservation, lease expiries observed, substrate identity) over
	// every cell of the matrix.
	HypInvariant
	hypothesisKindEnd
)

var hypothesisKindNames = enum.New(map[HypothesisKind]string{
	HypDominance: "dominance",
	HypInterval:  "interval",
	HypInvariant: "invariant",
}, hypothesisKindEnd)

// String implements fmt.Stringer.
func (k HypothesisKind) String() string { return hypothesisKindNames.String(k) }

// MarshalJSON encodes the kind as its string form.
func (k HypothesisKind) MarshalJSON() ([]byte, error) { return hypothesisKindNames.Marshal(k) }

// UnmarshalJSON decodes the string form.
func (k *HypothesisKind) UnmarshalJSON(b []byte) error {
	return hypothesisKindNames.Unmarshal(b, k)
}

// InvariantKind names one structural predicate an invariant hypothesis
// asserts over every cell.
type InvariantKind int

const (
	// InvLifecycle: Admitted = Departed + Expired + Active held at the end
	// of the (drained) run — gateway.Stats.LifecycleBalanced.
	InvLifecycle InvariantKind = iota
	// InvExpiredFlows: the lease sweep actually fired (Expired > 0) — the
	// check that a leaky-client scenario exercised reclamation rather than
	// passing vacuously.
	InvExpiredFlows
	// InvRejectedFlows: the controller actually refused work (Rejected >
	// 0) — guards against operating points too loose to mean anything.
	InvRejectedFlows
	// InvSubstrateIdentity: the network run produced decision counts and a
	// final gateway state identical to an in-process twin replaying the
	// same schedule. Only valid with the network target.
	InvSubstrateIdentity
	// InvMigratedFlows: the drain actually moved flows between instances
	// (Migrations > 0) — the check that a drain/failover scenario
	// exercised migration rather than passing vacuously. Only valid with
	// a cluster topology.
	InvMigratedFlows
	invariantKindEnd
)

var invariantKindNames = enum.New(map[InvariantKind]string{
	InvLifecycle:         "lifecycle",
	InvExpiredFlows:      "expired-flows",
	InvRejectedFlows:     "rejected-flows",
	InvSubstrateIdentity: "substrate-identity",
	InvMigratedFlows:     "migrated-flows",
}, invariantKindEnd)

// String implements fmt.Stringer.
func (k InvariantKind) String() string { return invariantKindNames.String(k) }

// MarshalJSON encodes the kind as its string form.
func (k InvariantKind) MarshalJSON() ([]byte, error) { return invariantKindNames.Marshal(k) }

// UnmarshalJSON decodes the string form.
func (k *InvariantKind) UnmarshalJSON(b []byte) error { return invariantKindNames.Unmarshal(b, k) }

// Metric names one per-cell scalar a dominance hypothesis can compare.
type Metric int

const (
	// MetricAdmitted: cumulative admissions.
	MetricAdmitted Metric = iota
	// MetricRejected: cumulative capacity rejections.
	MetricRejected
	// MetricExpired: cumulative lease-sweep reclaims.
	MetricExpired
	// MetricStormAdmitted: admissions granted while the gateway served
	// under its degraded policy.
	MetricStormAdmitted
	// MetricDegradedTicks: measurement ticks served degraded.
	MetricDegradedTicks
	// MetricUtilization: mean measured aggregate rate over capacity.
	MetricUtilization
	// MetricServedP50: median served seconds per decision (network target
	// only; 0 in-process).
	MetricServedP50
	// MetricServedP99: 99th-percentile served seconds per decision
	// (network target only; 0 in-process).
	MetricServedP99
	metricEnd
)

var metricNames = enum.New(map[Metric]string{
	MetricAdmitted:      "admitted",
	MetricRejected:      "rejected",
	MetricExpired:       "expired",
	MetricStormAdmitted: "storm-admitted",
	MetricDegradedTicks: "degraded-ticks",
	MetricUtilization:   "utilization",
	MetricServedP50:     "served-p50",
	MetricServedP99:     "served-p99",
}, metricEnd)

// String implements fmt.Stringer.
func (m Metric) String() string { return metricNames.String(m) }

// MarshalJSON encodes the metric as its string form.
func (m Metric) MarshalJSON() ([]byte, error) { return metricNames.Marshal(m) }

// UnmarshalJSON decodes the string form.
func (m *Metric) UnmarshalJSON(b []byte) error { return metricNames.Unmarshal(b, m) }

// Relation is the direction of a dominance comparison.
type Relation int

const (
	// RelGreater: arm A's metric must strictly exceed arm B's.
	RelGreater Relation = iota
	// RelLess: arm A's metric must be strictly below arm B's.
	RelLess
	relationEnd
)

var relationNames = enum.New(map[Relation]string{
	RelGreater: "greater",
	RelLess:    "less",
}, relationEnd)

// String implements fmt.Stringer.
func (r Relation) String() string { return relationNames.String(r) }

// MarshalJSON encodes the relation as its string form.
func (r Relation) MarshalJSON() ([]byte, error) { return relationNames.Marshal(r) }

// UnmarshalJSON decodes the string form.
func (r *Relation) UnmarshalJSON(b []byte) error { return relationNames.Unmarshal(b, r) }

// IntervalMode selects how an interval hypothesis grades the Wilson
// interval against its reference level.
type IntervalMode int

const (
	// IntervalCovers: the interval must contain the reference (the
	// prediction is consistent with the measurement).
	IntervalCovers IntervalMode = iota
	// IntervalAtMost: the interval's lower bound must not exceed the
	// reference (the measurement is not significantly above it).
	IntervalAtMost
	// IntervalAtLeast: the interval's upper bound must not fall below the
	// reference (the measurement is not significantly below it).
	IntervalAtLeast
	intervalModeEnd
)

var intervalModeNames = enum.New(map[IntervalMode]string{
	IntervalCovers:  "covers",
	IntervalAtMost:  "at-most",
	IntervalAtLeast: "at-least",
}, intervalModeEnd)

// String implements fmt.Stringer.
func (m IntervalMode) String() string { return intervalModeNames.String(m) }

// MarshalJSON encodes the mode as its string form.
func (m IntervalMode) MarshalJSON() ([]byte, error) { return intervalModeNames.Marshal(m) }

// UnmarshalJSON decodes the string form.
func (m *IntervalMode) UnmarshalJSON(b []byte) error { return intervalModeNames.Unmarshal(b, m) }
