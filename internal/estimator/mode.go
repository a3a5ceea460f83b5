package estimator

import (
	"fmt"

	"repro/internal/enum"
)

// Mode names the estimator families a gateway can be configured with — the
// vocabulary shared by the -estimator CLI flag, scenario configs, and
// reports. It exists alongside the Estimator interface because the seams
// that *construct* estimators (cmd/gateway, the scenario engine, cluster
// instance specs) need a validated, serializable selector before any
// workload statistics are known.
type Mode int

const (
	// ModeMemoryless: the instantaneous cross-section (eq. 7/23).
	ModeMemoryless Mode = iota
	// ModeExponential: the exponentially-weighted filter with memory T_m
	// (Section 4.3).
	ModeExponential
	// ModeWindow: the sliding boxcar window, the filter-ablation
	// alternative to ModeExponential.
	ModeWindow
	// ModeAggregate: the aggregate-only estimator (Section 7), which
	// needs no per-flow rate telemetry at all.
	ModeAggregate
	// ModeOracle: the perfect-knowledge baseline.
	ModeOracle
	modeEnd
)

var modeNames = enum.New(map[Mode]string{
	ModeMemoryless:  "memoryless",
	ModeExponential: "exponential",
	ModeWindow:      "window",
	ModeAggregate:   "aggregate",
	ModeOracle:      "oracle",
}, modeEnd)

// String implements fmt.Stringer.
func (m Mode) String() string { return modeNames.String(m) }

// ParseMode is the inverse of Mode.String, for CLI flags and scenario
// configs.
func ParseMode(s string) (Mode, error) { return modeNames.Parse(s) }

// ModeNames lists the valid names, as "memoryless, ... or oracle", for
// callers that word their own unknown-estimator error.
func ModeNames() string { return modeNames.Want() }

// New builds the estimator m names — the one constructor behind the
// -estimator flag and scenario configs. memory is T_m (exponential,
// aggregate) or W (window), already validated by the caller against m.
// The aggregate estimator's variance memory T_v is memory, or eight
// measurement periods (8·tick) when memory is 0: long enough to see
// fluctuation across ticks, short enough to track load shifts. mu and
// sigma are the declared per-flow statistics the oracle reports.
func New(m Mode, memory, tick, mu, sigma float64) Estimator {
	switch m {
	case ModeMemoryless:
		return NewMemoryless()
	case ModeExponential:
		return NewExponential(memory)
	case ModeWindow:
		return NewWindow(memory)
	case ModeAggregate:
		tv := memory
		if tv <= 0 {
			tv = 8 * tick
		}
		return NewAggregateOnly(memory, tv)
	case ModeOracle:
		return &Oracle{Mu: mu, Sigma: sigma}
	}
	panic(fmt.Sprintf("estimator: New: unknown mode %v", m))
}
