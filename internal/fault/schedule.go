package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Window schedules one estimator fault over a half-open virtual-time
// interval [From, To).
type Window struct {
	Mode Mode
	From float64
	To   float64
}

// ParseWindows parses a fault schedule of the form
// "mode:from-to[,mode:from-to...]", e.g. "nan:10-12,drop:30-35". Windows
// may not overlap; they are returned sorted by From.
func ParseWindows(s string) ([]Window, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ws []Window
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		mode, span, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fault: window %q: want mode:from-to", part)
		}
		m, err := ParseMode(mode)
		if err != nil {
			return nil, err
		}
		fromS, toS, ok := strings.Cut(span, "-")
		if !ok {
			return nil, fmt.Errorf("fault: window %q: want mode:from-to", part)
		}
		from, err := strconv.ParseFloat(fromS, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: window %q: %v", part, err)
		}
		to, err := strconv.ParseFloat(toS, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: window %q: %v", part, err)
		}
		if math.IsNaN(from) || math.IsNaN(to) || !(to > from) {
			return nil, fmt.Errorf("fault: window %q: empty interval [%g, %g)", part, from, to)
		}
		ws = append(ws, Window{Mode: m, From: from, To: to})
	}
	if err := ValidateWindows(ws); err != nil {
		return nil, err
	}
	return ws, nil
}

// ValidateWindows sorts ws by From in place and checks that every window
// is a well-formed non-empty interval with a known mode and that no two
// windows overlap — the invariant ModeAt relies on. It is the validation
// half of ParseWindows, exposed for callers that build schedules
// structurally (scenario configs) rather than from the CLI syntax.
func ValidateWindows(ws []Window) error {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].From < ws[j-1].From; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	for i, w := range ws {
		if !modeNames.Valid(w.Mode) {
			return fmt.Errorf("fault: window %d has unknown mode %d", i, int32(w.Mode))
		}
		if math.IsNaN(w.From) || math.IsNaN(w.To) || math.IsInf(w.From, 0) || math.IsInf(w.To, 0) || !(w.To > w.From) {
			return fmt.Errorf("fault: window %d: empty interval [%g, %g)", i, w.From, w.To)
		}
		if i > 0 && w.From < ws[i-1].To {
			return fmt.Errorf("fault: windows [%g, %g) and [%g, %g) overlap",
				ws[i-1].From, ws[i-1].To, w.From, w.To)
		}
	}
	return nil
}

// ModeAt returns the fault scheduled at virtual time t (None when no
// window covers it). ws must be non-overlapping, as ParseWindows returns.
func ModeAt(ws []Window, t float64) Mode {
	for _, w := range ws {
		if t >= w.From && t < w.To {
			return w.Mode
		}
	}
	return None
}

// ClientPlan describes a misbehaving client population for replay
// drivers: clients that leak admission slots by never departing (the
// lease sweep's reason to exist) and clients that lie about their rate at
// admission time (Qadir et al.'s unreliable declarations).
type ClientPlan struct {
	// LeakP is the probability that a departing flow silently vanishes
	// instead of calling Depart, leaving its slot to the lease sweep.
	LeakP float64
	// Lie multiplies the declared rate relative to the flow's actual rate
	// (1 = honest, 0.5 = clients understate demand by half). The actual
	// rate still reaches the gateway through UpdateRate, as measured rates
	// do.
	Lie float64
}

// Validate checks the plan's parameters.
func (p ClientPlan) Validate() error {
	if math.IsNaN(p.LeakP) || p.LeakP < 0 || p.LeakP > 1 {
		return fmt.Errorf("fault: leak probability %g must be in [0, 1]", p.LeakP)
	}
	if math.IsNaN(p.Lie) || math.IsInf(p.Lie, 0) || p.Lie <= 0 {
		return fmt.Errorf("fault: lie factor %g must be positive and finite", p.Lie)
	}
	return nil
}

// Declared maps a flow's actual rate to what the client declares.
func (p ClientPlan) Declared(actual float64) float64 {
	if p.Lie == 0 {
		return actual
	}
	return actual * p.Lie
}

// Leaks reports whether a departure with uniform draw u in [0, 1) leaks
// its slot instead of departing.
func (p ClientPlan) Leaks(u float64) bool { return u < p.LeakP }
