// Columnar (struct-of-arrays) flow state. The ensemble engines advance
// thousands of independent flows per replication; with one Source object per
// flow every segment draw pays an interface dispatch and every flow is a
// separate heap object. Laying the flow state out in parallel columns lets a
// model initialize and advance a whole batch of flows in one call, with each
// flow's draws coming from its own RNG substream.
//
// Contract: InitColumn is draw-identical to Model.New followed by the first
// Source.Next — it consumes exactly those draws from each flow's substream
// and produces the same (rate, segment-end) values. AdvanceColumn is
// draw-identical to the scalar Next walk for models without ExpSegments
// (constant, on/off), and equal in law for ExpSegments models (RCBR, also as
// a mixture component), whose kernel samples each flow's state at the probe
// directly instead of walking the segments in between. The tests in
// columns_test.go pin both forms per model, and the engine-level
// differential in internal/sim pins them end to end.
package traffic

import (
	"math"

	"repro/internal/rng"
)

// Columns is the struct-of-arrays state of a batch of flows drawn from one
// model. All slices are parallel, indexed by flow slot. Rate and End mirror
// a scalar source's current Segment (End is the segment's absolute end time
// for a flow started at time zero); State and Aux are model-private words
// (on/off phase, mixture component); Str holds each flow's RNG substream
// in place so deriving a flow performs no allocation.
type Columns struct {
	Rate  []float64
	End   []float64
	State []uint32
	Aux   []uint32
	Str   []rng.PCG
}

// Grow extends the columns to at least n slots, preserving existing
// contents. Newly exposed slots hold stale garbage; callers must initialize
// them (SplitInto + InitColumn) before use.
func (c *Columns) Grow(n int) {
	c.Rate = growCol(c.Rate, n)
	c.End = growCol(c.End, n)
	c.State = growCol(c.State, n)
	c.Aux = growCol(c.Aux, n)
	c.Str = growCol(c.Str, n)
}

// Swap exchanges flow slots i and j across every column.
func (c *Columns) Swap(i, j int) {
	c.Rate[i], c.Rate[j] = c.Rate[j], c.Rate[i]
	c.End[i], c.End[j] = c.End[j], c.End[i]
	c.State[i], c.State[j] = c.State[j], c.State[i]
	c.Aux[i], c.Aux[j] = c.Aux[j], c.Aux[i]
	c.Str[i], c.Str[j] = c.Str[j], c.Str[i]
}

func growCol[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]T, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// ColumnModel is an optional Model capability: a model that can initialize
// and advance flows directly in Columns, with no per-flow Source object.
//
// Draws always come from the flow's own c.Str slot, never from a shared
// stream, so flows may be processed in any order.
type ColumnModel interface {
	Model
	// InitColumn performs the construction-time draws and the first-segment
	// draw for flows [lo, hi): afterwards Rate[i] and End[i] describe flow
	// i's first segment (End relative to a start at time zero) and any
	// model state is recorded in State[i]/Aux[i]. It consumes, per flow,
	// exactly the substream draws Model.New and one Source.Next would, and
	// leaves the same values.
	InitColumn(c *Columns, lo, hi int)
	// AdvanceColumn brings every flow i in [0, n) with End[i] <= t to a
	// segment covering t (End[i] > t), leaving flows with End[i] > t
	// untouched. For a flow whose model (a mixture's component, for a
	// mixture) declares ExpSegments the result is equal in law to the
	// scalar loop `for segEnd <= t { seg := src.Next(); ... }`; otherwise
	// it is that loop, draw for draw.
	AdvanceColumn(c *Columns, n int, t float64)
}

// ColumnModelOf reports whether m supports the columnar path, returning the
// capability when it does. It exists because a composite model can only run
// columnar when its parts do: a Mixture qualifies iff every component is
// itself columnar and not a nested mixture (components borrow the State
// word, mixtures own Aux, so one level of nesting is the limit).
func ColumnModelOf(m Model) (ColumnModel, bool) {
	cm, ok := m.(ColumnModel)
	if !ok {
		return nil, false
	}
	if mx, isMix := m.(*Mixture); isMix {
		for _, comp := range mx.Models {
			if _, nested := comp.(*Mixture); nested {
				return nil, false
			}
			if _, ok := ColumnModelOf(comp); !ok {
				return nil, false
			}
		}
	}
	return cm, true
}

// ---------------------------------------------------------------------------
// RCBR columnar kernel.

// InitColumn implements ColumnModel: per flow, the same (truncated-normal
// rate, exponential duration) pair New+Next would draw.
func (m RCBR) InitColumn(c *Columns, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Rate[i], c.End[i] = c.Str[i].SegmentSample(m.Mean, m.Sigma, 0, m.CorrTime)
	}
}

// AdvanceColumn implements ColumnModel by sampling each expired flow's
// state at t directly: one (rate, duration) pair, with the segment taken
// to start at t. This is exact in law (ExpSegments): the renegotiation
// epochs form a Poisson process, so a flow whose segment ended at or
// before t carries at t a fresh draw from the rate marginal, independent
// of its past, and its residual time to the next epoch is Exp(CorrTime)
// by memorylessness. The scalar Next walk draws every segment in between
// and reaches the same law along a different stream, so this path is not
// draw-identical to it.
func (m RCBR) AdvanceColumn(c *Columns, n int, t float64) {
	str, rate, end := c.Str[:n], c.Rate[:n], c.End[:n]
	for i := range end {
		if end[i] > t {
			continue
		}
		x, d := str[i].SegmentSample(m.Mean, m.Sigma, 0, m.CorrTime)
		rate[i], end[i] = x, t+d
	}
}

// ---------------------------------------------------------------------------
// On-off columnar path.

const onOffOn = 1 // State bit 0: the state the NEXT segment will emit in

// InitColumn implements ColumnModel: the stationary initial-state draw New
// performs, then the first segment.
func (m OnOff) InitColumn(c *Columns, lo, hi int) {
	pOn := m.OnTime / (m.OnTime + m.OffTime)
	for i := lo; i < hi; i++ {
		r := &c.Str[i]
		on := r.Float64() < pOn
		var rate, d float64
		if on {
			rate, d = m.PeakRate, r.Exp(m.OnTime)
		} else {
			rate, d = 0, r.Exp(m.OffTime)
		}
		state := uint32(0)
		if !on { // toggled: next segment is the opposite phase
			state = onOffOn
		}
		c.Rate[i], c.End[i], c.State[i] = rate, d, state
	}
}

// AdvanceColumn implements ColumnModel. Segments are cheap here (one
// exponential each, no rate draw), so a simple per-flow loop suffices.
func (m OnOff) AdvanceColumn(c *Columns, n int, t float64) {
	for i := 0; i < n; i++ {
		e := c.End[i]
		if e > t {
			continue
		}
		r := &c.Str[i]
		on := c.State[i]&onOffOn != 0
		var rate float64
		for {
			var d float64
			if on {
				rate, d = m.PeakRate, r.Exp(m.OnTime)
			} else {
				rate, d = 0, r.Exp(m.OffTime)
			}
			on = !on
			e += d
			if e > t {
				break
			}
		}
		state := uint32(0)
		if on {
			state = onOffOn
		}
		c.Rate[i], c.End[i], c.State[i] = rate, e, state
	}
}

// ---------------------------------------------------------------------------
// Constant columnar path.

// InitColumn implements ColumnModel. No draws are consumed, matching New.
func (m Constant) InitColumn(c *Columns, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Rate[i], c.End[i] = m.Rate, math.MaxFloat64/4
	}
}

// AdvanceColumn implements ColumnModel. Reachable only for absurd probe
// times, but kept exact: the scalar source re-issues MaxFloat64/4 chunks.
func (m Constant) AdvanceColumn(c *Columns, n int, t float64) {
	for i := 0; i < n; i++ {
		for c.End[i] <= t {
			c.Rate[i] = m.Rate
			c.End[i] += math.MaxFloat64 / 4
		}
	}
}

// ---------------------------------------------------------------------------
// Mixture columnar path: per-flow delegation to the chosen component.

// InitColumn implements ColumnModel: the component pick consumes one
// uniform from the flow's substream — exactly Mixture.New — and the pick is
// recorded in Aux so later advances route to the same component. The
// component then initializes the flow through a one-slot view of the
// columns; it may use State freely (Aux belongs to the mixture).
// ColumnModelOf gates this path to mixtures of non-mixture ColumnModels.
func (m *Mixture) InitColumn(c *Columns, lo, hi int) {
	for i := lo; i < hi; i++ {
		u := c.Str[i].Float64()
		k := len(m.Weights) - 1
		var cum float64
		for j, w := range m.Weights {
			cum += w
			if u < cum {
				k = j
				break
			}
		}
		c.Aux[i] = uint32(k)
		view := c.view(i)
		m.Models[k].(ColumnModel).InitColumn(&view, 0, 1)
	}
}

// AdvanceColumn implements ColumnModel: each expired flow advances through
// its component's kernel, so RCBR components skip ahead in law and the
// others replay their Next walk.
func (m *Mixture) AdvanceColumn(c *Columns, n int, t float64) {
	for i := 0; i < n; i++ {
		if c.End[i] > t {
			continue
		}
		view := c.view(i)
		m.Models[c.Aux[i]].(ColumnModel).AdvanceColumn(&view, 1, t)
	}
}

// view is a one-flow window onto slot i, through which a mixture component
// operates on exactly that flow. Aux is withheld: it carries the mixture's
// own component index.
func (c *Columns) view(i int) Columns {
	return Columns{
		Rate:  c.Rate[i : i+1 : i+1],
		End:   c.End[i : i+1 : i+1],
		State: c.State[i : i+1 : i+1],
		Aux:   nil,
		Str:   c.Str[i : i+1 : i+1],
	}
}
