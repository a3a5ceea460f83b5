package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the benchmark records; spans carry
// nanoseconds since it.
var epoch = time.Now()

// nowNs returns monotonic nanoseconds since epoch.
func nowNs() int64 { return int64(time.Since(epoch)) }

// probe counts every call of one layer operation and times a sampled
// 1-in-every of them. Timing every call would distort the layer it
// measures: a clock pair costs about as much as a source redraw. Per-call
// times are reported as medians of the timed calls, net of the clock's own
// cost: on a shared virtual machine a timed call now and then spans a
// multi-millisecond vCPU stall, which would own a mean.
type probe struct {
	every int64
	calls atomic.Int64
	timed atomic.Int64
	name  string
	log   *spanLog // nil: record no spans

	mu      sync.Mutex
	samples []float64 // ns per unit of the first maxSamples timed calls
	units   int64     // summed units of the timed calls
}

const (
	maxSamples = 1 << 16
	spanEvery  = 16 // one span per this many timed calls
)

func newProbe(name string, every int64, log *spanLog) *probe {
	if every < 1 {
		every = 1
	}
	return &probe{name: name, every: every, log: log}
}

// begin counts a call and returns its start time when the call is
// sampled for timing, or -1.
func (p *probe) begin() int64 {
	if p.calls.Add(1)%p.every != 0 {
		return -1
	}
	return nowNs()
}

// end closes a call begin sampled; units is the work the call did.
func (p *probe) end(t0 int64, units int, parent int64) {
	if t0 < 0 {
		return
	}
	t1 := nowNs()
	n := p.timed.Add(1)
	if units < 1 {
		units = 1
	}
	p.mu.Lock()
	p.units += int64(units)
	if len(p.samples) < maxSamples {
		p.samples = append(p.samples, math.Max(0, float64(t1-t0)-clockCost)/float64(units))
	}
	p.mu.Unlock()
	if p.log != nil && n%spanEvery == 0 {
		p.log.add(span{Name: p.name, Start: t0, End: t1, Parent: parent})
	}
}

// nsPerUnit is the median timed duration per unit of work.
func (p *probe) nsPerUnit() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return medianF(p.samples)
}

// unitsPerCall is the mean work of a timed call.
func (p *probe) unitsPerCall() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.samples) == 0 {
		return 0
	}
	return float64(p.units) / float64(p.timed.Load())
}

// totalNs extrapolates the median per-unit time to every call.
func (p *probe) totalNs() float64 {
	return p.nsPerUnit() * p.unitsPerCall() * float64(p.calls.Load())
}

// addInto folds p's counts and samples into dst (per-engine probes merge
// into one ledger after the engines finish).
func (p *probe) addInto(dst *probe) {
	dst.calls.Add(p.calls.Load())
	dst.timed.Add(p.timed.Load())
	p.mu.Lock()
	defer p.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	dst.units += p.units
	room := maxSamples - len(dst.samples)
	if room > len(p.samples) {
		room = len(p.samples)
	}
	dst.samples = append(dst.samples, p.samples[:room]...)
}

// clockCost is the median cost of an empty timed region, subtracted
// from every timed call.
var clockCost = func() float64 {
	xs := make([]float64, 4096)
	for i := range xs {
		t0 := nowNs()
		xs[i] = float64(nowNs() - t0)
	}
	return medianF(xs)
}()

// span is one traced interval at a layer boundary. Spans of one served
// request share Req; a gateway batch span lists the flows it decided.
type span struct {
	ID     int64    `json:"id"`
	Parent int64    `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Req    uint64   `json:"req,omitempty"`
	Flows  []uint64 `json:"flows,omitempty"`
}

// spanLog keeps spans in memory, up to a cap, until the run writes them.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	max     int
	dropped int64
	nextID  atomic.Int64
}

func newSpanLog(max int) *spanLog { return &spanLog{max: max} }

// id reserves a span id, for parents opened before their children.
func (l *spanLog) id() int64 { return l.nextID.Add(1) }

// add records a sampled span, or counts it as dropped once the log is
// full.
func (l *spanLog) add(s span) { l.put(s, false) }

// addAlways records a structural span (a cell, an ensemble, a
// replication) even past the cap, so sampled spans always have parents.
func (l *spanLog) addAlways(s span) { l.put(s, true) }

func (l *spanLog) put(s span, always bool) {
	if l == nil {
		return
	}
	if s.ID == 0 {
		s.ID = l.id()
	}
	l.mu.Lock()
	if always || len(l.spans) < l.max {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores the spans as JSON lines, ordered by start time.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
