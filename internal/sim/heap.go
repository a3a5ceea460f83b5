package sim

// event is one scheduled state change. Events referencing a flow carry the
// flow's slot index and the slot's epoch at scheduling time; if the slot
// has been recycled (epoch mismatch) the event is stale and dropped. This
// avoids deleting heap entries when flows depart with renegotiations still
// queued.
type event struct {
	t     float64 // absolute firing time
	kind  uint8   // evSegment or evDepart
	flow  int32   // flow slot index
	epoch uint32  // slot epoch at scheduling time
	seq   uint64  // tie-breaker for deterministic ordering
}

const (
	evSegment = uint8(iota) // the flow's current constant-rate segment ends
	evDepart                // the flow leaves the system
	evArrival               // a new flow requests admission (finite arrival rate)
)

// before reports whether a fires before b, breaking time ties by sequence
// number so that runs are fully deterministic.
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a plain binary min-heap of events: the engine's scheduler
// for configurations whose clocks are not all exponential (on-off, Markov
// fluid, mixture and trace sources, custom holding-time samplers); the
// memoryless ones run on expClock instead. It avoids container/heap to keep
// the hot path free of interface calls, since every traffic segment costs
// one push and one pop.
type eventHeap struct {
	h []event
}

// len returns the number of queued events.
func (q *eventHeap) len() int { return len(q.h) }

// push inserts an event.
func (q *eventHeap) push(e event) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].before(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the earliest event. It panics on an empty heap;
// the engine always checks len first.
func (q *eventHeap) pop() event {
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	q.siftDown(0)
	return top
}

// peek returns the earliest event without removing it.
func (q *eventHeap) peek() event { return q.h[0] }

func (q *eventHeap) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.h[l].before(q.h[smallest]) {
			smallest = l
		}
		if r < n && q.h[r].before(q.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
