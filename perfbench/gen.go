package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/wire"
)

// The generator speaks raw wire frames over loopback: it is the
// benchmark's own open-loop load source, not the client library. Each
// connection has a sender that writes every frame at its due time (never
// waiting for answers) and a receiver that decodes the answers, checks
// them, and times each one from its due time.

// plan is one connection's share of a phase: the frames it sends, in
// order. Request i goes out with reqID base+i. The plan is built before
// the phase starts and only read while it runs.
type plan struct {
	base uint64
	due  []int64 // ns after the phase start; -1: send at once, untimed
	kind []loadgen.Kind
	flow []uint64
	rate []float64
}

func (p *plan) add(due int64, k loadgen.Kind, flow uint64, rate float64) {
	p.due = append(p.due, due)
	p.kind = append(p.kind, k)
	p.flow = append(p.flow, flow)
	p.rate = append(p.rate, rate)
}

func (p *plan) len() int { return len(p.due) }

// flowState tracks what the receiver learned about one flow. Each flow
// is pinned to one connection, so only that connection's receiver
// touches its entry.
const (
	flowPending uint8 = iota
	flowAdmitted
	flowRejected
	flowDeparted
)

// connStats is what one connection measured in one phase.
type connStats struct {
	sent, answered    int64
	failed            int64    // requests answered wrongly, or not at all
	failures          []string // the first few failures, described
	lat               []int64  // ns due → decoded, timed requests only
	latDue            []int64  // due time of each lat entry
	lag               []int64  // ns due → written, timed requests only
	lagDue            []int64  // due time of each lag entry
	admits, admitted  int64
	encodeNs, encoded int64
	decodeNs, decoded int64 // non-blocking decodes only
	burst, frames     int64 // frames taken by burst decoders / all
	aborted           bool
}

func (s *connStats) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 16 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	} else if len(s.failures) == 16 {
		s.failures = append(s.failures, "...")
	}
}

// genConn is one loopback connection of the generator.
type genConn struct {
	id    int
	nc    net.Conn
	rd    *wire.Reader
	next  uint64 // next reqID
	buf   []byte
	db    wire.DecisionBurst
	ab    wire.AckBurst
	frame wire.Frame
	pace  *pacer
	t0    int64 // the running phase's start, ns since epoch (for spans)
}

func dialGen(addr string, id int) (*genConn, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		pace.close()
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &genConn{id: id, nc: nc, rd: wire.NewReader(nc), next: 1, buf: make([]byte, 0, 64<<10), pace: pace}, nil
}

// run sends p on its schedule and receives every answer. start anchors
// the due times; abortLag stops the sender once it runs that late (a
// ladder rung the system cannot carry), 0 never. log, when set, receives
// a sampled 1-in-every request spans.
func (c *genConn) run(p *plan, states []uint8, start time.Time, abortLag int64, log *spanLog, every int64) connStats {
	p.base = c.next
	c.next += uint64(p.len())
	c.t0 = int64(start.Sub(epoch))
	st := connStats{lat: make([]int64, 0, p.len()), latDue: make([]int64, 0, p.len()),
		lag: make([]int64, 0, p.len()), lagDue: make([]int64, 0, p.len())}
	var prog progress
	prog.wake = make(chan struct{}, 1)
	sendErr := make(chan string, 1)
	go func() { sendErr <- c.send(p, start, abortLag, &prog, &st) }()
	c.receive(p, states, start, &prog, &st, log, every)
	if msg := <-sendErr; msg != "" {
		st.fail("%s", msg)
	}
	st.sent = prog.sent.Load()
	if missing := st.sent - st.answered; missing > 0 {
		st.failed += missing
	}
	return st
}

// progress is how the sender tells the receiver how many frames are on
// the wire, so the receiver blocks on the socket only while an answer is
// outstanding.
type progress struct {
	sent atomic.Int64
	done atomic.Bool
	wake chan struct{}
}

func (p *progress) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// send writes p's frames at their due times, batching every frame that
// is due when it wakes into one write. It returns a failure message or "".
func (c *genConn) send(p *plan, start time.Time, abortLag int64, prog *progress, st *connStats) (msg string) {
	defer func() {
		prog.done.Store(true)
		prog.signal()
	}()
	n := p.len()
	buf := c.buf[:0]
	defer func() { c.buf = buf[:0] }()
	for i := 0; i < n; {
		now := int64(time.Since(start))
		if d := p.due[i]; d > now {
			if err := c.pace.sleep(d - now); err != nil {
				return fmt.Sprintf("conn %d: pacing: %v", c.id, err)
			}
			continue
		}
		if lag := now - p.due[i]; abortLag > 0 && p.due[i] >= 0 && lag > abortLag {
			st.aborted = true
			return ""
		}
		t0 := nowNs()
		j := i
		for j < n && p.due[j] <= now && len(buf) < 60<<10 {
			id := p.base + uint64(j)
			switch p.kind[j] {
			case loadgen.KindAdmit:
				buf = wire.AppendAdmit(buf, id, p.flow[j], p.rate[j])
			case loadgen.KindUpdate:
				buf = wire.AppendUpdateRate(buf, id, p.flow[j], p.rate[j])
			default:
				buf = wire.AppendDepart(buf, id, p.flow[j])
			}
			if p.due[j] >= 0 {
				st.lag = append(st.lag, now-p.due[j])
				st.lagDue = append(st.lagDue, p.due[j])
			}
			j++
		}
		st.encodeNs += nowNs() - t0
		st.encoded += int64(j - i)
		if _, err := c.nc.Write(buf); err != nil {
			return fmt.Sprintf("conn %d: write: %v", c.id, err)
		}
		buf = buf[:0]
		i = j
		prog.sent.Store(int64(i))
		prog.signal()
	}
	return ""
}

// receive decodes answers until every sent frame is answered, checking
// each against its request. Burst decoders take runs of Decision and Ack
// frames; anything else, or a frame that has not fully arrived, goes
// through the generic decoder.
func (c *genConn) receive(p *plan, states []uint8, start time.Time, prog *progress, st *connStats, log *spanLog, every int64) {
	n := p.len()
	got := 0
	c.nc.SetReadDeadline(time.Now().Add(answerTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	for {
		if int64(got) >= prog.sent.Load() {
			if prog.done.Load() && int64(got) >= prog.sent.Load() {
				return
			}
			<-prog.wake
			continue
		}
		c.db.Reset()
		t0 := nowNs()
		if k := c.rd.NextDecisionBurst(&c.db, n-got); k > 0 {
			now := int64(time.Since(start))
			st.decodeNs += nowNs() - t0
			st.decoded += int64(k)
			st.burst += int64(k)
			st.frames += int64(k)
			for i := 0; i < k; i++ {
				c.decision(p, states, &got, c.db.ReqIDs[i], c.db.Decisions[i], now, st, log, every)
			}
			continue
		}
		c.ab.Reset()
		if k := c.rd.NextAckBurst(&c.ab, n-got); k > 0 {
			now := int64(time.Since(start))
			st.decodeNs += nowNs() - t0
			st.decoded += int64(k)
			st.burst += int64(k)
			st.frames += int64(k)
			for i := 0; i < k; i++ {
				c.ack(p, states, &got, c.ab.ReqIDs[i], c.ab.Statuses[i], now, st, log, every)
			}
			continue
		}
		ok, err := c.rd.NextBuffered(&c.frame)
		if ok && err == nil {
			st.decodeNs += nowNs() - t0
			st.decoded++
		}
		if !ok {
			err = c.rd.Next(&c.frame) // an answer is outstanding: block for it
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				st.fail("conn %d: closed after %d answers", c.id, got)
			} else {
				st.fail("conn %d: %v after %d answers", c.id, err, got)
			}
			return
		}
		now := int64(time.Since(start))
		st.frames++
		switch c.frame.Op {
		case wire.OpDecision:
			c.decision(p, states, &got, c.frame.ReqID, c.frame.Decision, now, st, log, every)
		case wire.OpAck:
			c.ack(p, states, &got, c.frame.ReqID, c.frame.Status, now, st, log, every)
		case wire.OpRefusal:
			st.fail("conn %d: refusal %v for req %d", c.id, c.frame.Refusal, c.frame.ReqID)
			return
		default:
			st.fail("conn %d: unexpected %v frame", c.id, c.frame.Op)
			return
		}
	}
}

// answerTimeout bounds how long a phase waits for its last answers.
const answerTimeout = 60 * time.Second

// answered checks that reqID is the next expected answer and records its
// latency; it returns the request index or -1.
func (c *genConn) answered(p *plan, got *int, reqID uint64, now int64, st *connStats, log *spanLog, every int64) int {
	i := *got
	if reqID != p.base+uint64(i) {
		st.fail("conn %d: answer for req %d, want %d", c.id, reqID, p.base+uint64(i))
		*got = i + 1
		return -1
	}
	*got = i + 1
	st.answered++
	if d := p.due[i]; d >= 0 {
		st.lat = append(st.lat, now-d)
		st.latDue = append(st.latDue, d)
		if log != nil && (uint64(i)%uint64(every)) == 0 {
			log.add(span{Name: "loadgen.request", Start: c.t0 + d, End: c.t0 + now, Req: uint64(c.id)<<48 | reqID})
		}
	}
	return i
}

func (c *genConn) decision(p *plan, states []uint8, got *int, reqID uint64, d wire.Decision, now int64, st *connStats, log *spanLog, every int64) {
	i := c.answered(p, got, reqID, now, st, log, every)
	if i < 0 {
		return
	}
	if p.kind[i] != loadgen.KindAdmit {
		st.fail("conn %d: decision for a %v request %d", c.id, p.kind[i], reqID)
		return
	}
	st.admits++
	idx := flowIndex(p.flow[i])
	switch gateway.Reason(d.Reason) {
	case gateway.ReasonAdmitted:
		if float64(d.Active) > math.Floor(d.Admissible) || d.Active < 1 {
			st.fail("conn %d: admitted with active %d over bound %g", c.id, d.Active, d.Admissible)
		}
		states[idx] = flowAdmitted
		st.admitted++
	case gateway.ReasonCapacity:
		states[idx] = flowRejected
	default:
		st.fail("conn %d: req %d decided %v", c.id, reqID, gateway.Reason(d.Reason))
	}
}

func (c *genConn) ack(p *plan, states []uint8, got *int, reqID uint64, s wire.Status, now int64, st *connStats, log *spanLog, every int64) {
	i := c.answered(p, got, reqID, now, st, log, every)
	if i < 0 {
		return
	}
	idx := flowIndex(p.flow[i])
	want := wire.StatusNotActive
	if states[idx] == flowAdmitted {
		want = wire.StatusOK
	}
	switch p.kind[i] {
	case loadgen.KindAdmit:
		st.fail("conn %d: ack for admit request %d", c.id, reqID)
		return
	case loadgen.KindDepart:
		if states[idx] == flowAdmitted {
			states[idx] = flowDeparted
		}
	}
	if s != want {
		st.fail("conn %d: %v of flow %d acked %v, want %v", c.id, kindName(p.kind[i]), p.flow[i], s, want)
	}
}

func kindName(k loadgen.Kind) string {
	switch k {
	case loadgen.KindAdmit:
		return "admit"
	case loadgen.KindUpdate:
		return "update"
	default:
		return "depart"
	}
}

// Flow IDs carry the phase in their top bits, so phases never reuse an
// ID; flowIndex recovers the schedule's flow number.
const phaseShift = 40

func flowID(phase int, flow uint64) uint64 { return uint64(phase)<<phaseShift | flow }
func flowIndex(id uint64) uint64           { return id & (1<<phaseShift - 1) }

// pacer sleeps until a frame is due. Go's timers resolve to about a
// millisecond here (the runtime polls with millisecond timeouts), which
// would dominate a loopback latency; a timerfd read through the runtime's
// poller wakes within tens of microseconds and, unlike a nanosleep
// syscall, does not pin a P while it waits.
type pacer struct {
	f    *os.File
	fd   uintptr
	tick [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0o4000, 0o2000000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleep waits ns nanoseconds; waits too short to arm a timer yield
// instead.
func (p *pacer) sleep(ns int64) error {
	if ns < 20000 {
		runtime.Gosched()
		return nil
	}
	spec := [4]int64{0, 0, ns / 1e9, ns % 1e9} // it_interval zero: one shot
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.tick[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
