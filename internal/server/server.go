// Package server turns a gateway.Gateway into a network service: a TCP
// server speaking the internal/wire framed protocol, one reader/writer
// goroutine pair per connection, built to keep the in-process admission
// cost (~110 ns, 0 allocs) visible through the socket instead of burying
// it under per-request overhead.
//
// # The served fast path
//
// Three mechanisms close the gap between the wire and the in-process
// batched hot path; together they hold BenchmarkServerAdmit to a few
// hundred ns and ~0 allocs per decision:
//
//   - Vectorized burst decode. The reader prefers wire.Reader.
//     NextAdmitBurst, which walks the whole pipelined run of Admit frames
//     sitting in the read buffer and lands (reqID, flow, rate) directly
//     in the connection's AdmitBatch scratch — no intermediate Frame, one
//     bounds check per frame. The burst decoder only consumes frames the
//     generic decoder would decode identically (the differential tests in
//     internal/wire pin this), so switching it off changes the cost,
//     never the decisions; the server's differential tests prove that
//     through the unexported disableFastPath test hook.
//
//   - Micro-batching. Pending admits — vector-decoded or accumulated one
//     at a time — are decided with a single Gateway.AdmitBatch call: one
//     clock pair and one bound load amortized across the burst. The batch
//     flushes right before the first read that could block, when a
//     non-Admit frame arrives (preserving per-flow request order), or at
//     Config.MaxBatch.
//
//   - Writer coalescing. Responses are encoded into a per-connection
//     arena (conn.out) owned by the reader goroutine, and the arena is
//     handed to the writer only when the reader is about to block, when
//     it exceeds a writev-sized threshold, or at teardown — so a 64-deep
//     pipelined round costs one backlog enqueue and typically one
//     write syscall instead of 128. Read deadlines are armed only before
//     reads that can actually block, never per frame.
//
// Ownership rules: the reader goroutine owns conn.pend (the admit
// scratch), conn.out (the response arena) and the wire.Reader; the writer
// goroutine owns the socket writes; connWriter.enqueue copies the arena
// under its lock, which is the only point where bytes change goroutines.
// Per-listener accept loops (Serve is variadic; see Listen) own nothing
// but the accept call and the shard counters they stamp on new conns.
//
// # Robustness edges
//
// Every edge is explicit, counted, and visible in the Snapshot:
//
//   - accept refusal: past Config.MaxConns the server writes one
//     connection-scoped Refusal (overloaded) and closes — the serving
//     layer's analogue of the gateway's ReasonCapacity refusal;
//   - read/write deadlines bound how long a dead peer can pin a
//     goroutine;
//   - slow-client shedding: a connection whose response backlog exceeds
//     Config.WriteBuffer is refused (slow-client) and closed instead of
//     growing without bound;
//   - frame-rate cap: a token bucket per connection refuses (rate-limited)
//     and closes connections that exceed Config.FrameRate frames/sec;
//   - graceful drain: Shutdown stops accepting, lets each connection
//     finish the frames already in flight (decisions are flushed, not
//     dropped), and Departs nothing — abandoned flows are reclaimed by
//     the gateway's flow leases, the crash-consistency story PR 4 built.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Backend is the admission surface the server fronts: the four
// concurrent-safe decision methods the wire protocol needs, exactly as
// gateway.Gateway implements them. A cluster router satisfies the same
// shape, so the pooled client talks to a fleet transparently — the wire
// protocol cannot tell one link from N.
type Backend interface {
	AdmitBatch(ids []uint64, rates []float64, dst []gateway.Decision) ([]gateway.Decision, error)
	DepartBatch(ids []uint64, dst []bool) []bool
	UpdateRate(flowID uint64, rate float64) error
	Touch(flowID uint64) error
}

var _ Backend = (*gateway.Gateway)(nil)

// Config parameterizes a Server.
type Config struct {
	// Gateway is the admission gateway the server fronts (required unless
	// Backend is set). The server only calls its concurrent-safe methods;
	// ticking it (Run or a virtual clock) stays the owner's job.
	Gateway *gateway.Gateway

	// Backend overrides Gateway as the admission surface — e.g. a cluster
	// router fronting N gateways. Nil defaults to Gateway; at least one of
	// the two is required. Ticking the backend stays the owner's job.
	Backend Backend

	// MaxConns caps concurrently served connections (default 1024). At
	// the cap, accepted connections get a Refusal (overloaded) frame and
	// are closed.
	MaxConns int

	// MaxBatch caps how many pipelined Admit frames coalesce into one
	// AdmitBatch call (default 512, clamped to wire.MaxBatch).
	MaxBatch int

	// ReadTimeout bounds the wait for the next frame on an idle
	// connection (default 60s). Clients keep connections alive with
	// Ping or lease Touch traffic.
	ReadTimeout time.Duration

	// WriteTimeout bounds one flush of the response backlog (default 10s).
	WriteTimeout time.Duration

	// WriteBuffer is the response-backlog budget per connection in bytes
	// (default 1 MiB). A connection that reads slower than it asks gets
	// shed (Refusal slow-client) when its backlog passes the budget.
	WriteBuffer int

	// FrameRate caps request frames per second per connection; 0 (the
	// default) disables the cap. The bucket's burst equals one second's
	// allowance. A vector-decoded burst is charged as a unit: if the
	// bucket cannot cover the whole burst the connection is refused
	// (rate-limited), with decisions for the already-decoded admits
	// still flushed before close.
	FrameRate int

	// DrainGrace is how long a draining connection may keep processing
	// frames that were already in flight when Shutdown began (default
	// 250ms). The overall drain is additionally bounded by the context
	// given to Shutdown.
	DrainGrace time.Duration

	// disableFastPath forces the generic frame-at-a-time decode path,
	// bypassing the vectorized Admit burst decoder. Decisions are
	// identical either way; the hook exists so the differential
	// conformance tests can prove exactly that.
	disableFastPath bool
}

// Server serves the wire protocol over TCP (or any net.Listener) against
// one Gateway. Construct with New; Serve may be called once.
type Server struct {
	cfg Config

	mu       sync.Mutex
	lns      []net.Listener
	shards   []shardStats // one per listener, sized in Serve
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // live connection goroutine pairs

	// Serving-layer counters, merged into the observability surface next
	// to the gateway families (see Snapshot / WritePrometheus).
	accepted    metrics.Counter
	refused     metrics.Counter // over MaxConns at accept
	drainRef    metrics.Counter // refused because draining
	shed        metrics.Counter // slow-client write-backlog sheds
	rateLimited metrics.Counter // frame-rate cap closes
	protoErrs   metrics.Counter // malformed frames
	frames      metrics.Counter // request frames processed
	decisions   metrics.Counter // admission decisions served
	batches     metrics.Counter // AdmitBatch calls made
	activeConns atomic.Int64
	batchSizes  *metrics.Histogram // decisions per AdmitBatch call
	latency     *metrics.Histogram // served seconds per decision (batch mean)
}

// shardStats is the per-listener counter set: which accept loop a
// connection landed on, and how many bytes it moved. Sharding is only
// worth having if its balance is observable.
type shardStats struct {
	conns        metrics.Counter
	bytesRead    metrics.Counter
	bytesWritten metrics.Counter
}

// servedLatencyBounds spans 250ns to ~65ms (doubling) — wide enough for a
// loopback decision (~µs) and a cross-rack one (~ms).
func servedLatencyBounds() []float64 { return metrics.ExpBounds(250e-9, 2, 18) }

// New validates the configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		if cfg.Gateway == nil {
			return nil, fmt.Errorf("server: a Gateway or Backend is required")
		}
		cfg.Backend = cfg.Gateway
	}
	if cfg.MaxConns < 0 || cfg.MaxBatch < 0 || cfg.WriteBuffer < 0 || cfg.FrameRate < 0 {
		return nil, fmt.Errorf("server: negative limits are invalid")
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 1024
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 512
	}
	if cfg.MaxBatch > wire.MaxBatch {
		cfg.MaxBatch = wire.MaxBatch
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.WriteBuffer == 0 {
		cfg.WriteBuffer = 1 << 20
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 250 * time.Millisecond
	}
	return &Server{
		cfg:        cfg,
		conns:      make(map[*conn]struct{}),
		batchSizes: metrics.NewHistogram(metrics.ExpBounds(1, 2, 11)),
		latency:    metrics.NewHistogram(servedLatencyBounds()),
	}, nil
}

// Serve accepts connections on the given listeners — one accept loop per
// listener, so the accept path scales across cores with a SO_REUSEPORT
// listener set (see Listen) — until the listeners fail or Shutdown closes
// them. Passing the same listener several times is the portable sharding
// fallback: Accept is safe for concurrent use, so N loops round-robin the
// kernel's accept queue. Serve returns nil after a graceful shutdown.
func (s *Server) Serve(lns ...net.Listener) error {
	if len(lns) == 0 {
		return fmt.Errorf("server: Serve needs at least one listener")
	}
	s.mu.Lock()
	if s.lns != nil {
		s.mu.Unlock()
		return fmt.Errorf("server: Serve called twice")
	}
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: already shut down")
	}
	s.lns = append([]net.Listener(nil), lns...)
	s.shards = make([]shardStats, len(lns))
	s.mu.Unlock()

	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	for i, ln := range lns {
		wg.Add(1)
		go func(shard int, ln net.Listener) {
			defer wg.Done()
			err := s.acceptLoop(ln, shard)
			if err == nil {
				return
			}
			errMu.Lock()
			if first == nil {
				first = err
				// Unblock the sibling accept loops so Serve returns.
				for _, l := range lns {
					l.Close()
				}
			}
			errMu.Unlock()
		}(i, ln)
	}
	wg.Wait()
	if s.Draining() {
		return nil
	}
	return first
}

// acceptLoop accepts on one listener, stamping its shard on every conn.
func (s *Server) acceptLoop(ln net.Listener, shard int) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.Draining() {
				return nil
			}
			return err
		}
		s.accept(nc, shard)
	}
}

// accept admits or refuses one freshly accepted connection.
func (s *Server) accept(nc net.Conn, shard int) {
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.drainRef.Inc()
		s.refuse(nc, wire.RefuseDraining)
		return
	case len(s.conns) >= s.cfg.MaxConns:
		s.mu.Unlock()
		s.refused.Inc()
		s.refuse(nc, wire.RefuseOverloaded)
		return
	}
	c := newConn(s, nc, &s.shards[shard])
	s.conns[c] = struct{}{}
	s.wg.Add(1) // the reader's share; the writer adds its own in serve
	s.mu.Unlock()
	s.accepted.Inc()
	s.shards[shard].conns.Inc()
	s.activeConns.Add(1)
	go c.serve()
}

// refuse writes a best-effort connection-scoped refusal and closes nc.
func (s *Server) refuse(nc net.Conn, r wire.Refusal) {
	nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	nc.Write(wire.AppendRefusal(nil, 0, r))
	nc.Close()
}

// remove unregisters a finished connection.
func (s *Server) remove(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.activeConns.Add(-1)
	s.wg.Done()
}

// Shutdown drains the server gracefully: stop accepting, give every live
// connection DrainGrace to finish the frames already in flight (their
// decisions are flushed before close), then wait for the connections to
// finish or ctx to expire, whichever is first. Remaining connections are
// force-closed on expiry. No flow is departed on behalf of disconnected
// clients — the gateway's leases reclaim abandoned flows, so a drain can
// never double-free a slot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("server: Shutdown called twice")
	}
	s.draining = true
	lns := s.lns
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close() // duplicate closes (shared-listener fallback) are harmless
	}
	deadline := time.Now().Add(s.cfg.DrainGrace)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for _, c := range conns {
		c.beginDrain(deadline)
	}
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ShardSnapshot is the per-listener slice of the serving snapshot.
type ShardSnapshot struct {
	Conns        int64 `json:"conns"`         // connections accepted on this shard
	BytesRead    int64 `json:"bytes_read"`    // request bytes read on this shard
	BytesWritten int64 `json:"bytes_written"` // response bytes written on this shard
}

// Snapshot is the serving-layer observability view, the sibling of
// gateway.Snapshot one layer up the stack. JSON-encodable; convertible to
// Prometheus text via WritePrometheus.
type Snapshot struct {
	ConnsActive      int64                     `json:"conns_active"`       // connections currently served
	ConnsAccepted    int64                     `json:"conns_accepted"`     // cumulative accepted connections
	ConnsRefused     int64                     `json:"conns_refused"`      // refused at accept: over MaxConns
	ConnsDrainRef    int64                     `json:"conns_drain_ref"`    // refused at accept: draining
	ConnsShed        int64                     `json:"conns_shed"`         // shed for a slow read side
	ConnsRateLimited int64                     `json:"conns_rate_limited"` // closed for exceeding the frame-rate cap
	ProtocolErrors   int64                     `json:"protocol_errors"`    // malformed frames
	Frames           int64                     `json:"frames"`             // request frames processed
	Decisions        int64                     `json:"decisions"`          // admission decisions served
	Batches          int64                     `json:"batches"`            // AdmitBatch calls made
	Draining         bool                      `json:"draining"`           // Shutdown in progress
	BatchSizes       metrics.HistogramSnapshot `json:"batch_sizes"`        // decisions per AdmitBatch call
	ServedLatency    metrics.HistogramSnapshot `json:"served_latency"`     // seconds per served decision (batch mean)
	ServedP50        float64                   `json:"served_p50"`         // median served seconds per decision
	ServedP99        float64                   `json:"served_p99"`         // 99th-percentile served seconds per decision
	Shards           []ShardSnapshot           `json:"shards"`             // per-listener accept/byte counters
}

// MeanBatch returns the average number of decisions coalesced per
// AdmitBatch call (0 before any batch) — the e2e test and benchmark
// assert that pipelined load actually engages the micro-batcher (mean > 1).
func (s Snapshot) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Decisions) / float64(s.Batches)
}

// Snapshot assembles the serving-layer snapshot (weakly consistent, like
// every metrics read in this codebase).
func (s *Server) Snapshot() Snapshot {
	lat := s.latency.Snapshot()
	snap := Snapshot{
		ConnsActive:      s.activeConns.Load(),
		ConnsAccepted:    s.accepted.Load(),
		ConnsRefused:     s.refused.Load(),
		ConnsDrainRef:    s.drainRef.Load(),
		ConnsShed:        s.shed.Load(),
		ConnsRateLimited: s.rateLimited.Load(),
		ProtocolErrors:   s.protoErrs.Load(),
		Frames:           s.frames.Load(),
		Decisions:        s.decisions.Load(),
		Batches:          s.batches.Load(),
		Draining:         s.Draining(),
		BatchSizes:       s.batchSizes.Snapshot(),
		ServedLatency:    lat,
		ServedP50:        lat.Quantile(0.50),
		ServedP99:        lat.Quantile(0.99),
	}
	s.mu.Lock()
	shards := s.shards
	s.mu.Unlock()
	snap.Shards = make([]ShardSnapshot, len(shards))
	for i := range shards {
		snap.Shards[i] = ShardSnapshot{
			Conns:        shards[i].conns.Load(),
			BytesRead:    shards[i].bytesRead.Load(),
			BytesWritten: shards[i].bytesWritten.Load(),
		}
	}
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format under the mbac_server_* namespace, next to the gateway's
// mbac_gateway_* families.
func (s Snapshot) WritePrometheus(w io.Writer) {
	metrics.WriteGauge(w, "mbac_server_conns_active", "connections currently served", float64(s.ConnsActive))
	metrics.WriteCounter(w, "mbac_server_conns_accepted_total", "cumulative accepted connections", s.ConnsAccepted)
	metrics.WriteCounter(w, "mbac_server_conns_refused_total", "connections refused at accept (over max-conns)", s.ConnsRefused)
	metrics.WriteCounter(w, "mbac_server_conns_drain_refused_total", "connections refused while draining", s.ConnsDrainRef)
	metrics.WriteCounter(w, "mbac_server_conns_shed_total", "connections shed for a slow read side", s.ConnsShed)
	metrics.WriteCounter(w, "mbac_server_conns_rate_limited_total", "connections closed for exceeding the frame-rate cap", s.ConnsRateLimited)
	metrics.WriteCounter(w, "mbac_server_protocol_errors_total", "malformed request frames", s.ProtocolErrors)
	metrics.WriteCounter(w, "mbac_server_frames_total", "request frames processed", s.Frames)
	metrics.WriteCounter(w, "mbac_server_decisions_total", "admission decisions served", s.Decisions)
	metrics.WriteCounter(w, "mbac_server_batches_total", "AdmitBatch calls made", s.Batches)
	draining := 0.0
	if s.Draining {
		draining = 1
	}
	metrics.WriteGauge(w, "mbac_server_draining", "1 while a graceful drain is in progress", draining)
	metrics.WriteHistogram(w, "mbac_server_batch_size", "admission decisions coalesced per AdmitBatch call", s.BatchSizes)
	metrics.WriteHistogram(w, "mbac_server_latency_seconds", "served seconds per admission decision (batch mean)", s.ServedLatency)
	metrics.WriteGauge(w, "mbac_server_latency_p50_seconds", "median served seconds per admission decision", s.ServedP50)
	metrics.WriteGauge(w, "mbac_server_latency_p99_seconds", "99th-percentile served seconds per admission decision", s.ServedP99)
	if len(s.Shards) > 0 {
		fmt.Fprint(w, "# HELP mbac_server_shard_conns_total connections accepted per listener shard\n# TYPE mbac_server_shard_conns_total counter\n")
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "mbac_server_shard_conns_total{shard=\"%d\"} %d\n", i, sh.Conns)
		}
		fmt.Fprint(w, "# HELP mbac_server_shard_bytes_read_total request bytes read per listener shard\n# TYPE mbac_server_shard_bytes_read_total counter\n")
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "mbac_server_shard_bytes_read_total{shard=\"%d\"} %d\n", i, sh.BytesRead)
		}
		fmt.Fprint(w, "# HELP mbac_server_shard_bytes_written_total response bytes written per listener shard\n# TYPE mbac_server_shard_bytes_written_total counter\n")
		for i, sh := range s.Shards {
			fmt.Fprintf(w, "mbac_server_shard_bytes_written_total{shard=\"%d\"} %d\n", i, sh.BytesWritten)
		}
	}
}

// conn is one served connection: a reader goroutine (serve) that decodes,
// batches and decides, and a writer goroutine that flushes the encoded
// response backlog. The two meet at wr.
type conn struct {
	srv   *Server
	nc    net.Conn
	rd    *wire.Reader
	wr    connWriter
	shard *shardStats

	// drainDeadline, unix-nanos, is set by beginDrain: past it the reader
	// stops waiting for new frames (0 = not draining). Written by the
	// Shutdown goroutine, read by the reader when arming deadlines.
	drainDeadline atomic.Int64

	// Token bucket for the frame-rate cap; reader-goroutine-local.
	tokens     float64
	lastRefill time.Time

	// Reader-goroutine-local scratch, reused across frames so the steady
	// state serves without allocating. pend and dep are the admit and
	// depart batches under accumulation — the burst decoders append to
	// them directly; out is the response arena the writer coalescing
	// flushes. At most one of pend/dep is non-empty at any time: switching
	// request kind flushes the other first, which is what keeps arena
	// append order equal to request-arrival order.
	pend      wire.AdmitBurst
	dep       wire.DepartBurst
	depOK     []bool
	decisions []gateway.Decision
	wireDecs  []wire.Decision
	out       []byte
}

// coalesceBytes is the response-arena size that forces a flush mid-burst:
// roughly one writev-worth of frames, so a long pipelined run neither
// flushes per response nor builds an unbounded arena.
const coalesceBytes = 64 << 10

// countingReader counts bytes pulled off the socket into the per-shard
// counter. It sits under the wire.Reader's bufio buffer, so the count
// costs one atomic add per fill, not per frame.
type countingReader struct {
	nc net.Conn
	n  *metrics.Counter
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.nc.Read(p)
	if n > 0 {
		r.n.Add(int64(n))
	}
	return n, err
}

// newConn wires up a connection and its writer state.
func newConn(s *Server, nc net.Conn, shard *shardStats) *conn {
	c := &conn{srv: s, nc: nc, shard: shard}
	c.rd = wire.NewReader(countingReader{nc: nc, n: &shard.bytesRead})
	c.wr.init(s.cfg.WriteBuffer)
	c.tokens = float64(s.cfg.FrameRate)
	c.lastRefill = time.Now()
	return c
}

// beginDrain tells the connection to stop waiting for new frames after
// deadline. Frames already buffered (or arriving before the deadline) are
// still processed and their responses flushed — the "no decision lost"
// half of the drain contract.
func (c *conn) beginDrain(deadline time.Time) {
	c.drainDeadline.Store(deadline.UnixNano())
	// Re-arm the read deadline in case the reader is already blocked. The
	// reader re-applies the minimum of idle and drain deadlines before its
	// next blocking read, so a lost race here only delays the cut to the
	// idle timeout, and Shutdown's context still bounds the total drain.
	c.nc.SetReadDeadline(deadline)
}

// serve runs the reader loop; it owns connection teardown.
func (c *conn) serve() {
	c.srv.wg.Add(1) // the writer's share (the reader's was added at accept)
	go c.writeLoop()
	refusal := c.readLoop()
	// Flush any batched admits/departs and the coalesced arena so
	// in-flight responses survive teardown (EOF, drain deadline and
	// protocol errors all land here).
	c.flushPending()
	c.flushOut()
	if refusal != 0 {
		c.out = wire.AppendRefusal(c.out[:0], 0, refusal)
		c.wr.enqueue(c.out)
		c.out = c.out[:0]
	}
	c.wr.close() // the writer drains the backlog, then exits
	c.wr.wait()  // don't close the socket under an in-progress flush
	c.nc.Close()
	c.srv.remove(c)
}

// readLoop processes frames until the connection ends. It returns a
// non-zero refusal when the connection is being closed for cause, so the
// peer learns why before the socket closes.
//
// Structure: an inner loop drains everything already buffered — bursts of
// Admit frames through the vectorized decoder, everything else through the
// generic one — without touching deadlines or the socket. Only when the
// buffer runs dry does the loop flush pending admits and the response
// arena, arm the idle/drain deadline, and issue the one read that can
// block.
func (c *conn) readLoop() wire.Refusal {
	var f wire.Frame
	fast := !c.srv.cfg.disableFastPath
	maxBatch := c.srv.cfg.MaxBatch
	// Frame counting is batched: accumulated locally and published once
	// per drain cycle (and at return), not once per frame.
	var nframes int64
	defer func() { c.srv.frames.Add(nframes) }()
	for {
		for {
			if fast {
				if n := c.rd.NextAdmitBurst(&c.pend, maxBatch-c.pend.Len()); n > 0 {
					nframes += int64(n)
					if !c.allowFrames(n) {
						c.srv.rateLimited.Inc()
						return wire.RefuseRateLimited
					}
					// Older departs ack before these admits decide.
					if c.dep.Len() > 0 {
						if c.flushDeparts() {
							c.srv.shed.Inc()
							return wire.RefuseSlowClient
						}
					}
					if c.pend.Len() >= maxBatch {
						if c.flushAdmits() {
							c.srv.shed.Inc()
							return wire.RefuseSlowClient
						}
					}
					continue
				}
				if n := c.rd.NextDepartBurst(&c.dep, maxBatch-c.dep.Len()); n > 0 {
					nframes += int64(n)
					if !c.allowFrames(n) {
						c.srv.rateLimited.Inc()
						return wire.RefuseRateLimited
					}
					// Older admits decide before these departs ack.
					if c.pend.Len() > 0 {
						if c.flushAdmits() {
							c.srv.shed.Inc()
							return wire.RefuseSlowClient
						}
					}
					if c.dep.Len() >= maxBatch {
						if c.flushDeparts() {
							c.srv.shed.Inc()
							return wire.RefuseSlowClient
						}
					}
					continue
				}
			}
			ok, err := c.rd.NextBuffered(&f)
			if !ok {
				break
			}
			if err != nil {
				c.srv.protoErrs.Inc()
				return wire.RefuseProtocol // a buffered frame can only fail by being malformed
			}
			nframes++
			if !c.allowFrames(1) {
				c.srv.rateLimited.Inc()
				return wire.RefuseRateLimited
			}
			if shed := c.handle(&f); shed {
				c.srv.shed.Inc()
				return wire.RefuseSlowClient
			}
		}
		// The buffer is dry: decide what's pending and hand the writer the
		// coalesced responses before risking a blocking read.
		if c.flushPending() || c.flushOut() {
			c.srv.shed.Inc()
			return wire.RefuseSlowClient
		}
		c.srv.frames.Add(nframes)
		nframes = 0
		rd := time.Now().Add(c.srv.cfg.ReadTimeout)
		if dd := c.drainDeadline.Load(); dd != 0 {
			if d := time.Unix(0, dd); d.Before(rd) {
				rd = d
			}
		}
		c.nc.SetReadDeadline(rd)
		if err := c.rd.Next(&f); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, net.ErrClosed) || isTimeout(err) {
				return 0 // clean close, drain cut, or idle cut
			}
			c.srv.protoErrs.Inc()
			return wire.RefuseProtocol
		}
		nframes++
		if !c.allowFrames(1) {
			c.srv.rateLimited.Inc()
			return wire.RefuseRateLimited
		}
		if shed := c.handle(&f); shed {
			c.srv.shed.Inc()
			return wire.RefuseSlowClient
		}
	}
}

// allowFrames charges n frames against the rate-cap token bucket.
func (c *conn) allowFrames(n int) bool {
	limit := c.srv.cfg.FrameRate
	if limit == 0 {
		return true
	}
	now := time.Now()
	c.tokens += now.Sub(c.lastRefill).Seconds() * float64(limit)
	if burst := float64(limit); c.tokens > burst {
		c.tokens = burst
	}
	c.lastRefill = now
	if c.tokens < float64(n) {
		return false
	}
	c.tokens -= float64(n)
	return true
}

// handle processes one decoded frame, appending responses to the arena.
// It reports whether the connection must be shed for a full backlog.
func (c *conn) handle(f *wire.Frame) (shed bool) {
	g := c.srv.cfg.Backend
	switch f.Op {
	case wire.OpAdmit:
		// The generic half of the micro-batch (fast path disabled, or a
		// lone Admit at the buffer boundary): accumulate; the loop flushes
		// before blocking, and the cap flushes here.
		if c.flushDeparts() {
			return true
		}
		c.pend.ReqIDs = append(c.pend.ReqIDs, f.ReqID)
		c.pend.Flows = append(c.pend.Flows, f.Flow)
		c.pend.Rates = append(c.pend.Rates, f.Rate)
		if c.pend.Len() >= c.srv.cfg.MaxBatch {
			return c.flushAdmits()
		}
		return false
	case wire.OpAdmitBatch:
		// An explicit client-side batch: decide it as one unit, after any
		// pending singles (order preserved).
		if c.flushPending() {
			return true
		}
		t0 := time.Now()
		c.decisions = c.decisions[:0]
		var err error
		c.decisions, err = g.AdmitBatch(f.Flows, f.Rates, c.decisions)
		if err != nil {
			// Lengths are validated by the wire decoder; an error here is
			// a server bug, but shed the connection rather than panic.
			return true
		}
		n := len(c.decisions)
		c.srv.decisions.Add(int64(n))
		c.srv.batches.Inc()
		c.srv.batchSizes.Observe(float64(n))
		c.wireDecs = c.wireDecs[:0]
		for _, d := range c.decisions {
			c.wireDecs = append(c.wireDecs, wire.Decision{
				Reason: uint8(d.Reason), Admissible: d.Admissible, Active: d.Active,
			})
		}
		out, err := wire.AppendDecisionBatch(c.out, f.ReqID, c.wireDecs)
		if err != nil {
			return true // unreachable: the decoder bounded the batch size
		}
		c.out = out
		c.srv.latency.ObserveN(time.Since(t0).Seconds()/float64(n), n)
		return c.maybeFlushOut()
	case wire.OpUpdateRate:
		if c.flushPending() {
			return true
		}
		st := wire.StatusOK
		if !(f.Rate >= 0) || f.Rate > maxFinite {
			st = wire.StatusInvalidRate
		} else if err := g.UpdateRate(f.Flow, f.Rate); err != nil {
			st = wire.StatusNotActive
		}
		c.out = wire.AppendAck(c.out, f.ReqID, st)
		return c.maybeFlushOut()
	case wire.OpTouch:
		if c.flushPending() {
			return true
		}
		st := wire.StatusOK
		if err := g.Touch(f.Flow); err != nil {
			st = wire.StatusNotActive
		}
		c.out = wire.AppendAck(c.out, f.ReqID, st)
		return c.maybeFlushOut()
	case wire.OpDepart:
		// The generic half of the depart micro-batch, mirroring OpAdmit:
		// older admits decide first, then the depart accumulates.
		if c.flushAdmits() {
			return true
		}
		c.dep.ReqIDs = append(c.dep.ReqIDs, f.ReqID)
		c.dep.Flows = append(c.dep.Flows, f.Flow)
		if c.dep.Len() >= c.srv.cfg.MaxBatch {
			return c.flushDeparts()
		}
		return false
	case wire.OpPing:
		if c.flushPending() {
			return true
		}
		c.out = wire.AppendPong(c.out, f.ReqID)
		return c.maybeFlushOut()
	default:
		// A response op from a client is a protocol violation.
		c.srv.protoErrs.Inc()
		return true
	}
}

// maxFinite guards against +Inf reaching UpdateRate (NaN and negatives
// are caught by the f.Rate >= 0 comparison).
const maxFinite = 1.7976931348623157e308

// flushAdmits decides the pending Admit frames with one AdmitBatch call
// and appends one Decision frame per request to the arena. The served
// latency histogram gets the batch's per-decision mean — decode-complete
// to response-encoded — attributed to every decision via ObserveN.
// Reports shed like handle.
func (c *conn) flushAdmits() bool {
	n := c.pend.Len()
	if n == 0 {
		return false
	}
	g := c.srv.cfg.Backend
	t0 := time.Now()
	c.decisions = c.decisions[:0]
	var err error
	c.decisions, err = g.AdmitBatch(c.pend.Flows, c.pend.Rates, c.decisions)
	if err != nil || len(c.decisions) != n {
		c.pend.Reset()
		return true // server bug; shed rather than desync correlation
	}
	c.srv.decisions.Add(int64(n))
	c.srv.batches.Inc()
	c.srv.batchSizes.Observe(float64(n))
	for i, d := range c.decisions {
		c.out = wire.AppendDecision(c.out, c.pend.ReqIDs[i], wire.Decision{
			Reason:     uint8(d.Reason),
			Admissible: d.Admissible,
			Active:     d.Active,
		})
	}
	c.pend.Reset()
	c.srv.latency.ObserveN(time.Since(t0).Seconds()/float64(n), n)
	return c.maybeFlushOut()
}

// flushDeparts is flushAdmits for the pending Depart frames: one
// DepartBatch call, one Ack frame per request appended to the arena.
func (c *conn) flushDeparts() bool {
	n := c.dep.Len()
	if n == 0 {
		return false
	}
	c.depOK = c.srv.cfg.Backend.DepartBatch(c.dep.Flows, c.depOK[:0])
	for i, ok := range c.depOK {
		st := wire.StatusOK
		if !ok {
			st = wire.StatusNotActive
		}
		c.out = wire.AppendAck(c.out, c.dep.ReqIDs[i], st)
	}
	c.dep.Reset()
	return c.maybeFlushOut()
}

// flushPending flushes both micro-batches. At most one is ever non-empty
// (handle and readLoop flush the other kind before switching), so the call
// order here never reorders responses.
func (c *conn) flushPending() bool {
	if c.flushAdmits() {
		return true
	}
	return c.flushDeparts()
}

// maybeFlushOut flushes the arena once it reaches the coalescing
// threshold; below it, responses keep accumulating until the reader is
// about to block.
func (c *conn) maybeFlushOut() bool {
	if len(c.out) < coalesceBytes {
		return false
	}
	return c.flushOut()
}

// flushOut hands the coalesced response arena to the writer goroutine in
// one enqueue and reports whether the backlog is over the shed budget.
func (c *conn) flushOut() bool {
	if len(c.out) == 0 {
		return false
	}
	shed := c.wr.enqueue(c.out)
	c.out = c.out[:0]
	return shed
}

// writeLoop flushes the response backlog until the connection ends.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.wr.exit()
	for {
		buf, closed := c.wr.take()
		if len(buf) > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
			n, err := c.nc.Write(buf)
			if n > 0 {
				c.shard.bytesWritten.Add(int64(n))
			}
			if err != nil {
				// Kick the reader off its blocking read; teardown follows.
				c.nc.Close()
				return
			}
		}
		if closed {
			return
		}
	}
}

// isTimeout reports whether err is a deadline error.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// connWriter is the double-buffered response backlog between the reader
// (producer) and the writer goroutine (consumer): the reader copies
// encoded frames into pending under mu; the writer swaps pending for the
// spare and flushes it, so the reader never blocks on the socket and the
// backlog length is the shed signal. Copying under the lock (instead of
// handing the reader's arena over) is what keeps the two goroutines from
// ever sharing bytes.
type connWriter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []byte
	spare   []byte
	closed  bool
	done    chan struct{} // closed when the writer goroutine exits
	budget  int           // shed threshold, from Config.WriteBuffer
}

func (w *connWriter) init(budget int) {
	w.cond = sync.NewCond(&w.mu)
	w.done = make(chan struct{})
	w.budget = budget
}

// enqueue copies buf into the backlog, wakes the writer, and reports
// whether the backlog now exceeds the shed budget. buf remains owned by
// the caller.
func (w *connWriter) enqueue(buf []byte) (shed bool) {
	w.mu.Lock()
	w.pending = append(w.pending, buf...)
	over := w.budget > 0 && len(w.pending) > w.budget
	w.mu.Unlock()
	w.cond.Signal()
	return over
}

// take blocks until there is backlog to flush or the writer is closed,
// swapping the backlog out. closed is true when no more data will come.
func (w *connWriter) take() (buf []byte, closed bool) {
	w.mu.Lock()
	for len(w.pending) == 0 && !w.closed {
		w.cond.Wait()
	}
	buf = w.pending
	w.pending = w.spare[:0]
	w.spare = buf
	closed = w.closed && len(buf) == 0
	w.mu.Unlock()
	return buf, closed
}

// close tells the writer to finish after draining the backlog.
func (w *connWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Signal()
}

// exit marks the writer goroutine finished; called from writeLoop only.
func (w *connWriter) exit() {
	w.mu.Lock()
	w.closed = true // a failed writer also stops accepting work
	w.mu.Unlock()
	close(w.done)
}

// wait blocks until the writer goroutine has exited.
func (w *connWriter) wait() {
	<-w.done
}
