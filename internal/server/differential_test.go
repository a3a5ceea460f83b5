package server

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// reencodeResponse re-encodes a decoded response frame canonically so two
// servers' response streams can be compared frame by frame.
func reencodeResponse(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	switch f.Op {
	case wire.OpDecision:
		return wire.AppendDecision(nil, f.ReqID, f.Decision)
	case wire.OpDecisionBatch:
		b, err := wire.AppendDecisionBatch(nil, f.ReqID, f.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		return b
	case wire.OpAck:
		return wire.AppendAck(nil, f.ReqID, f.Status)
	case wire.OpPong:
		return wire.AppendPong(nil, f.ReqID)
	case wire.OpRefusal:
		return wire.AppendRefusal(nil, f.ReqID, f.Refusal)
	}
	t.Fatalf("unexpected response op %v", f.Op)
	return nil
}

// mixedSequence builds one pipelined request stream covering every request
// op and the edges that matter to batching: admit/depart runs over the
// same flows, duplicates, unknown flows, invalid rates, op switches that
// force mid-run batch flushes. Returns the stream and its request count
// (every request frame yields exactly one response frame).
func mixedSequence() (reqs []byte, n int) {
	add := func(b []byte) { reqs = b; n++ }
	var req uint64
	next := func() uint64 { req++; return req }
	for i := 0; i < 32; i++ { // admit run (some rejected at the bound)
		add(wire.AppendAdmit(reqs, next(), uint64(i), 1))
	}
	add(wire.AppendAdmit(reqs, next(), 3, 1))           // duplicate
	add(wire.AppendAdmit(reqs, next(), 77, math.NaN())) // invalid rate
	add(wire.AppendUpdateRate(reqs, next(), 4, 2.5))    // active
	add(wire.AppendUpdateRate(reqs, next(), 400, 1))    // unknown
	add(wire.AppendTouch(reqs, next(), 5))              // active
	add(wire.AppendTouch(reqs, next(), 500))            // unknown
	for i := 0; i < 16; i++ {                           // depart run
		add(wire.AppendDepart(reqs, next(), uint64(i)))
	}
	add(wire.AppendDepart(reqs, next(), 2))   // already departed
	add(wire.AppendDepart(reqs, next(), 600)) // never admitted
	for i := 0; i < 8; i++ {                  // re-admit departed flows
		add(wire.AppendAdmit(reqs, next(), uint64(i), 0.5))
	}
	add(wire.AppendPing(reqs, next()))
	b, err := wire.AppendAdmitBatch(reqs, next(), []uint64{200, 201, 202}, []float64{1, 2, 3})
	if err != nil {
		panic(err)
	}
	add(b)
	for i := 0; i < 4; i++ { // alternate kinds: every frame switches the batch
		add(wire.AppendAdmit(reqs, next(), uint64(300+i), 1))
		add(wire.AppendDepart(reqs, next(), uint64(300+i)))
	}
	return reqs, n
}

// runServed sends the request stream to a fresh server (writing it via
// write) and returns the canonical re-encoding of the n response frames in
// order. The writer goroutine is joined before the connection closes, so
// it can neither write on a closed connection nor report after the test
// has returned.
func runServed(t *testing.T, cfg Config, stream []byte, n int, write func(t *testing.T, nc net.Conn, stream []byte)) [][]byte {
	t.Helper()
	_, addr := startServer(t, cfg)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		write(t, nc, stream)
	}()
	defer func() { <-wrote }()
	rd := wire.NewReader(nc)
	out := make([][]byte, 0, n)
	var f wire.Frame
	for i := 0; i < n; i++ {
		if err := rd.Next(&f); err != nil {
			t.Fatalf("response %d/%d: %v", i, n, err)
		}
		out = append(out, reencodeResponse(t, &f))
	}
	return out
}

// TestFastGenericServedDifferential pins the serving-layer half of the
// fast-path conformance story: a server running the vectorized burst
// decoders produces byte-identical responses, in identical order, to one
// running the generic frame-at-a-time path — whatever way the request
// bytes are chunked onto the wire (chunk boundaries move the micro-batch
// splits around, which must never be visible in the responses). The
// tight capacity makes some admits reject, so decision content is
// order-sensitive and the comparison is not vacuous.
func TestFastGenericServedDifferential(t *testing.T) {
	stream, n := mixedSequence()
	oneWrite := func(t *testing.T, nc net.Conn, stream []byte) {
		if _, err := nc.Write(stream); err != nil {
			t.Error(err)
		}
	}
	drip := func(size int) func(t *testing.T, nc net.Conn, stream []byte) {
		return func(t *testing.T, nc net.Conn, stream []byte) {
			for i := 0; i < len(stream); i += size {
				end := i + size
				if end > len(stream) {
					end = len(stream)
				}
				if _, err := nc.Write(stream[i:end]); err != nil {
					t.Error(err)
					return
				}
				if i%(size*32) == 0 {
					time.Sleep(200 * time.Microsecond) // vary the burst boundaries
				}
			}
		}
	}
	gatewayCfg := func(disableFast bool) Config {
		return Config{Gateway: newTestGateway(t, 20), disableFastPath: disableFast}
	}

	want := runServed(t, gatewayCfg(true), stream, n, oneWrite)
	variants := map[string]struct {
		cfg   Config
		write func(t *testing.T, nc net.Conn, stream []byte)
	}{
		"fast one write":     {gatewayCfg(false), oneWrite},
		"fast dripped":       {gatewayCfg(false), drip(7)},
		"fast frame-aligned": {gatewayCfg(false), drip(30)},
		"generic dripped":    {gatewayCfg(true), drip(7)},
	}
	for name, v := range variants {
		t.Run(name, func(t *testing.T) {
			got := runServed(t, v.cfg, stream, n, v.write)
			if len(got) != len(want) {
				t.Fatalf("%d responses, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("response %d diverges:\n  got  %x\n  want %x", i, got[i], want[i])
				}
			}
		})
	}
}
