// Command perfbench is the repository's benchmark: four seeded workloads
// run against the program's public entry points — the served admission
// path (wire → server → gateway) under churn and under RCBR
// renegotiation, the continuous-load simulator on Figure 10 cells, and
// the impulsive √2-law ensemble — each checked for correct outputs.
//
//	perfbench -workload served-churn -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with -trace 1 the run splits into an untraced
// and a traced half, and the object carries the per-layer ledger instead.
// The traced half wraps each layer in timing decorators handed in through
// the program's own seams (server.Config.Backend, gateway and sim
// Estimator/Controller/Model fields), counts every call, times a sampled
// 1-in-N, keeps spans in memory and writes them when the run ends.
// METRICS.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run is one benchmark invocation's shared state.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string

	log       *spanLog // traced half only
	checks    []check
	e2e       map[string]metric
	reported  map[string]metric // measured, printed and stored, not gated
	layer     map[string]metric
	attempted int64
	failed    int64
	invalid   []string // reasons the measurement itself is not valid
}

func (r *run) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
	r.checks = append(r.checks, c)
	status := "ok  "
	if !ok {
		status = "FAIL"
	}
	fmt.Printf("check %s %-34s %s\n", status, name, c.Detail)
}

func (r *run) setE2E(name, unit string, v float64)      { r.e2e[name] = metric{v, unit} }
func (r *run) setReported(name, unit string, v float64) { r.reported[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layer[name] = metric{v, unit}
}

// perLayer lists every per-layer metric with its unit. Each workload
// prints all of them; a layer a workload does not exercise reads 0.
var perLayer = [][2]string{
	{"loadgen.latency_p99_us", "us"}, {"loadgen.lag_p99_us", "us"}, {"loadgen.sent", "count"}, {"loadgen.answered", "count"},
	{"loadgen.cpu_busy_share", "ratio"},
	{"wire.encode_ns_per_frame", "ns"}, {"wire.decode_ns_per_frame", "ns"}, {"wire.burst_share", "ratio"},
	{"server.batch_mean", "count"}, {"server.frames", "count"}, {"server.decisions", "count"},
	{"server.batches", "count"}, {"server.residual_us_p50", "us"},
	{"gateway.admit_batch_calls", "count"}, {"gateway.admit_batch_ns_per_flow", "ns"},
	{"gateway.depart_batch_ns_per_flow", "ns"}, {"gateway.update_rate_calls", "count"},
	{"gateway.update_rate_ns", "ns"}, {"gateway.tick_ns_p50", "ns"}, {"gateway.tick_ns_max", "ns"},
	{"gateway.reject_share", "ratio"}, {"gateway.busy_share", "ratio"},
	{"estimator.advance_calls", "count"}, {"estimator.update_calls", "count"}, {"estimator.estimate_calls", "count"},
	{"estimator.advance_ns", "ns"}, {"estimator.update_ns", "ns"}, {"estimator.estimate_ns", "ns"},
	{"core.admissible_calls", "count"}, {"core.admissible_ns", "ns"},
	{"traffic.next_calls", "count"}, {"traffic.next_ns", "ns"},
	{"traffic.advance_column_calls", "count"}, {"traffic.advance_column_ns", "ns"}, {"traffic.init_column_ns", "ns"},
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.self_share", "ratio"}, {"sim.useful_event_share", "ratio"},
	{"pool.workers", "count"}, {"pool.busy_share", "ratio"},
	{"go.allocs_per_op", "count"}, {"go.gc_cpu_fraction", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// endToEnd lists every end-to-end metric with its unit; METRICS.md says
// what an "op" is on each workload. latency_p99_us and max_rate_ops are
// measured too, but only reported (in the summary and the stored record):
// on a shared virtual machine their run-to-run spread is wider than any
// useful regression bound.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"latency_p50_us", "us"}, {"cpu_us_per_op", "us"},
	{"admitted_share", "ratio"}, {"peak_rss_mb", "MiB"},
}

// setProbeLayer reports the estimator, controller and traffic probes.
func (r *run) setProbeLayer(p *simProbes) {
	r.setLayer("estimator.advance_calls", "count", float64(p.advance.calls.Load()))
	r.setLayer("estimator.update_calls", "count", float64(p.update.calls.Load()))
	r.setLayer("estimator.estimate_calls", "count", float64(p.estimate.calls.Load()))
	r.setLayer("estimator.advance_ns", "ns", p.advance.nsPerUnit())
	r.setLayer("estimator.update_ns", "ns", p.update.nsPerUnit())
	r.setLayer("estimator.estimate_ns", "ns", p.estimate.nsPerUnit())
	r.setLayer("core.admissible_calls", "count", float64(p.admissible.calls.Load()))
	r.setLayer("core.admissible_ns", "ns", p.admissible.nsPerUnit())
	r.setLayer("traffic.next_calls", "count", float64(p.next.calls.Load()))
	r.setLayer("traffic.next_ns", "ns", p.next.nsPerUnit())
	r.setLayer("traffic.advance_column_calls", "count", float64(p.advanceColumn.calls.Load()))
	r.setLayer("traffic.advance_column_ns", "ns", p.advanceColumn.nsPerUnit())
	r.setLayer("traffic.init_column_ns", "ns", p.initColumn.nsPerUnit())
}

var workloads = map[string]func(*run) error{
	"served-churn":       func(r *run) error { return runServed(r, false) },
	"served-reneg":       func(r *run) error { return runServed(r, true) },
	"continuous-rcbr":    runContinuous,
	"impulsive-ensemble": runImpulsive,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: served-churn, served-reneg, continuous-rcbr or impulsive-ensemble")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 25, "measured seconds per run")
		traceF   = flag.Int("trace", 0, "1: report the per-layer ledger from a traced run")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result records and traces")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceF != 0 && *traceF != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *workload)
		os.Exit(2)
	}
	if strings.HasPrefix(*workload, "served-") {
		runtime.GOMAXPROCS(servedProcs)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *traceF == 1, outDir: *outDir,
		e2e: map[string]metric{}, reported: map[string]metric{}, layer: map[string]metric{},
	}
	env := currentEnv(*seed)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))
	if r.trace {
		r.log = newSpanLog(1 << 18)
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if _, ok := r.e2e["peak_rss_mb"]; !ok {
		r.setE2E("peak_rss_mb", "MiB", peakRSSMiB())
	}
	os.Exit(r.finish(env))
}

// finish prints the human-readable summary and the result line, stores
// the full record, and returns the exit code.
func (r *run) finish(env environment) int {
	correct := true
	for _, c := range r.checks {
		correct = correct && c.OK
	}
	if len(r.invalid) > 0 {
		for _, why := range r.invalid {
			fmt.Printf("invalid: %s\n", why)
		}
		correct = false
	}
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	list := endToEnd
	src := r.e2e
	if r.trace {
		list, src = perLayer, r.layer
	}
	for _, m := range list {
		v, ok := src[m[0]]
		if !ok {
			v = metric{0, m[1]}
		}
		res.Metrics[m[0]] = v
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !r.trace {
		for _, n := range []string{"latency_p99_us", "max_rate_ops"} {
			if m, ok := r.reported[n]; ok {
				fmt.Printf("reported %-32s %14.6g %s (not gated)\n", n, m.Value, m.Unit)
			}
		}
	}
	if err := r.store(env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: storing the record: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// store writes the run's full record (environment, checks, result) and,
// for a traced run, its spans under outDir.
func (r *run) store(env environment, res result) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, map[bool]int{false: 0, true: 1}[r.trace])
	rec := map[string]any{
		"workload": r.workload, "seed": r.seed, "seconds": r.seconds, "trace": r.trace,
		"env": env, "checks": r.checks, "invalid": r.invalid, "result": res, "reported": r.reported,
		"finished": time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(r.outDir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if r.log != nil {
		path := filepath.Join(r.outDir, base+".spans.jsonl")
		if err := r.log.write(path); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans (%d over the cap dropped) in %s\n", len(r.log.spans), r.log.dropped, path)
	}
	return nil
}

// fmtUs formats nanoseconds as microseconds for the summary lines.
func fmtUs(ns int64) string { return fmt.Sprintf("%.1fµs", float64(ns)/1e3) }

// gomaxprocs is the worker count the pool and the served process use.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// joinFailures shortens a failure list for a check detail.
func joinFailures(fs []string) string {
	if len(fs) > 4 {
		fs = append(fs[:4:4], "...")
	}
	return strings.Join(fs, "; ")
}
