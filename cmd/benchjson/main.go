// Command benchjson converts `go test -bench` text output into a stable
// JSON document and diffs two such documents — the repository's benchmark
// regression harness (the Makefile's bench-json and bench-cmp targets).
//
// Capture mode (default) reads benchmark output from stdin or the -in file
// and writes JSON to stdout or the -out file:
//
//	go test -run '^$' -bench 'Gateway' -benchmem . | benchjson -out BENCH_gateway.json
//
// Compare mode diffs a current run against a committed baseline,
// benchstat-style (one row per benchmark, old/new/delta per measure):
//
//	benchjson -cmp BENCH_gateway.json BENCH_new.json [-threshold 20]
//
// With -threshold T (percent), compare mode exits nonzero when any
// benchmark's gated measures regress by more than T percent or its
// allocs/op increase at all — the contract the performance-budget docs
// reference. -metric is a comma-separated list of per-op units to gate
// (default ns/op); any captured unit qualifies (e.g. -metric
// ns/decision,allocs/op for the server bench, whose wall time per
// decision is the budgeted number rather than ns/op of the whole
// 128-frame round). allocs/op is special wherever it appears — and also
// when it doesn't: any increase fails, threshold notwithstanding.
// Benchmarks present in only one file, or missing a selected metric, are
// reported but never fail the comparison (the set is expected to grow).
//
// Capture mode records the environment next to the numbers: GOMAXPROCS
// (from the benchmark names' -N suffix, 1 when there is none), and the
// CPU count and Go version of benchjson's own process — `go run` builds it
// with the same toolchain, on the same machine, as the benchmarks it
// reads. Compare mode refuses (exit status 2) when both documents record
// one of these and they differ, and warns when either lacks one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result holds one benchmark's measures. Metrics carries every per-op
// value parsed from the line (including ns/op, B/op and allocs/op under
// their original units), so custom b.ReportMetric units survive the round
// trip.
type Result struct {
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_op"`
	BPerOp  float64            `json:"b_op"`
	Allocs  float64            `json:"allocs_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the JSON document: environment header plus name → result.
// GoMaxProcs is zero when the input mixed several GOMAXPROCS values.
type Doc struct {
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	GoMaxProcs int               `json:"gomaxprocs,omitempty"`
	NumCPU     int               `json:"num_cpu,omitempty"`
	GoVersion  string            `json:"go_version,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parse consumes `go test -bench` text output. Benchmark lines look like
//
//	BenchmarkName-8   123456   105.0 ns/op   12 B/op   0 allocs/op   64.00 flows/op
//
// with the -GOMAXPROCS suffix stripped from the name and recorded in the
// document header instead.
func parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: map[string]Result{}}
	procs := map[int]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // not a results line (e.g. a benchmark's log output)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			unit := fields[i+1]
			res.Metrics[unit] = v
			switch unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.Allocs = v
			}
		}
		p := 1 // go test omits the suffix at GOMAXPROCS=1
		if m := gomaxprocsSuffix.FindStringSubmatch(fields[0]); m != nil {
			p, _ = strconv.Atoi(m[1])
		}
		procs[p] = true
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		// -count replicates collapse to the fastest run: on a shared or
		// single-core machine the scheduler-noise tail is one-sided, so the
		// minimum is the stable estimator a regression gate can trust.
		if prev, ok := doc.Benchmarks[name]; ok && prev.NsPerOp <= res.NsPerOp {
			continue
		}
		doc.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found")
	}
	if len(procs) == 1 {
		for p := range procs {
			doc.GoMaxProcs = p
		}
	}
	return doc, nil
}

func load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &doc, nil
}

// delta formats a percentage change, benchstat-style.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "~"
		}
		return "+inf%"
	}
	return fmt.Sprintf("%+.2f%%", (new-old)/old*100)
}

// measure extracts one per-op value from a result: the Metrics map when
// the unit was captured there, falling back to the typed fields for the
// three standard units (documents written before the Metrics map carried
// only those).
func measure(r Result, metric string) (float64, bool) {
	if v, ok := r.Metrics[metric]; ok {
		return v, true
	}
	switch metric {
	case "ns/op":
		return r.NsPerOp, true
	case "B/op":
		return r.BPerOp, true
	case "allocs/op":
		return r.Allocs, true
	}
	return 0, false
}

// compare prints the diff table — one row per shared benchmark and gated
// metric — and returns true when the new run breaks the regression
// contract for any shared benchmark. The threshold gates every listed
// metric except allocs/op, which may never increase at all, listed or not.
func compare(w io.Writer, old, new *Doc, threshold float64, metrics []string) bool {
	names := map[string]bool{}
	for n := range old.Benchmarks {
		names[n] = true
	}
	for n := range new.Benchmarks {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	allocsListed := false
	for _, m := range metrics {
		if m == "allocs/op" {
			allocsListed = true
		}
	}

	tw := bufio.NewWriter(w)
	defer tw.Flush()
	fmt.Fprintf(tw, "%-40s %-14s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	failed := false
	for _, n := range sorted {
		o, haveOld := old.Benchmarks[n]
		c, haveNew := new.Benchmarks[n]
		for _, m := range metrics {
			ov, okOld := measure(o, m)
			cv, okNew := measure(c, m)
			switch {
			case !haveOld:
				fmt.Fprintf(tw, "%-40s %-14s %14s %14.1f %9s\n", n, m, "-", cv, "new")
			case !haveNew:
				fmt.Fprintf(tw, "%-40s %-14s %14.1f %14s %9s\n", n, m, ov, "-", "gone")
			case !okOld || !okNew:
				// The metric is absent on one side (e.g. a bench that never
				// reports it): show it, never gate on it.
				fmt.Fprintf(tw, "%-40s %-14s %14s %14s %9s\n", n, m, "-", "-", "~")
			default:
				fmt.Fprintf(tw, "%-40s %-14s %14.1f %14.1f %9s\n", n, m, ov, cv, delta(ov, cv))
				if threshold > 0 {
					if m == "allocs/op" {
						if cv > ov {
							fmt.Fprintf(tw, "  ^ FAIL: allocs/op increased\n")
							failed = true
						}
					} else if ov > 0 && (cv-ov)/ov*100 > threshold {
						fmt.Fprintf(tw, "  ^ FAIL: %s regressed beyond %.0f%%\n", m, threshold)
						failed = true
					}
				}
			}
		}
		// The allocs/op backstop holds even when it is not a listed metric.
		if !allocsListed && threshold > 0 && haveOld && haveNew && c.Allocs > o.Allocs {
			fmt.Fprintf(tw, "%-40s %-14s %14.0f %14.0f %9s\n  ^ FAIL: allocs/op increased\n",
				n, "allocs/op", o.Allocs, c.Allocs, delta(o.Allocs, c.Allocs))
			failed = true
		}
	}
	return failed
}

// checkEnv decides whether two documents may be compared. It returns an
// error naming every environment field both record with different values,
// and writes a warning to w for each field either one lacks.
func checkEnv(w io.Writer, old, new *Doc) error {
	itoa := func(n int) string {
		if n == 0 {
			return ""
		}
		return strconv.Itoa(n)
	}
	fields := []struct{ name, old, new string }{
		{"gomaxprocs", itoa(old.GoMaxProcs), itoa(new.GoMaxProcs)},
		{"num_cpu", itoa(old.NumCPU), itoa(new.NumCPU)},
		{"go_version", old.GoVersion, new.GoVersion},
	}
	var diffs []string
	for _, f := range fields {
		switch {
		case f.old == "":
			fmt.Fprintf(w, "benchjson: warning: the baseline does not record %s\n", f.name)
		case f.new == "":
			fmt.Fprintf(w, "benchjson: warning: the new run does not record %s\n", f.name)
		case f.old != f.new:
			diffs = append(diffs, fmt.Sprintf("%s %s vs %s", f.name, f.old, f.new))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("refusing to compare runs from different environments: %s", strings.Join(diffs, ", "))
	}
	return nil
}

// runCmp is compare mode: it loads both documents and returns the exit
// status — 0 on pass, 1 on a regression or a load error, 2 when the
// environments differ.
func runCmp(stdout, stderr io.Writer, oldPath, newPath string, threshold float64, metrics []string) int {
	oldDoc, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	newDoc, err := load(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if err := checkEnv(stderr, oldDoc, newDoc); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	if compare(stdout, oldDoc, newDoc, threshold, metrics) {
		return 1
	}
	return 0
}

func main() {
	var (
		in        = flag.String("in", "", "benchmark text input (default stdin)")
		out       = flag.String("out", "", "JSON output path (default stdout)")
		cmp       = flag.Bool("cmp", false, "compare two JSON documents: benchjson -cmp old.json new.json")
		threshold = flag.Float64("threshold", 0, "in -cmp mode, fail if a gated metric regresses beyond this percent or allocs/op grow (0 = report only)")
		metric    = flag.String("metric", "ns/op", "in -cmp mode, comma-separated per-op measures the threshold gates (any captured units, e.g. ns/decision,allocs/op)")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchjson -cmp old.json new.json"))
		}
		metrics := strings.Split(*metric, ",")
		for i := range metrics {
			metrics[i] = strings.TrimSpace(metrics[i])
		}
		os.Exit(runCmp(os.Stdout, os.Stderr, flag.Arg(0), flag.Arg(1), *threshold, metrics))
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	doc, err := parse(src)
	if err != nil {
		fatal(err)
	}
	doc.NumCPU, doc.GoVersion = runtime.NumCPU(), runtime.Version()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
