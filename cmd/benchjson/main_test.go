package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGatewayAdmit             	23950407	       105.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkGatewayAdmitBatch-8      	  411355	      5985 ns/op	        64.00 flows/op	       0 B/op	       0 allocs/op
BenchmarkProp31Impulsive          	      92	  12774407 ns/op	        93.43 M0_mean	         0.9239 sd_ratio_vs_theory
some unrelated log line
PASS
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoOS != "linux" || doc.GoArch != "amd64" || !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("header: %+v", doc)
	}
	admit, ok := doc.Benchmarks["BenchmarkGatewayAdmit"]
	if !ok || admit.NsPerOp != 105.0 || admit.Allocs != 0 || admit.Iters != 23950407 {
		t.Fatalf("admit: %+v (found %v)", admit, ok)
	}
	// The -GOMAXPROCS suffix is stripped and custom metrics survive.
	batch, ok := doc.Benchmarks["BenchmarkGatewayAdmitBatch"]
	if !ok || batch.Metrics["flows/op"] != 64 || batch.NsPerOp != 5985 {
		t.Fatalf("batch: %+v (found %v)", batch, ok)
	}
	if _, ok := doc.Benchmarks["BenchmarkProp31Impulsive"]; !ok {
		t.Fatal("custom-metric-only benchmark missing")
	}
}

// TestParseCountCollapsesToFastest: replicate lines from -count N keep
// the minimum-ns/op run, whichever order they arrive in.
func TestParseCountCollapsesToFastest(t *testing.T) {
	doc, err := parse(strings.NewReader(`
BenchmarkX-8   100   300.0 ns/op   7.0 widgets/op
BenchmarkX-8   100   200.0 ns/op   5.0 widgets/op
BenchmarkX-8   100   250.0 ns/op   6.0 widgets/op
`))
	if err != nil {
		t.Fatal(err)
	}
	x := doc.Benchmarks["BenchmarkX"]
	if x.NsPerOp != 200 || x.Metrics["widgets/op"] != 5 {
		t.Fatalf("want the 200 ns/op replicate kept whole, got %+v", x)
	}
}

// TestParseRecordsGOMAXPROCS: the -N suffix becomes the header's
// gomaxprocs, no suffix means 1, and a mix of values records none.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for in, want := range map[string]int{
		"BenchmarkX-2 100 3.0 ns/op\nBenchmarkY-2 100 4.0 ns/op\n": 2,
		"BenchmarkX 100 3.0 ns/op\n":                               1,
		"BenchmarkX 100 3.0 ns/op\nBenchmarkY-8 100 4.0 ns/op\n":   0,
	} {
		doc, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if doc.GoMaxProcs != want {
			t.Errorf("%q: gomaxprocs %d, want %d", in, doc.GoMaxProcs, want)
		}
	}
}

// TestCmpRefusesMismatchedEnv: compare mode exits 2, before printing any
// table, when both documents record an environment field and it differs;
// a baseline that lacks the fields only draws a warning.
func TestCmpRefusesMismatchedEnv(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, d Doc) string {
		t.Helper()
		d.Benchmarks = map[string]Result{"BenchmarkX": {NsPerOp: 100}}
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", Doc{GoMaxProcs: 1, NumCPU: 2, GoVersion: "go1.24.0"})
	same := write("same.json", Doc{GoMaxProcs: 1, NumCPU: 2, GoVersion: "go1.24.0"})
	procs := write("procs.json", Doc{GoMaxProcs: 2, NumCPU: 2, GoVersion: "go1.24.0"})
	bare := write("bare.json", Doc{})

	var out, errOut strings.Builder
	if code := runCmp(&out, &errOut, base, procs, 20, []string{"ns/op"}); code != 2 {
		t.Fatalf("mismatched gomaxprocs: exit %d, want 2 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "gomaxprocs 1 vs 2") || out.Len() != 0 {
		t.Fatalf("refusal must name the field and print no table: stdout %q stderr %q", out.String(), errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := runCmp(&out, &errOut, base, same, 20, []string{"ns/op"}); code != 0 || errOut.Len() != 0 {
		t.Fatalf("same environment: exit %d, stderr %q", code, errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := runCmp(&out, &errOut, bare, same, 20, []string{"ns/op"}); code != 0 {
		t.Fatalf("unrecorded baseline: exit %d, want 0", code)
	}
	if !strings.Contains(errOut.String(), "baseline does not record gomaxprocs") {
		t.Fatalf("unrecorded baseline must warn: %q", errOut.String())
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok repro 1s\n")); err == nil {
		t.Fatal("want error for input without benchmarks")
	}
}

func TestCompare(t *testing.T) {
	oldDoc := &Doc{Benchmarks: map[string]Result{
		"BenchmarkA":    {NsPerOp: 100, Allocs: 0},
		"BenchmarkB":    {NsPerOp: 50, Allocs: 2},
		"BenchmarkGone": {NsPerOp: 1},
	}}
	newDoc := &Doc{Benchmarks: map[string]Result{
		"BenchmarkA":   {NsPerOp: 90, Allocs: 0}, // improved: fine
		"BenchmarkB":   {NsPerOp: 80, Allocs: 2}, // +60%: beyond threshold
		"BenchmarkNew": {NsPerOp: 5, Allocs: 1},  // only in new: never fails
	}}
	var buf strings.Builder
	if failed := compare(&buf, oldDoc, newDoc, 0, []string{"ns/op"}); failed {
		t.Fatal("threshold 0 must be report-only")
	}
	buf.Reset()
	if failed := compare(&buf, oldDoc, newDoc, 20, []string{"ns/op"}); !failed {
		t.Fatalf("60%% regression must fail a 20%% threshold:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Fatalf("failure not reported:\n%s", buf.String())
	}

	// An allocs/op increase fails regardless of how small.
	newDoc.Benchmarks["BenchmarkA"] = Result{NsPerOp: 90, Allocs: 1}
	newDoc.Benchmarks["BenchmarkB"] = Result{NsPerOp: 50, Allocs: 2}
	buf.Reset()
	if failed := compare(&buf, oldDoc, newDoc, 20, []string{"ns/op"}); !failed {
		t.Fatalf("alloc increase must fail:\n%s", buf.String())
	}
}

// TestCompareCustomMetric pins the -metric selector: the threshold gates
// the named per-op measure instead of ns/op, and a benchmark missing the
// metric is reported but never gated on it.
func TestCompareCustomMetric(t *testing.T) {
	oldDoc := &Doc{Benchmarks: map[string]Result{
		"BenchmarkServerAdmit": {NsPerOp: 40000, Metrics: map[string]float64{"ns/decision": 290}},
		"BenchmarkOther":       {NsPerOp: 100},
	}}
	newDoc := &Doc{Benchmarks: map[string]Result{
		"BenchmarkServerAdmit": {NsPerOp: 39000, Metrics: map[string]float64{"ns/decision": 400}},
		"BenchmarkOther":       {NsPerOp: 500}, // no ns/decision: not gated
	}}
	var buf strings.Builder
	if failed := compare(&buf, oldDoc, newDoc, 20, []string{"ns/decision"}); !failed {
		t.Fatalf("+38%% ns/decision must fail a 20%% threshold even though ns/op improved:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ns/decision regressed") {
		t.Fatalf("failure must name the gated metric:\n%s", buf.String())
	}

	newDoc.Benchmarks["BenchmarkServerAdmit"] = Result{NsPerOp: 39000, Metrics: map[string]float64{"ns/decision": 300}}
	buf.Reset()
	if failed := compare(&buf, oldDoc, newDoc, 20, []string{"ns/decision"}); failed {
		t.Fatalf("+3.4%% ns/decision within a 20%% threshold must pass:\n%s", buf.String())
	}

	// ns/op falls back to the typed field when absent from the Metrics map.
	buf.Reset()
	if failed := compare(&buf, oldDoc, newDoc, 20, []string{"ns/op"}); !failed {
		t.Fatalf("BenchmarkOther's 5x ns/op regression must still gate under the default metric:\n%s", buf.String())
	}
}

// TestCompareMultiMetric pins the comma-separated -metric path: every
// listed measure is thresholded independently, allocs/op fails on any
// increase whether listed or not, and a measure absent on one side is
// shown but never gated.
func TestCompareMultiMetric(t *testing.T) {
	oldDoc := &Doc{Benchmarks: map[string]Result{
		"BenchmarkSim": {NsPerOp: 650000, Allocs: 8, Metrics: map[string]float64{"ns/op": 650000, "allocs/op": 8}},
		"BenchmarkOdd": {NsPerOp: 100, Allocs: 0},
	}}
	pass := &Doc{Benchmarks: map[string]Result{
		"BenchmarkSim": {NsPerOp: 700000, Allocs: 8, Metrics: map[string]float64{"ns/op": 700000, "allocs/op": 8}},
		"BenchmarkOdd": {NsPerOp: 105, Allocs: 0},
	}}
	var buf strings.Builder
	if failed := compare(&buf, oldDoc, pass, 20, []string{"ns/op", "allocs/op"}); failed {
		t.Fatalf("+7.7%% ns/op with flat allocs must pass both gates:\n%s", buf.String())
	}

	// Second listed metric trips on any increase (allocs/op is absolute).
	allocUp := &Doc{Benchmarks: map[string]Result{
		"BenchmarkSim": {NsPerOp: 640000, Allocs: 9, Metrics: map[string]float64{"ns/op": 640000, "allocs/op": 9}},
		"BenchmarkOdd": {NsPerOp: 100, Allocs: 0},
	}}
	buf.Reset()
	if failed := compare(&buf, oldDoc, allocUp, 20, []string{"ns/op", "allocs/op"}); !failed {
		t.Fatalf("+1 alloc/op must fail even at 12%% under threshold on time:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "allocs/op increased") {
		t.Fatalf("failure must name allocs/op:\n%s", buf.String())
	}

	// The allocs backstop holds when allocs/op is not listed at all.
	buf.Reset()
	if failed := compare(&buf, oldDoc, allocUp, 20, []string{"ns/op"}); !failed {
		t.Fatalf("unlisted allocs/op increase must still fail:\n%s", buf.String())
	}

	// First listed metric trips on the percent threshold.
	timeUp := &Doc{Benchmarks: map[string]Result{
		"BenchmarkSim": {NsPerOp: 900000, Allocs: 8, Metrics: map[string]float64{"ns/op": 900000, "allocs/op": 8}},
		"BenchmarkOdd": {NsPerOp: 100, Allocs: 0},
	}}
	buf.Reset()
	if failed := compare(&buf, oldDoc, timeUp, 20, []string{"ns/op", "allocs/op"}); !failed {
		t.Fatalf("+38%% ns/op must fail a 20%% threshold:\n%s", buf.String())
	}

	// A metric only one benchmark reports gates that benchmark alone;
	// BenchmarkOdd (no allocs metric beyond the typed 0) never trips.
	buf.Reset()
	if failed := compare(&buf, oldDoc, pass, 20, []string{"ns/op", "widgets/op"}); failed {
		t.Fatalf("a measure absent everywhere must never gate:\n%s", buf.String())
	}
}
