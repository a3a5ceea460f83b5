package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample holds the Go runtime counters the go layer reports.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
}

// runtimeDelta is the difference of two samples.
type runtimeDelta runtimeSample

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeDelta {
	return runtimeDelta{allocs: a.allocs - b.allocs, gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU}
}

// gcShare is the share of the runtime's CPU time spent in the collector.
func (d runtimeDelta) gcShare() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []int64, q float64) int64 {
	c := append([]int64(nil), xs...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return quantileSorted(c, q)
}

func quantileSorted(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// tailQuantile is the highest percentile with at least ten samples
// beyond it, for reporting beside p99.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// windowedP99 splits timed requests into consecutive windows of due time
// and returns the median over windows of each window's p99 (windows with
// fewer than 100 requests are skipped). On a shared virtual machine the
// vCPUs are descheduled now and then for ~10ms; each such stall delays
// every request due during it, which is enough to own a run's overall
// p99. The median window describes the system between stalls, and stays
// put from run to run; the overall p99 and the tail beyond it are
// reported beside it.
func windowedP99(lat, due []int64, window int64) int64 {
	type pt struct{ due, lat int64 }
	pts := make([]pt, len(lat))
	for i := range lat {
		pts[i] = pt{due[i], lat[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].due < pts[j].due })
	var p99s []float64
	var cur []int64
	flush := func() {
		if len(cur) >= 100 {
			p99s = append(p99s, float64(quantile(cur, 0.99)))
		}
		cur = cur[:0]
	}
	end := int64(-1)
	for _, p := range pts {
		if p.due >= end {
			flush()
			end = (p.due/window + 1) * window
		}
		cur = append(cur, p.lat)
	}
	flush()
	return int64(medianF(p99s))
}
