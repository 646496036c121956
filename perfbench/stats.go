package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"slices"

	"repro/internal/perf"
)

// median of xs (the mean of the two middle values for an even count).
func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

// medianPerOp is the median over windows of cost(w)/ops.
func medianPerOp(ws []hostWindow, cost func(hostWindow) float64) float64 {
	xs := make([]float64, 0, len(ws))
	for _, w := range ws {
		if w.ops > 0 {
			xs = append(xs, cost(w)/float64(w.ops))
		}
	}
	return median(xs)
}

// bucketsPerOctave sets the resolution of quantile: bucket i holds
// values in [2^(i/16), 2^((i+1)/16)), about 4.4% wide.
const bucketsPerOctave = 16

// quantile estimates the q-quantile of sorted samples the way a latency
// histogram does: it finds the log-spaced bucket holding rank q·n and
// interpolates linearly inside that bucket's bounds. The estimate is
// always within one bucket (~4.4%) of the nearest-rank value. Virtual
// latencies take only a few distinct values (a lookup costs one of a
// handful of cache and TLB paths), so the nearest-rank percentile is one
// model constant for every input; the interpolated one also moves with
// the share of ops at or below that constant, and does so continuously.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	bucket := func(v int64) int {
		if v < 1 {
			return -1 // [0, 1)
		}
		return int(math.Floor(math.Log2(float64(v)) * bucketsPerOctave))
	}
	bound := func(b int) float64 {
		if b < 0 {
			return 0
		}
		return math.Exp2(float64(b) / bucketsPerOctave)
	}
	for i := 0; i < n; {
		b := bucket(sorted[i])
		j := i
		for j < n && bucket(sorted[j]) == b {
			j++
		}
		if float64(j) >= rank || j == n {
			lo, hi := bound(b), bound(b+1)
			f := (rank - float64(i)) / float64(j-i)
			return lo + math.Max(0, math.Min(1, f))*(hi-lo)
		}
		i = j
	}
	return float64(sorted[n-1])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestCounters feeds every counter, by name, into h.
func digestCounters(h hash.Hash64, c *perf.Counters) {
	for _, f := range c.Fields() {
		fmt.Fprintf(h, "%s=%d;", f.Name, f.Value)
	}
}

// digestSnapshot digests a workload's virtual state.
func digestSnapshot(s snapshot) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "now=%d;served=%d;", s.now, s.serverOps)
	digestCounters(h, &s.counters)
	return h.Sum64()
}

// readRuntime samples the Go runtime's allocation and GC accounting.
func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		totalAlloc: uint64(get(0)),
		heapInuse:  uint64(get(1)),
		gcCPU:      get(2),
		allCPU:     get(3),
	}
}
