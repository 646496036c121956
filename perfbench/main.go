// Command perfbench is the repository's benchmark. It runs one workload
// through the public APIs of the simulator's packages and prints one JSON
// object as its last line of output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench --selftest [--seconds <s>]
//
// A run builds the workload's state several times from the seed's inputs
// (setup_s is the median set-up time) and measures windows of a fixed
// number of ops. Window 0, on the first state, is the recorded one: every
// virtual metric (vops_per_s, vlat_*) comes from it, so a single-driver
// workload reports bit-identical virtual metrics for a seed however fast
// the host is. Later windows fill --seconds of host time, spread over the
// states; host metrics are medians over windows, each window's time scaled
// to a reference host speed (speed.go). Every op's result is
// checked against an oracle, each state is read back and (on WineFS)
// audited after its windows, and window 0's virtual PM bandwidth is checked
// against the device model.
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. A traced run records a span around every call the
// driver makes into a layer during set-up 0 and window 0 (writing them to
// --spans as JSON lines), profiles the CPU over the untraced windows that
// follow for the per-package host split, and reports the tracing overhead
// as window 0's host ns/op minus the later windows' median.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"repro/internal/perf"
	"repro/internal/pmem"
	"repro/internal/sim"
)

// setupRounds is how many times a run builds the workload's state.
const setupRounds = 3

// workload is one benchmark workload. All state lives behind it; the run
// owns the measurement.
type workload interface {
	// setup builds a fresh state (the run releases the previous one).
	setup(r *run) error
	// window runs window w of measured ops (w == 0 is recorded) and
	// returns the op count and the window's virtual span.
	window(r *run, w int) (ops, vspan int64, err error)
	// more reports whether the state has room for another window.
	more() bool
	// snapshot sums the virtual state of every simulated thread.
	snapshot() snapshot
	// hugeCoverage is the share of faulted 2 MiB chunks of the mapped pool
	// served by hugepage translations (1 when nothing is mapped).
	hugeCoverage() float64
	// model is the PM device's cost model (for the bandwidth guard).
	model() *pmem.CostModel
	// hostThreads is how many goroutines drive the windows at once.
	hostThreads() int
	// finish runs the post-measurement oracle and image checks.
	finish(r *run) error
	release()
}

// snapshot is the virtual state of a workload at one instant.
type snapshot struct {
	now       int64 // latest virtual clock among its simulated threads
	counters  perf.Counters
	serverOps int64 // requests served by the file server (served-mix)
}

var workloads = map[string]func(seed uint64) workload{
	"part-aged-winefs":  func(seed uint64) workload { return newPartWorkload("WineFS", seed) },
	"part-aged-ext4dax": func(seed uint64) workload { return newPartWorkload("ext4-DAX", seed) },
	"served-mix":        func(seed uint64) workload { return newServedWorkload(seed) },
	"tier-hotspot":      func(seed uint64) workload { return newTierWorkload(seed) },
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"part-aged-winefs", "part-aged-ext4dax", "served-mix", "tier-hotspot"}

// run is the measurement state shared by a workload and the harness.
type run struct {
	tracing bool
	drivers []*driver
}

// newDriver hands out a driver for the simulated thread ctx; the run
// merges every driver's results at the end.
func (r *run) newDriver(ctx *sim.Ctx) *driver {
	d := &driver{ctx: ctx, tracing: r.tracing, idBase: int64(len(r.drivers)+1) << 32}
	r.drivers = append(r.drivers, d)
	return d
}

// stopTracing ends the traced part of the run: only set-up 0 and window 0
// record spans; later set-ups and windows run untraced.
func (r *run) stopTracing() {
	r.tracing = false
	for _, d := range r.drivers {
		d.tracing = false
	}
}

// hostWindow is one window's host cost, with the reference loop's time
// measured right after it.
type hostWindow struct {
	ops, wallNS, cpuNS, refNS int64
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report is a finished run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest   uint64
	problems []string
	lines    []string // human-readable notes printed before the JSON
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	tracing  bool
	spans    string
}

// recorded is window 0, the window every virtual metric comes from.
type recorded struct {
	pre, post  snapshot
	win        perf.Counters // counter delta over the window
	ops, vspan int64
	lat        []int64 // per-op virtual latencies, sorted
	cov        float64
	host       hostWindow
}

// recordWindow runs window 0 on the current state, then ends tracing.
func recordWindow(wl workload, r *run) (recorded, error) {
	var w recorded
	w.pre = wl.snapshot()
	c0, h0 := cpuNS(), hostNow()
	ops, vspan, err := wl.window(r, 0)
	h1, c1 := hostNow(), cpuNS()
	w.post = wl.snapshot()
	w.ops, w.vspan, w.host = ops, vspan, hostWindow{ops: ops, wallNS: h1 - h0, cpuNS: c1 - c0}
	w.win = w.post.counters
	w.win.Sub(&w.pre.counters)
	for _, d := range r.drivers {
		if d.record {
			w.lat = append(w.lat, d.lat...)
			d.record = false
		}
	}
	slices.Sort(w.lat)
	r.stopTracing()
	w.cov = wl.hugeCoverage()
	if err == nil && (ops <= 0 || vspan <= 0) {
		err = fmt.Errorf("no work done (ops %d, virtual span %d)", ops, vspan)
	}
	return w, err
}

func execute(cfg config) (*report, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	wl := mk(cfg.seed)
	defer wl.release()
	r := &run{tracing: cfg.tracing}
	rep := &report{Metrics: map[string]metric{}}
	problem := func(format string, args ...any) {
		rep.problems = append(rep.problems, fmt.Sprintf(format, args...))
	}

	// The run builds the state setupRounds times; each set-up is checked
	// to reach the same virtual state, since inputs come only from the
	// seed. Window 0 runs on the first state; later windows spread the
	// time budget over all of them, so no state runs long enough to fill
	// up. A traced run profiles the later windows. After each window the
	// reference loop measures the host's speed (speed.go).
	var (
		ref         *speedRef
		setupNS     []int64
		setupDigest uint64
		w0          recorded
		windows     []hostWindow
		profiles    [][]byte
		rt          runtimeUse
		measured    int64
		index       int
	)
	budget := int64(cfg.seconds * 1e9)
	for i := 0; i < setupRounds; i++ {
		start := int64(0) // the first set-up counts from process start
		if i > 0 {
			if err := wl.finish(r); err != nil {
				problem("set-up %d after its windows: %v", i-1, err)
			}
			// Free the previous state first, so the peak resident size
			// is that of one state and not of when the collector ran.
			wl.release()
			debug.FreeOSMemory()
			start = hostNow()
		}
		if err := wl.setup(r); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupNS = append(setupNS, hostNow()-start)
		// Start every state's windows from a collected heap (as testing.B
		// does), so set-up garbage does not set the first windows' pace.
		debug.FreeOSMemory()
		if dg := digestSnapshot(wl.snapshot()); i == 0 {
			setupDigest = dg
		} else if dg != setupDigest {
			problem("set-up %d reached a different virtual state than set-up 0", i)
		}

		if i == 0 {
			ref = newSpeedRef(wl.hostThreads())
			var err error
			if w0, err = recordWindow(wl, r); err != nil {
				return nil, fmt.Errorf("window 0: %w", err)
			}
			w0.host.refNS = ref.measure()
			if !cfg.tracing {
				windows = append(windows, w0.host)
			}
			measured = w0.host.wallNS + w0.host.refNS
		}

		var prof bytes.Buffer
		profiling := cfg.tracing && pprof.StartCPUProfile(&prof) == nil
		until := budget * int64(i+1) / setupRounds
		needOne := cfg.tracing && i == setupRounds-1 && len(windows) == 0
		for wl.more() && (measured < until || needOne) {
			needOne = false
			index++
			rt0 := readRuntime()
			c0, h0 := cpuNS(), hostNow()
			ops, _, err := wl.window(r, index)
			h1, c1 := hostNow(), cpuNS()
			rt.add(rt0, readRuntime())
			if err != nil {
				problem("window %d: %v", index, err)
				break
			}
			refNS := ref.measure()
			windows = append(windows, hostWindow{ops, h1 - h0, c1 - c0, refNS})
			measured += h1 - h0 + refNS
		}
		if profiling {
			pprof.StopCPUProfile()
			profiles = append(profiles, prof.Bytes())
		}
	}
	if err := wl.finish(r); err != nil {
		problem("after the measured phase: %v", err)
	}

	var spans []span
	var firstErr error
	for _, d := range r.drivers {
		rep.Attempted += d.attempted
		rep.Failed += d.failed
		if firstErr == nil {
			firstErr = d.firstErr
		}
		spans = append(spans, d.spans...)
	}
	if rep.Failed > 0 {
		problem("%d of %d ops failed; first: %v", rep.Failed, rep.Attempted, firstErr)
	}

	// Model-physics guard: the PM device may not move more bytes per
	// virtual second than its modelled bandwidth.
	m := wl.model()
	readGBps := float64(w0.win.PMReadBytes) / float64(w0.vspan)
	writeGBps := float64(w0.win.PMWriteBytes) / float64(w0.vspan)
	if readGBps > m.ReadBandwidth/1e9 || writeGBps > m.WriteBandwidth/1e9 {
		problem("virtual PM bandwidth %.2f GB/s read, %.2f GB/s write exceeds the model's %.2f / %.2f GB/s",
			readGBps, writeGBps, m.ReadBandwidth/1e9, m.WriteBandwidth/1e9)
	}

	// Determinism digest of the virtual outcome.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%v|", setupDigest, w0.ops, w0.vspan, w0.cov)
	digestCounters(h, &w0.win)
	for _, v := range w0.lat {
		fmt.Fprintf(h, "%d,", v)
	}
	rep.digest = h.Sum64()

	// Windows are scaled by the reference time after each; set-ups, each
	// too long for one reference time to stand for, by the median one.
	wall := func(w hostWindow) float64 { return scaled(w.wallNS, w.refNS) }
	hostNS := medianPerOp(windows, wall)
	refNS := make([]int64, len(windows))
	for i, w := range windows {
		refNS[i] = w.refNS
	}
	refMedian := int64(median(refNS))
	rep.lines = append(rep.lines, fmt.Sprintf(
		"host speed: reference loop %.2f ms (nominal %.2f); unscaled: wall %.1f ns/op, set-up %.4f s",
		float64(refMedian)/1e6, refNominalNS/1e6,
		medianPerOp(windows, func(w hostWindow) float64 { return float64(w.wallNS) }), median(setupNS)/1e9))
	if !cfg.tracing {
		rep.Metrics["setup_s"] = metric{scaled(int64(median(setupNS)), refMedian) / 1e9, "s"}
		rep.Metrics["host_ns_per_op"] = metric{hostNS, "ns"}
		rep.Metrics["host_cpu_ns_per_op"] = metric{medianPerOp(windows, func(w hostWindow) float64 { return scaled(w.cpuNS, w.refNS) }), "ns"}
		rep.Metrics["host_peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		rep.Metrics["vops_per_s"] = metric{float64(w0.ops) / float64(w0.vspan) * 1e9, "1/s"}
		rep.Metrics["vlat_p50_ns"] = metric{quantile(w0.lat, 0.50), "ns"}
		rep.Metrics["vlat_p99_ns"] = metric{quantile(w0.lat, 0.99), "ns"}
		rep.Metrics["vlat_p999_ns"] = metric{quantile(w0.lat, 0.999), "ns"}
	} else {
		l := layerInput{
			spans: spans, w0: w0, rt: rt, later: windows, profiles: profiles,
			overheadNS: wall(w0.host)/float64(w0.ops) - hostNS,
		}
		if err := addLayers(rep.Metrics, l); err != nil {
			problem("per-layer metrics: %v", err)
		}
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.lines = append(rep.lines, fmt.Sprintf("spans: %d written to %s", len(spans), path))
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("window 0: %d ops over %d virtual ns; %d host windows of ~%d ops over %d set-ups",
			w0.ops, w0.vspan, len(windows), w0.ops, setupRounds),
		fmt.Sprintf("huge_coverage %.4f (per-layer metric vmm.huge_coverage)", w0.cov),
		fmt.Sprintf("digest %016x", rep.digest))
	rep.Correct = len(rep.problems) == 0
	return rep, nil
}

// runtimeSample is the host runtime's allocation and GC state.
type runtimeSample struct {
	totalAlloc uint64
	heapInuse  uint64
	gcCPU      float64 // cumulative GC CPU seconds
	allCPU     float64 // cumulative CPU seconds available to the runtime
}

// runtimeUse sums the runtime's work over the later windows.
type runtimeUse struct {
	allocBytes    uint64
	gcCPU, allCPU float64
	heapBytes     uint64 // heap in use at the end of the last window
}

func (u *runtimeUse) add(from, to runtimeSample) {
	u.allocBytes += to.totalAlloc - from.totalAlloc
	u.gcCPU += to.gcCPU - from.gcCPU
	u.allCPU += to.allCPU - from.allCPU
	u.heapBytes = to.heapInuse
}

func main() {
	var cfg config
	var traceFlag int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the workload's generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory traced runs write spans to")
	flag.BoolVar(&selftest, "selftest", false, "run every workload and check determinism, held-out seed and per-layer coverage")
	flag.Parse()
	cfg.tracing = traceFlag != 0

	if selftest {
		os.Exit(runSelftest(cfg.seconds))
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Printf("perfbench %s seed=%d trace=%d\n", cfg.workload, cfg.seed, traceFlag)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
