package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// Seeds of the self-test. selftestHeldOutSeed was not used while the
// benchmark's sizes were chosen; every check must pass on it too.
const (
	selftestSeed        = 1
	selftestHeldOutSeed = 424242
	selftestServedRuns  = 3
)

// childRun is one benchmark run in a child process (peak RSS is per
// process, so each run gets its own).
type childRun struct {
	report
	digest string
}

func runChild(exe, workload string, seed uint64, seconds float64, trace int) (childRun, error) {
	var cr childRun
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return cr, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "digest "); ok {
			cr.digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.report); err != nil {
		return cr, fmt.Errorf("%s: last line is not the result: %w", workload, err)
	}
	return cr, nil
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

// runSelftest runs every workload and checks what a single run cannot:
// determinism across runs (traced and untraced), the per-layer metric set,
// the host profile split, a held-out seed, and the hugepage-coverage
// expectations. It prints the paper reference line. Returns the exit code.
func runSelftest(seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selftest:", err)
		return 1
	}
	var spec benchmarkSpec
	if raw, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: run from the repository root:", err)
		return 1
	} else if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "selftest: BENCHMARK.json:", err)
		return 1
	}
	failures := 0
	check := func(ok bool, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%s %s\n", status, fmt.Sprintf(format, args...))
	}
	must := func(cr childRun, err error) (childRun, bool) {
		if err != nil {
			check(false, "%v", err)
			return cr, false
		}
		return cr, true
	}
	hasAll := func(cr childRun, names []struct{ Name string }, what string) {
		var missing []string
		for _, n := range names {
			if _, ok := cr.Metrics[n.Name]; !ok {
				missing = append(missing, n.Name)
			}
		}
		check(len(missing) == 0, "%s metrics all reported (missing: %v)", what, missing)
	}

	untraced := map[string]childRun{}
	traced := map[string]childRun{}
	for _, wl := range workloadNames {
		fmt.Printf("--- %s (seed %d)\n", wl, selftestSeed)
		u, ok1 := must(runChild(exe, wl, selftestSeed, seconds, 0))
		t, ok2 := must(runChild(exe, wl, selftestSeed, seconds, 1))
		if !ok1 || !ok2 {
			continue
		}
		untraced[wl], traced[wl] = u, t
		check(u.Correct && t.Correct, "%s: outputs correct (%d and %d ops, %d and %d failed)",
			wl, u.Attempted, t.Attempted, u.Failed, t.Failed)
		hasAll(u, spec.EndToEnd, wl+" end-to-end")
		hasAll(t, spec.PerLayer, wl+" per-layer")
		sum := 0.0
		for _, p := range hostSharePkgs {
			sum += t.Metrics["host_share."+p].Value
		}
		check(math.Abs(sum-1) < 0.01, "%s: host_share.* sums to %.4f", wl, sum)
		fmt.Printf("     %s: tracing overhead %.0f ns/op over %.0f ns/op untraced\n",
			wl, t.Metrics["trace.overhead_ns_per_op"].Value, u.Metrics["host_ns_per_op"].Value)
		if wl == "served-mix" {
			// Two clients contend in host goroutine order, so virtual
			// results are not bit-identical; report their spread.
			ops := []float64{u.Metrics["vops_per_s"].Value}
			p99 := []float64{u.Metrics["vlat_p99_ns"].Value}
			for i := 1; i < selftestServedRuns; i++ {
				if r, ok := must(runChild(exe, wl, selftestSeed, seconds, 0)); ok {
					check(r.Correct, "%s: run %d correct", wl, i+1)
					ops = append(ops, r.Metrics["vops_per_s"].Value)
					p99 = append(p99, r.Metrics["vlat_p99_ns"].Value)
				}
			}
			fmt.Printf("     %s: spread over %d runs of one seed: vops_per_s %.2f%%, vlat_p99_ns %.2f%%\n",
				wl, len(ops), 100*spread(ops), 100*spread(p99))
			continue
		}
		check(u.digest != "" && u.digest == t.digest, "%s: traced and untraced runs give one digest (%s, %s)",
			wl, u.digest, t.digest)
	}
	if t, ok := traced["part-aged-winefs"]; ok {
		c := t.Metrics["vmm.huge_coverage"].Value
		check(c == 1, "part-aged-winefs: huge coverage %.4f == 1", c)
	}
	if t, ok := traced["part-aged-ext4dax"]; ok {
		c := t.Metrics["vmm.huge_coverage"].Value
		check(c < 0.1, "part-aged-ext4dax: huge coverage %.4f < 0.1", c)
	}

	fmt.Printf("--- held-out seed %d\n", selftestHeldOutSeed)
	for _, wl := range workloadNames {
		if r, ok := must(runChild(exe, wl, selftestHeldOutSeed, seconds, 0)); ok {
			check(r.Correct, "%s: outputs correct on the held-out seed (%d ops, %d failed)", wl, r.Attempted, r.Failed)
		}
	}

	// Paper reference line (reported, not gated).
	w, okW := untraced["part-aged-winefs"]
	e, okE := untraced["part-aged-ext4dax"]
	tw, okTW := traced["part-aged-winefs"]
	te, okTE := traced["part-aged-ext4dax"]
	if okW && okE && okTW && okTE {
		p50w, p50e := w.Metrics["vlat_p50_ns"].Value, e.Metrics["vlat_p50_ns"].Value
		tlbW, tlbE := tw.Metrics["mmu.tlb_miss_ratio"].Value, te.Metrics["mmu.tlb_miss_ratio"].Value
		tlbX := "inf"
		if tlbW > 0 {
			tlbX = fmt.Sprintf("%.1fx", tlbE/tlbW)
		}
		fmt.Println("--- paper reference (Figure 8; reported, not gated)")
		fmt.Printf("     lookup-dominated vlat_p50_ns: WineFS %.0f ns vs ext4-DAX %.0f ns = %.1f%% lower (paper: 56%% lower median)\n",
			p50w, p50e, 100*(1-p50w/p50e))
		fmt.Printf("     TLB miss ratio: WineFS %.4f vs ext4-DAX %.4f = %s fewer on WineFS (paper: 2x fewer)\n", tlbW, tlbE, tlbX)
		fmt.Printf("     huge_coverage: WineFS %.3f, ext4-DAX %.3f\n",
			tw.Metrics["vmm.huge_coverage"].Value, te.Metrics["vmm.huge_coverage"].Value)
		fmt.Println("     The model has no other validation against real hardware.")
	}
	if failures > 0 {
		fmt.Printf("selftest: %d checks FAILED\n", failures)
		return 1
	}
	fmt.Println("selftest: all checks passed")
	return 0
}

// spread is (max-min)/median.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return ratio(hi-lo, median(xs))
}
