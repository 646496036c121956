package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// layerInput is what a traced run knows when it derives per-layer metrics.
type layerInput struct {
	spans []span
	// w0 is window 0. Its counter delta covers every simulated thread;
	// w0.post.counters adds set-up 0 (the state is fresh at each set-up).
	w0 recorded
	// rt, later and profiles cover the untraced windows after window 0.
	rt       runtimeUse
	later    []hostWindow
	profiles [][]byte
	// overheadNS is window 0's host ns/op (traced) minus the later
	// windows' median.
	overheadNS float64
}

// fileserverOps are the client calls served-mix makes.
var fileserverOps = []string{"create", "append", "fsync", "read", "close", "open", "rename", "unlink", "stat"}

// hostSharePkgs are the packages the CPU profile is split into.
var hostSharePkgs = []string{"fsbase", "winefs", "vmm", "mmu", "pmem", "sim", "fileserver", "tier", "part", "runtime", "other"}

// addLayers adds every per-layer metric. A layer the workload does not
// exercise reads 0.
func addLayers(m map[string]metric, in layerInput) error {
	ops := float64(in.w0.ops)
	per := func(v int64) float64 { return float64(v) / ops }
	byName := map[string][]*span{}
	for i := range in.spans {
		s := &in.spans[i]
		byName[s.Name] = append(byName[s.Name], s)
	}
	durations := func(name string, dur func(*span) int64) []int64 {
		xs := make([]int64, 0, len(byName[name]))
		for _, s := range byName[name] {
			xs = append(xs, dur(s))
		}
		return xs
	}
	// Host medians are exact; virtual ones are estimated like vlat_p50_ns.
	medHost := func(name string) float64 { return median(durations(name, (*span).hostNS)) }
	medV := func(name string) float64 {
		xs := durations(name, (*span).vNS)
		slices.Sort(xs)
		return quantile(xs, 0.5)
	}
	w, t := &in.w0.win, &in.w0.post.counters

	m["geriatrix.host_s"] = metric{medHost("geriatrix.Ager.Run") / 1e9, "s"}

	// part.New is the pool's create, fallocate, vmm.Map and prefault.
	m["vmm.map.host_s"] = metric{medHost("part.New") / 1e9, "s"}
	m["vmm.huge_coverage"] = metric{in.w0.cov, "ratio"}
	m["vmm.huge_faults"] = metric{float64(t.VMMHugeFaults), "count"}
	m["vmm.base_faults"] = metric{float64(t.VMMBaseFaults), "count"}
	m["vmm.msyncs"] = metric{float64(w.VMMMsyncs), "count"}
	m["vmm.msync_bytes_per_op"] = metric{per(w.VMMMsyncBytes), "B"}
	m["vmm.fault_vns"] = metric{float64(t.FaultNS), "ns"}

	m["part.insert.host_ns"] = metric{medHost("part.Insert"), "ns"}
	m["part.lookup.host_ns"] = metric{medHost("part.Lookup"), "ns"}
	m["part.insert.vns"] = metric{medV("part.Insert"), "ns"}
	m["part.lookup.vns"] = metric{medV("part.Lookup"), "ns"}

	m["mmu.tlb_miss_ratio"] = metric{ratio(float64(w.TLBMisses), float64(w.TLBMisses+w.TLBHits)), "ratio"}
	m["mmu.llc_miss_ratio"] = metric{ratio(float64(w.LLCMisses), float64(w.LLCMisses+w.LLCHits)), "ratio"}
	m["mmu.page_walk_vns_per_op"] = metric{per(w.PageWalkNS), "ns"}

	m["winefs.read.host_ns"] = metric{medHost("winefs.File.ReadAt"), "ns"}
	m["winefs.write.host_ns"] = metric{medHost("winefs.File.WriteAt"), "ns"}
	m["winefs.read.vns"] = metric{medV("winefs.File.ReadAt"), "ns"}
	m["winefs.write.vns"] = metric{medV("winefs.File.WriteAt"), "ns"}

	m["winefs.journal_commits_per_op"] = metric{per(w.JournalCommits), "count"}
	m["winefs.journal_bytes_per_op"] = metric{per(w.JournalBytes), "B"}
	m["winefs.journal_vns_per_op"] = metric{per(w.JournalNS), "ns"}
	m["winefs.alloc_splits"] = metric{float64(t.AllocSplits), "count"}
	m["winefs.alloc_steals"] = metric{float64(t.AllocSteals), "count"}
	m["winefs.syscall_vns_per_op"] = metric{per(w.SyscallNS), "ns"}

	m["sim.lock_wait_vns_per_op"] = metric{per(w.LockWaitNS), "ns"}

	m["pmem.read_bytes_per_op"] = metric{per(w.PMReadBytes), "B"}
	m["pmem.write_bytes_per_op"] = metric{per(w.PMWriteBytes), "B"}
	m["pmem.copy_vns_per_op"] = metric{per(w.CopyNS), "ns"}
	m["pmem.zero_vns_per_op"] = metric{per(w.ZeroNS), "ns"}
	m["pmem.read_gbps"] = metric{float64(w.PMReadBytes) / float64(in.w0.vspan), "GB/s"}
	m["pmem.write_gbps"] = metric{float64(w.PMWriteBytes) / float64(in.w0.vspan), "GB/s"}

	for _, op := range fileserverOps {
		m["fileserver."+op+".host_ns"] = metric{medHost("fileserver." + op), "ns"}
		m["fileserver."+op+".vns"] = metric{medV("fileserver." + op), "ns"}
	}
	m["fileserver.server_ops_per_client_op"] = metric{per(in.w0.post.serverOps - in.w0.pre.serverOps), "ratio"}

	m["tier.pass.host_ms"] = metric{medHost("winefs.FS.TierPass") / 1e6, "ms"}
	m["tier.pass.vns"] = metric{medV("winefs.FS.TierPass"), "ns"}
	m["tier.slow_reads_per_op"] = metric{per(w.SlowReads), "count"}
	m["tier.slow_read_bytes_per_op"] = metric{per(w.SlowReadBytes), "B"}
	m["tier.demoted_blocks"] = metric{float64(t.TierDemotedBlocks), "count"}
	m["tier.promoted_blocks"] = metric{float64(t.TierPromotedBlocks), "count"}
	pmHit := 0.0
	if reads := byName["winefs.File.ReadAt"]; len(reads) > 0 {
		hits := 0
		for _, s := range reads {
			if s.Delta.SlowReads == 0 {
				hits++
			}
		}
		pmHit = float64(hits) / float64(len(reads))
	}
	m["tier.pm_hit_ratio"] = metric{pmHit, "ratio"}

	var laterOps int64
	for _, lw := range in.later {
		laterOps += lw.ops
	}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(float64(in.rt.allocBytes), float64(laterOps)), "B"}
	m["runtime.gc_cpu_fraction"] = metric{ratio(in.rt.gcCPU, in.rt.allCPU), "ratio"}
	m["runtime.heap_mb"] = metric{float64(in.rt.heapBytes) / (1 << 20), "MB"}

	m["trace.overhead_ns_per_op"] = metric{in.overheadNS, "ns"}
	m["trace.spans"] = metric{float64(len(in.spans)), "count"}

	shares, err := hostShares(in.profiles)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, p := range hostSharePkgs {
		m["host_share."+p] = metric{shares[p], "ratio"}
	}
	return nil
}

// hostShares splits the flat CPU samples of profiles by package.
func hostShares(profiles [][]byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	for _, p := range profiles {
		flat, err := flatByFunction(p, "main.refLoop") // not the program
		if err != nil {
			return nil, err
		}
		for fn, v := range flat {
			shares[sharePkg(fn)] += float64(v)
			total += float64(v)
		}
	}
	if total == 0 {
		return nil, errors.New("no CPU samples")
	}
	for p := range shares {
		shares[p] /= total
	}
	return shares, nil
}

// sharePkg maps a profiled function name to its host_share bucket.
func sharePkg(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "repro/internal/apps/part":
		return "part"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, p := range hostSharePkgs {
			if name == p {
				return p
			}
		}
	}
	return "other"
}
