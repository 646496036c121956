package main

import "sync"

// Host time is reported at a reference host speed.
//
// The benchmark runs on shared machines whose speed drifts. On a 2-vCPU VM
// of a shared Xeon host, one workload's wall ns/op moved by up to 40%
// between runs a few minutes apart, and by up to 2x between 100 ms windows
// of one run, with the same simulated work in every window. A fixed
// reference loop timed between the windows slows down nearly in step
// (see refLoop). So a window's wall and CPU time are scaled by
// refNominalNS over the reference loop's time measured right after the
// window, and set-up time (one loop's time is too noisy to stand for a
// whole set-up) by refNominalNS over the run's median loop time. A change
// that makes the simulator faster lowers these metrics in proportion; a
// busier host does not raise them. The unscaled values are printed
// beside them.

const (
	// refArrayIters and refMapIters set the reference loop's two parts,
	// together 5-10 ms of host time.
	refArrayIters = 400_000
	refMapIters   = 100_000
	// refNominalNS is the loop time the metrics are scaled to: a fixed
	// value near its time on the 2-vCPU Xeon VM the bounds were set on,
	// so scaled values stay on the scale of that host's raw wall times.
	refNominalNS = 7e6
	// refWords and refKeys size the loop's array (8 MiB, past a core's
	// L2) and Go map.
	refWords = 1 << 20
	refKeys  = 1 << 14
)

// speedRef is the reference loop, run by as many goroutines at once as
// the workload drives (so a two-client workload sees both vCPUs' speed).
type speedRef struct {
	arrays [][]uint64
	maps   []map[uint64]uint64
}

func newSpeedRef(threads int) *speedRef {
	s := &speedRef{}
	for i := 0; i < threads; i++ {
		s.arrays = append(s.arrays, make([]uint64, refWords))
		s.maps = append(s.maps, make(map[uint64]uint64, refKeys))
	}
	s.measure() // fault the arrays in, fill the maps
	return s
}

// measure runs the loop once on every goroutine and returns the host ns
// until the last one finished.
func (s *speedRef) measure() int64 {
	t0 := hostNow()
	var wg sync.WaitGroup
	for i := range s.arrays {
		wg.Add(1)
		go func(a []uint64, m map[uint64]uint64) {
			defer wg.Done()
			refLoop(a, m)
		}(s.arrays[i], s.maps[i])
	}
	wg.Wait()
	return hostNow() - t0
}

// refLoop does a fixed amount of work in two parts: xorshift-driven
// reads and writes at random places in a, whose addresses do not depend
// on the data so the memory system overlaps them, then updates and
// lookups of m at random keys. Of seven loops tried (array, map, 4 KiB
// copies, arithmetic, and mixes of them), this one's time swung most
// nearly in step with the single-driver workloads' window times: over
// 17-18 runs spread across 18 minutes on the VM above, the ratio of
// window time to loop time spread by 0.03-0.07 (quartile distance over
// median) while raw wall time spread by 0.18-0.22. After the first call
// every key it touches is in m, so it does not allocate.
func refLoop(a []uint64, m map[uint64]uint64) uint64 {
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < refArrayIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		a[j] += sum
		sum += a[(j*7)&(refWords-1)]
	}
	for i := 0; i < refMapIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x&(refKeys-1)] += x
		sum += m[(x>>20)&(refKeys-1)]
	}
	return sum
}

// scaled converts host ns measured at the speed the reference loop saw
// (refNS for one loop) to ns at the nominal speed.
func scaled(ns, refNS int64) float64 {
	return float64(ns) * refNominalNS / float64(refNS)
}
