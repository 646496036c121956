package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	lo, hi := math.Exp2(float64(137)/16), math.Exp2(float64(138)/16) // the bucket holding 380..396
	for _, c := range []struct {
		xs   []int64
		q    float64
		want float64
	}{
		{[]int64{0}, 0.5, 0.5},
		// Every sample in one bucket: linear in the rank across its bounds.
		{[]int64{390, 390, 390, 390}, 0.5, lo + 0.5*(hi-lo)},
		{[]int64{390, 390, 390, 390}, 0.25, lo + 0.25*(hi-lo)},
		// A quarter of the samples in a lower bucket shifts the median.
		{[]int64{100, 390, 390, 390}, 0.5, lo + (2.0-1)/3*(hi-lo)},
		// Rank 0.999·4 lies in the last bucket.
		{[]int64{100, 390, 390, 390}, 0.999, lo + (3.996-1)/3*(hi-lo)},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	// Within one bucket of the nearest-rank value on spread-out samples.
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(1000 + 7*i)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		exact := float64(xs[int(math.Ceil(q*1000))-1])
		if got := quantile(xs, q); math.Abs(got-exact)/exact > 0.045 {
			t.Errorf("quantile(q=%v) = %v, nearest rank %v", q, got, exact)
		}
	}
}

func TestSharePkg(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fsbase.(*File).MsyncRange": "fsbase",
		"repro/internal/apps/part.(*Tree).Lookup":  "part",
		"repro/internal/ext4dax.New":               "other",
		"runtime.mallocgc":                         "runtime",
		"internal/runtime/atomic.(*Uint32).Load":   "runtime",
		"sync.(*Mutex).Lock":                       "other",
		"main.(*driver).op":                        "other",
	} {
		if got := sharePkg(fn); got != want {
			t.Errorf("sharePkg(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*31 + uint64(i)
		}
	}
	return x
}

func TestHostSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes(), "")
	if err != nil {
		t.Fatal(err)
	}
	if flat["repro/perfbench.spin"] == 0 && flat["main.spin"] == 0 {
		t.Errorf("spin not in the flat profile: %v", flat)
	}
	for _, name := range []string{"repro/perfbench.spin", "main.spin"} {
		if left, err := flatByFunction(buf.Bytes(), name); err != nil || left[name] != 0 {
			t.Errorf("excluding %s left %v (err %v)", name, left[name], err)
		}
	}
	shares, err := hostShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}
