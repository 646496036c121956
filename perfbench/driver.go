package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/perf"
	"repro/internal/sim"
)

// procStart anchors every host timestamp the benchmark takes; setup_s of
// the first set-up counts from here.
var procStart = time.Now()

// hostNow is monotonic host nanoseconds since process start.
func hostNow() int64 { return int64(time.Since(procStart)) }

// errMismatch marks an op whose result disagreed with the oracle.
var errMismatch = errors.New("oracle mismatch")

// filler is fixed pseudo-random content. The data workloads write is a
// slice of it stamped with the data's identity, so making or checking a
// block costs a copy (and a compare), not a byte-by-byte generator.
var filler = func() []byte {
	b := make([]byte, 64<<10)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], mix64(uint64(i)))
	}
	return b
}()

// stamped fills p (at most len(filler) bytes) with the content of data
// (id, version): filler from an offset picked by both, with id and
// version written over the first and last 16 bytes.
func stamped(p []byte, id, version uint64) {
	off := mix64(id*0x9e3779b97f4a7c15^version) % uint64(len(filler)-len(p)+1)
	copy(p, filler[off:])
	if len(p) >= 32 {
		for _, at := range []int{0, len(p) - 16} {
			binary.LittleEndian.PutUint64(p[at:], id)
			binary.LittleEndian.PutUint64(p[at+8:], version)
		}
	}
}

// span is one driver call into a layer of the program, recorded only in
// traced runs. IDs are unique within a run; Parent is 0 for a root span.
// Op identifies the measured op the call serves (unique within the run;
// the driver's ID base plus the op's index in the window), or is -1 for a
// call that is not a measured op (set-up steps, migration passes, audits).
type span struct {
	Name         string
	ID, Parent   int64
	Op           int64
	Host0, Host1 int64 // host ns since process start
	V0, V1       int64 // virtual ns of the calling simulated thread
	Delta        perf.Counters
}

func (s *span) hostNS() int64 { return s.Host1 - s.Host0 }
func (s *span) vNS() int64    { return s.V1 - s.V0 }

// driver is one driver goroutine's view of the run: the simulated thread it
// drives, the ops it attempted and failed, the virtual latency of every op
// of the recorded window and, when tracing, its spans. Each goroutine owns
// its driver; results are merged after the goroutines have finished.
type driver struct {
	ctx     *sim.Ctx
	tracing bool
	// record keeps per-op virtual latencies (window 0 only).
	record bool

	lat               []int64
	attempted, failed int64
	firstErr          error

	idBase, nextID int64
	stack          []int64
	opIndex        int64
	spans          []span
}

// call runs fn as one call into a layer. Untraced it is a plain call;
// traced it records a span with the host and virtual interval and the
// counter delta of the driver's simulated thread over the call.
func (d *driver) call(name string, op int64, fn func() error) error {
	if !d.tracing {
		return fn()
	}
	d.nextID++
	sp := span{Name: name, ID: d.idBase + d.nextID, Op: op, V0: d.ctx.Now()}
	if n := len(d.stack); n > 0 {
		sp.Parent = d.stack[n-1]
	}
	before := *d.ctx.Counters
	d.stack = append(d.stack, sp.ID)
	sp.Host0 = hostNow()
	err := fn()
	sp.Host1 = hostNow()
	d.stack = d.stack[:len(d.stack)-1]
	sp.V1 = d.ctx.Now()
	sp.Delta = *d.ctx.Counters
	sp.Delta.Sub(&before)
	d.spans = append(d.spans, sp)
	return err
}

// op runs fn as one measured op: it is counted as attempted, its virtual
// latency is kept in the recorded window, and an error (including an
// oracle mismatch) counts it as failed. It reports whether the op passed.
func (d *driver) op(name string, fn func() error) bool {
	d.attempted++
	v0 := d.ctx.Now()
	err := d.call(name, d.idBase+d.opIndex, fn)
	d.opIndex++
	if d.record {
		d.lat = append(d.lat, d.ctx.Now()-v0)
	}
	if err != nil {
		d.fail(fmt.Errorf("%s: %w", name, err))
		return false
	}
	return true
}

// fail counts one failed op; the first failure is kept for diagnostics.
func (d *driver) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// startWindow resets the per-window op numbering and latency recording.
func (d *driver) startWindow(record bool) {
	d.record = record
	d.opIndex = 0
	if record {
		d.lat = d.lat[:0]
	}
}

// writeSpans writes every span once, at the end of a traced run, as JSON
// lines. Self time is the span's host duration minus the part of it its
// direct children cover (children of one driver never overlap).
func writeSpans(path string, spans []span) error {
	child := map[int64]int64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			child[p] += spans[i].hostNS()
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Name       string           `json:"name"`
		ID         int64            `json:"id"`
		Parent     int64            `json:"parent"`
		Op         int64            `json:"op"`
		HostStart  int64            `json:"host_start_ns"`
		HostEnd    int64            `json:"host_end_ns"`
		SelfHostNS int64            `json:"self_host_ns"`
		VStart     int64            `json:"v_start_ns"`
		VEnd       int64            `json:"v_end_ns"`
		Counters   map[string]int64 `json:"counters,omitempty"`
	}
	for i := range spans {
		s := &spans[i]
		r := rec{Name: s.Name, ID: s.ID, Parent: s.Parent, Op: s.Op,
			HostStart: s.Host0, HostEnd: s.Host1, SelfHostNS: s.hostNS() - child[s.ID],
			VStart: s.V0, VEnd: s.V1}
		for _, fld := range s.Delta.Fields() {
			if fld.Value != 0 {
				if r.Counters == nil {
					r.Counters = map[string]int64{}
				}
				r.Counters[fld.Name] = fld.Value
			}
		}
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
