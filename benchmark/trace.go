package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ray/internal/telemetry"
)

// spanKind names a benchmark span. One op span per op is the parent of the
// API-call spans made for that op.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanRemote
	spanWait
	spanGet
	spanFree
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "ray.remote", "ray.wait", "ray.get", "ray.free"}

// span is one benchmark-side timed interval: the op it belongs to (spans of
// one op share that identifier; an API span's parent is the op span), and
// start/end in nanoseconds since the recorder's epoch.
type span struct {
	kind       spanKind
	op         int32
	start, end int64
}

// recorder collects one driver's spans in memory. It is owned by the driver
// goroutine, so it needs no lock. A nil recorder (untraced repetitions)
// records nothing and reads no clock.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin returns the current time for a later end.
func (r *recorder) begin() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// end records a span that started at start (from begin) and ends now.
func (r *recorder) end(kind spanKind, op int, start int64) {
	r.add(kind, op, start, r.begin())
}

// add records a span with both ends known.
func (r *recorder) add(kind spanKind, op int, start, end int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{kind: kind, op: int32(op), start: start, end: end})
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping intervals once. ivs must be sorted by start.
func covered(lo, hi int64, ivs []interval) int64 {
	var total int64
	cursor := lo
	for _, iv := range ivs {
		s, e := max(iv.start, cursor), min(iv.end, hi)
		if e > s {
			total += e - s
			cursor = e
		}
		if iv.start >= hi {
			break
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	return (parent.end - parent.start) - covered(parent.start, parent.end, children)
}

// durationsByKind returns, per span kind, every span's duration in
// microseconds, and for op spans their self time instead: the time the op
// was in flight outside any API call made for it.
func durationsByKind(spans []span) (byKind [numSpanKinds][]float64, opSelf []float64) {
	children := make(map[int32][]interval)
	for _, s := range spans {
		if s.kind != spanOp {
			children[s.op] = append(children[s.op], interval{s.start, s.end})
		}
		byKind[s.kind] = append(byKind[s.kind], float64(s.end-s.start)/1e3)
	}
	for _, s := range spans {
		if s.kind == spanOp {
			opSelf = append(opSelf, float64(selfTime(interval{s.start, s.end}, children[s.op]))/1e3)
		}
	}
	return byKind, opSelf
}

// writeChromeTrace writes the benchmark's spans of one traced repetition,
// merged with the program's phase spans of the same interval, as a Chrome
// trace-event file. Benchmark spans are mapped onto telemetry.Span so the
// program's own exporter renders both.
func writeChromeTrace(dir, workload string, epoch time.Time, perDriver [][]span, program []telemetry.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := append([]telemetry.Span(nil), program...)
	for driver, spans := range perDriver {
		node := fmt.Sprintf("benchmark/driver%d", driver)
		for _, s := range spans {
			out = append(out, telemetry.Span{
				Task:          fmt.Sprintf("op%d", s.op),
				Name:          spanNames[s.kind],
				Phase:         "benchmark",
				Node:          node,
				StartUnixNano: epoch.UnixNano() + s.start,
				DurationNanos: s.end - s.start,
			})
		}
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
