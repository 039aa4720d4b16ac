package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ray/internal/testutil/roundtrip"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// Every field of a span, a field added later included, survives the codec.
func TestSpanMarshalRoundtrip(t *testing.T) {
	roundtrip.Check(t, func(s *Span) []byte { return MarshalSpans([]Span{*s}) }, func(b []byte) (*Span, error) {
		spans, err := UnmarshalSpans(b)
		if err != nil || len(spans) != 1 {
			return nil, fmt.Errorf("decoded %d spans: %v", len(spans), err)
		}
		return &spans[0], nil
	})
}

// Every cut inside a span is an error; a cut between spans is a shorter
// batch.
func TestUnmarshalSpanTruncated(t *testing.T) {
	sp := Span{Task: "t", Name: "n", Phase: "p", Node: "nd", Job: "j"}
	one := MarshalSpans([]Span{sp})
	full := MarshalSpans([]Span{sp, sp})
	for cut := 1; cut < len(full); cut++ {
		spans, err := UnmarshalSpans(full[:cut])
		if cut == len(one) {
			if err != nil || len(spans) != 1 {
				t.Errorf("cut between spans: %d spans, %v; want 1", len(spans), err)
			}
		} else if err == nil {
			t.Errorf("UnmarshalSpans accepted truncation at %d bytes", cut)
		}
	}
}

// Whatever UnmarshalSpans accepts is a batch MarshalSpans writes back byte
// for byte; nothing makes it panic.
func FuzzUnmarshalSpans(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalSpans(goldenSpans()))
	f.Add(MarshalSpans([]Span{{Phase: PhaseEvent, Name: "node_dead", Node: "node:02", StartUnixNano: -1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := UnmarshalSpans(data)
		if err != nil {
			return
		}
		if again := MarshalSpans(spans); !bytes.Equal(again, data) {
			t.Fatalf("re-marshalled %d spans to %x, decoded from %x", len(spans), again, data)
		}
	})
}

type captureSink struct {
	mu    sync.Mutex
	spans []Span //guard:by mu
	err   error  //guard:by mu
}

func (c *captureSink) AppendSpans(ctx context.Context, spans []Span) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, spans...)
	return c.err
}

func TestTracerRecordFlushDrop(t *testing.T) {
	// Capacity is split across shards; spans with equal timestamps land on
	// one shard, so its per-shard bound (24/8 = 3) is what overflows.
	tr := NewTracer(24)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Task: "t", StartUnixNano: 1000})
	}
	if got := tr.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3 (shard capacity)", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}

	sink := &captureSink{}
	if err := tr.Flush(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.spans) != 3 {
		t.Errorf("flushed %d spans, want 3", len(sink.spans))
	}

	// Spans spread across shards use the whole capacity.
	for i := 0; i < 24; i++ {
		tr.Record(Span{Task: "t", StartUnixNano: int64(i)})
	}
	if got := tr.Pending(); got != 24 {
		t.Errorf("Pending = %d, want 24 across shards", got)
	}
	if err := tr.Flush(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	if tr.Pending() != 0 {
		t.Error("buffer not drained by Flush")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{})
	if tr.On() || tr.Pending() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer not inert")
	}
	if err := tr.Flush(context.Background(), &captureSink{}); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
}

func TestTracerRecordBatch(t *testing.T) {
	tr := NewTracer(80) // 10 per shard
	batch := make([]Span, 4)
	for i := range batch {
		batch[i] = Span{Task: "t", StartUnixNano: 7} // one shard
	}
	tr.RecordBatch(batch)
	tr.RecordBatch(batch)
	if got := tr.Pending(); got != 8 {
		t.Errorf("Pending = %d, want 8", got)
	}
	// Third batch only half-fits the shard (10 - 8 = 2 free).
	tr.RecordBatch(batch)
	if got := tr.Pending(); got != 10 {
		t.Errorf("Pending = %d, want 10 after partial batch", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	var nilTr *Tracer
	nilTr.RecordBatch(batch) // must not panic
	tr.RecordBatch(nil)
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(100000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record(Span{Task: "t", StartUnixNano: int64(i)})
			}
		}()
	}
	sink := &captureSink{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := tr.Flush(context.Background(), sink); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := tr.Flush(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	got := len(sink.spans)
	sink.mu.Unlock()
	if got != 8000 {
		t.Errorf("flushed %d spans total, want 8000", got)
	}
}

// goldenSpans is a fixed multi-node, multi-phase task lifecycle used by both
// the golden-file test and the validity checks.
func goldenSpans() []Span {
	const base = int64(1700000000000000000)
	ms := func(n int64) int64 { return n * int64(1000000) }
	return []Span{
		{Seq: 1, Task: "task:a1", Name: "train", Phase: PhaseSubmit, Node: "node:01", Job: "job:1", StartUnixNano: base},
		{Seq: 2, Task: "task:a1", Name: "train", Phase: PhaseQueue, Node: "node:01", Job: "job:1", StartUnixNano: base, DurationNanos: ms(2)},
		{Seq: 3, Task: "task:a1", Name: "train", Phase: PhaseDispatch, Node: "node:01", Job: "job:1", StartUnixNano: base + ms(2), DurationNanos: ms(1)},
		{Seq: 4, Task: "task:a1", Name: "train", Phase: PhaseExec, Node: "node:01", Job: "job:1", StartUnixNano: base + ms(3), DurationNanos: ms(10)},
		{Seq: 6, Task: "obj:9f<-node:01", Name: "obj:9f", Phase: PhaseTransfer, Node: "node:02", StartUnixNano: base + ms(13), DurationNanos: ms(4), Bytes: 1 << 20},
		{Seq: 5, Task: "task:a1", Name: "train", Phase: PhaseStore, Node: "node:01", Job: "job:1", StartUnixNano: base + ms(13), DurationNanos: ms(1), Bytes: 1 << 20},
	}
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "timeline.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace output drifted from golden file:\n%s", buf.String())
	}
}

// validateChromeTrace checks data is a loadable trace-event JSON array:
// every event carries name/ph/pid/tid/ts and events are in ascending ts
// order. Shared with the cmd/raycluster -timeline test via the exported
// trace format only (this helper re-parses generically on purpose).
func validateChromeTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	prev := -1.0
	for i, ev := range events {
		for _, field := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		if ph := ev["ph"].(string); ph != "X" && ph != "i" {
			t.Errorf("event %d ph = %q, want \"X\" or \"i\"", i, ph)
		}
		ts := ev["ts"].(float64)
		if ts < prev {
			t.Errorf("event %d ts %v out of order (prev %v)", i, ts, prev)
		}
		prev = ts
	}
	return events
}

func TestChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	events := validateChromeTrace(t, buf.Bytes())
	if len(events) != len(goldenSpans()) {
		t.Fatalf("%d events, want %d", len(events), len(goldenSpans()))
	}
	// First event is the rebased earliest span.
	if ts := events[0]["ts"].(float64); ts != 0 {
		t.Errorf("first ts = %v, want 0 after rebase", ts)
	}
	// The two nodes map to distinct pids.
	pids := map[float64]bool{}
	for _, ev := range events {
		pids[ev["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Errorf("distinct pids = %d, want 2", len(pids))
	}
	// Transfer event carries its byte count.
	var sawBytes bool
	for _, ev := range events {
		if args, ok := ev["args"].(map[string]any); ok {
			if b, ok := args["bytes"].(float64); ok && b == 1<<20 {
				sawBytes = true
			}
		}
	}
	if !sawBytes {
		t.Error("no event carried args.bytes")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}

// An event span renders as a Chrome instant event; every other span stays a
// complete event.
func TestChromeTraceRendersEventsAsInstants(t *testing.T) {
	spans := append(goldenSpans(), Span{Seq: 7, Name: "node_dead", Phase: PhaseEvent, Node: "node:02", StartUnixNano: 1700000000000000000 + 5e6})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	instants := 0
	for _, ev := range validateChromeTrace(t, buf.Bytes()) {
		want := "X"
		if ev["cat"] == PhaseEvent {
			want = "i"
			instants++
			if ev["name"] != "event:node_dead" || ev["args"].(map[string]any)["node"] != "node:02" {
				t.Errorf("event rendered as %v", ev)
			}
		}
		if ev["ph"] != want {
			t.Errorf("%v: ph = %v, want %q", ev["name"], ev["ph"], want)
		}
	}
	if instants != 1 {
		t.Errorf("%d instant events, want 1", instants)
	}
}
