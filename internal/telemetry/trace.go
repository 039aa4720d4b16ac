package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"ray/internal/codec"
)

// Span phases, in task-lifecycle order. A task's timeline is the sequence
// submit → queue → dispatch → exec → store; object movement shows up as
// transfer spans attributed to the pulling node.
const (
	PhaseSubmit   = "submit"   // driver/caller handed the spec to a node
	PhaseQueue    = "queue"    // waiting in the local scheduler queue
	PhaseDispatch = "dispatch" // spill/forward decision and lease grant
	PhaseExec     = "exec"     // running on a worker slot
	PhaseStore    = "store"    // writing results into the object store
	PhaseTransfer = "transfer" // object manager pulling a remote object: reservation, wire and copy
	// PhaseEvent marks an instant (no duration) in the cluster's life: a node
	// death, a job transition, an actor reconstruction. Name is the event
	// kind and whichever of Node, Job or Task names the subject is set.
	PhaseEvent = "event"
)

// Span is one timed event in a task's (or object's) lifecycle. Spans are
// recorded by the Tracer and persisted into the GCS span table, which makes
// the paper's "profiling tools built on the GCS" point concrete: the
// timeline is just another queryable table.
type Span struct {
	// Seq is the globally unique span sequence number, assigned at append
	// time by the GCS.
	Seq uint64
	// Task identifies the task (or object, for transfer spans) this span
	// belongs to.
	Task string
	// Name is the human-readable label: the function name for task spans,
	// the object ID for transfer spans.
	Name string
	// Phase is one of the Phase* constants.
	Phase string
	// Node is the node the event happened on.
	Node string
	// Job is the owning job, when known.
	Job string
	// StartUnixNano is the span start time.
	StartUnixNano int64
	// DurationNanos is the span length; submit and event spans are instants
	// (0). Tell an event by its Phase, not by a zero length.
	DurationNanos int64
	// Bytes is the payload size for transfer/store spans, 0 otherwise.
	Bytes int64
}

// wireSize is the exact encoded length: four u64s plus five length-prefixed
// strings.
func (s *Span) wireSize() int {
	return 4*8 + 5*4 + len(s.Task) + len(s.Name) + len(s.Phase) + len(s.Node) + len(s.Job)
}

// MarshalSpans encodes spans back to back in the GCS entry wire format
// (big-endian, length-prefixed strings) into one buffer. The per-span format
// is self-delimiting, so UnmarshalSpans can split the batch back apart;
// storing a whole flush batch under one GCS key keeps span persistence to a
// handful of control-plane writes per heartbeat instead of one per span.
func MarshalSpans(spans []Span) []byte {
	size := 0
	for i := range spans {
		size += spans[i].wireSize()
	}
	buf := make([]byte, 0, size)
	for i := range spans {
		s := &spans[i]
		buf = binary.BigEndian.AppendUint64(buf, s.Seq)
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.StartUnixNano))
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.DurationNanos))
		buf = binary.BigEndian.AppendUint64(buf, uint64(s.Bytes))
		buf = codec.AppendString(buf, s.Task)
		buf = codec.AppendString(buf, s.Name)
		buf = codec.AppendString(buf, s.Phase)
		buf = codec.AppendString(buf, s.Node)
		buf = codec.AppendString(buf, s.Job)
	}
	return buf
}

// UnmarshalSpans decodes a batch encoded by MarshalSpans.
func UnmarshalSpans(data []byte) ([]Span, error) {
	r := codec.NewReader(data)
	var out []Span
	for r.Len() > 0 {
		var s Span
		s.Seq = r.U64()
		s.StartUnixNano = int64(r.U64())
		s.DurationNanos = int64(r.U64())
		s.Bytes = int64(r.U64())
		s.Task = r.Str()
		s.Name = r.Str()
		s.Phase = r.Str()
		s.Node = r.Str()
		s.Job = r.Str()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("telemetry: span: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// SpanSink receives flushed span batches; implemented by the GCS store's
// span table. Telemetry stays a leaf package: the GCS imports it, not the
// other way around.
type SpanSink interface {
	AppendSpans(ctx context.Context, spans []Span) error
}

// tracerShard is one independently locked slice of the span buffer.
// Recording threads spread across shards by span timestamp, so the cluster's
// one Tracer never becomes a single contended lock on the dispatch path.
type tracerShard struct {
	mu  sync.Mutex
	buf []Span //guard:by mu
}

// tracerShards is the shard count; a power of two so shard selection is a
// mask. Sized for small in-process clusters (tens of recording goroutines).
const tracerShards = 8

// Tracer buffers lifecycle spans in memory and hands them to a SpanSink in
// batches, so the per-span hot-path cost is one short critical section on
// one of several sharded locks, and the GCS write cost amortizes through its
// batcher. The buffer is bounded: when full, new spans are dropped and
// counted rather than blocking the dispatch path. All methods are safe on a
// nil receiver (no-ops), so instrumentation sites never nil-check.
type Tracer struct {
	perShard int //guard:init — buffered-span capacity of each shard

	// sampleMask selects which task lifecycles are traced: a task is sampled
	// when its ID's low byte ANDed with the mask is zero, so a mask of 2^k-1
	// traces exactly 1 in 2^k tasks — deterministically, and consistently
	// across every phase of that task on every node (the decision is a pure
	// function of the ID). 0 traces everything.
	sampleMask atomic.Uint32
	dropped    atomic.Int64

	shards [tracerShards]tracerShard
}

// DefaultTracerCapacity bounds the in-memory span buffer between flushes.
const DefaultTracerCapacity = 65536

// NewTracer returns a tracer buffering at most capacity spans (capacity <= 0
// selects DefaultTracerCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{perShard: (capacity + tracerShards - 1) / tracerShards}
}

// shardFor spreads spans across the buffer shards without any shared write:
// the span's own start timestamp is effectively random in its low bits.
func (t *Tracer) shardFor(sp *Span) *tracerShard {
	return &t.shards[uint64(sp.StartUnixNano)%tracerShards]
}

// On reports whether spans are recorded (the tracer is non-nil); sites use it
// to skip building a Span at all when there is no tracer.
func (t *Tracer) On() bool { return t != nil }

// SetSampleEvery traces one task lifecycle in every n (rounded up to a power
// of two; n <= 1 traces every task). Cluster IDs end in a monotonic
// per-origin counter, so the low byte cycles uniformly and the mask samples
// at exactly the configured rate.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	mask := uint32(0)
	for mask+1 < uint32(n) {
		mask = mask<<1 | 1
	}
	t.sampleMask.Store(mask)
}

// Sampled reports whether the task (or object) whose ID ends in low should
// have its lifecycle traced. Instrumentation sites gate span construction on
// it so an unsampled task costs one atomic load.
func (t *Tracer) Sampled(low byte) bool {
	return t.On() && uint32(low)&t.sampleMask.Load() == 0
}

// Record buffers one span. When the span's shard is full the span is
// dropped and counted — tracing never applies backpressure to the dispatch
// path.
func (t *Tracer) Record(sp Span) {
	if !t.On() {
		return
	}
	sh := t.shardFor(&sp)
	sh.mu.Lock()
	if len(sh.buf) >= t.perShard {
		sh.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	sh.buf = append(sh.buf, sp)
	sh.mu.Unlock()
}

// RecordBatch buffers several spans under one lock acquisition — the
// scheduler emits a task's queue/dispatch/exec spans together at completion,
// and one critical section per task keeps tracing off the dispatch path's
// contention profile. Overflow spans are dropped and counted like Record's.
func (t *Tracer) RecordBatch(spans []Span) {
	if !t.On() || len(spans) == 0 {
		return
	}
	sh := t.shardFor(&spans[0])
	sh.mu.Lock()
	free := t.perShard - len(sh.buf)
	if free > len(spans) {
		free = len(spans)
	}
	if free > 0 {
		sh.buf = append(sh.buf, spans[:free]...)
	}
	sh.mu.Unlock()
	if d := len(spans) - max(free, 0); d > 0 {
		t.dropped.Add(int64(d))
	}
}

// Pending returns the number of buffered, unflushed spans.
func (t *Tracer) Pending() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.buf)
		sh.mu.Unlock()
	}
	return n
}

// Dropped returns the number of spans lost to a full buffer.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Flush drains every shard into sink. Each shard's buffer is swapped out
// under its lock and written outside it, so recording continues while the
// sink (a chain-replicated GCS write) is in flight. On sink error the batch
// is dropped — spans are diagnostics, not state.
func (t *Tracer) Flush(ctx context.Context, sink SpanSink) error {
	if t == nil || sink == nil {
		return nil
	}
	var bufs [tracerShards][]Span
	total := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		bufs[i] = sh.buf
		sh.buf = nil
		sh.mu.Unlock()
		total += len(bufs[i])
	}
	if total == 0 {
		return nil
	}
	batch := make([]Span, 0, total)
	for _, buf := range bufs {
		batch = append(batch, buf...)
	}
	return sink.AppendSpans(ctx, batch)
}

// --- Chrome trace-event export ----------------------------------------------

// chromeEvent is one entry in the Chrome trace-event JSON array ("X" =
// complete event, "i" = instant event). Field names follow the trace-event spec; ts/dur are in
// microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON array
// (loadable in chrome://tracing and Perfetto, the same format `ray
// timeline` emits). Nodes map to pids, tasks to tids within their node;
// timestamps are rebased so the earliest span starts at t=0 and events are
// emitted in ascending ts order.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].StartUnixNano != sorted[j].StartUnixNano {
			return sorted[i].StartUnixNano < sorted[j].StartUnixNano
		}
		return sorted[i].Seq < sorted[j].Seq
	})

	var base int64
	if len(sorted) > 0 {
		base = sorted[0].StartUnixNano
	}
	nodePID := make(map[string]int)
	taskTID := make(map[string]int)
	events := make([]chromeEvent, 0, len(sorted))
	for _, sp := range sorted {
		pid, ok := nodePID[sp.Node]
		if !ok {
			pid = len(nodePID) + 1
			nodePID[sp.Node] = pid
		}
		taskKey := sp.Node + "/" + sp.Task
		tid, ok := taskTID[taskKey]
		if !ok {
			tid = len(taskTID) + 1
			taskTID[taskKey] = tid
		}
		args := map[string]any{"task": sp.Task, "node": sp.Node}
		if sp.Job != "" {
			args["job"] = sp.Job
		}
		if sp.Bytes > 0 {
			args["bytes"] = sp.Bytes
		}
		ev := chromeEvent{
			Name: sp.Phase + ":" + sp.Name,
			Cat:  sp.Phase,
			Ph:   "X",
			TS:   float64(sp.StartUnixNano-base) / 1e3,
			Dur:  float64(sp.DurationNanos) / 1e3,
			PID:  pid,
			TID:  tid,
			Args: args,
		}
		if sp.Phase == PhaseEvent {
			ev.Ph = "i"
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
