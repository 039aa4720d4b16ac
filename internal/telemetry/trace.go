package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
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
	// DurationNanos is the span length; 0 marks an instant event.
	DurationNanos int64
	// Bytes is the payload size for transfer/store spans, 0 otherwise.
	Bytes int64
}

// wireSize is the exact encoded length: four u64s plus five length-prefixed
// strings.
func (s *Span) wireSize() int {
	return 4*8 + 5*4 + len(s.Task) + len(s.Name) + len(s.Phase) + len(s.Node) + len(s.Job)
}

// encode appends the span in the GCS entry wire format (big-endian,
// length-prefixed strings); UnmarshalSpan is its inverse. Spans are encoded
// through MarshalSpans so a whole flush batch shares one allocation.
func (s *Span) encode(dst []byte) []byte {
	dst = appendU64(dst, s.Seq)
	dst = appendU64(dst, uint64(s.StartUnixNano))
	dst = appendU64(dst, uint64(s.DurationNanos))
	dst = appendU64(dst, uint64(s.Bytes))
	dst = appendStr(dst, s.Task)
	dst = appendStr(dst, s.Name)
	dst = appendStr(dst, s.Phase)
	dst = appendStr(dst, s.Node)
	dst = appendStr(dst, s.Job)
	return dst
}

// UnmarshalSpan decodes one span encoded by encode/MarshalSpans.
func UnmarshalSpan(data []byte) (*Span, error) {
	r := &spanReader{data: data}
	s := &Span{}
	s.Seq = r.u64()
	s.StartUnixNano = int64(r.u64())
	s.DurationNanos = int64(r.u64())
	s.Bytes = int64(r.u64())
	s.Task = r.str()
	s.Name = r.str()
	s.Phase = r.str()
	s.Node = r.str()
	s.Job = r.str()
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// MarshalSpans concatenates the Marshal encoding of each span into one
// buffer. The per-span format is self-delimiting, so UnmarshalSpans can
// split the batch back apart; storing a whole flush batch under one GCS key
// keeps span persistence to a handful of control-plane writes per heartbeat
// instead of one per span.
func MarshalSpans(spans []Span) []byte {
	size := 0
	for i := range spans {
		size += spans[i].wireSize()
	}
	buf := make([]byte, 0, size)
	for i := range spans {
		buf = spans[i].encode(buf)
	}
	return buf
}

// UnmarshalSpans decodes a batch encoded by MarshalSpans.
func UnmarshalSpans(data []byte) ([]Span, error) {
	r := &spanReader{data: data}
	var out []Span
	for r.off < len(r.data) {
		var s Span
		s.Seq = r.u64()
		s.StartUnixNano = int64(r.u64())
		s.DurationNanos = int64(r.u64())
		s.Bytes = int64(r.u64())
		s.Task = r.str()
		s.Name = r.str()
		s.Phase = r.str()
		s.Node = r.str()
		s.Job = r.str()
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, s)
	}
	return out, nil
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

type spanReader struct {
	data []byte
	off  int
	err  error
}

func (r *spanReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = errors.New("telemetry: span entry truncated")
		return 0
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *spanReader) str() string {
	if r.err != nil {
		return ""
	}
	if r.off+4 > len(r.data) {
		r.err = errors.New("telemetry: span entry truncated")
		return ""
	}
	n := int(binary.BigEndian.Uint32(r.data[r.off:]))
	r.off += 4
	if n < 0 || r.off+n > len(r.data) {
		r.err = errors.New("telemetry: span string overruns entry")
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
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

	enabled atomic.Bool
	// sampleMask selects which task lifecycles are traced: a task is sampled
	// when its ID's low byte ANDed with the mask is zero, so a mask of 2^k-1
	// traces exactly 1 in 2^k tasks — deterministically, and consistently
	// across every phase of that task on every node (the decision is a pure
	// function of the ID). 0 traces everything.
	sampleMask atomic.Uint32
	dropped    atomic.Int64
	total      atomic.Int64

	shards [tracerShards]tracerShard
}

// DefaultTracerCapacity bounds the in-memory span buffer between flushes.
const DefaultTracerCapacity = 65536

// NewTracer returns an enabled tracer buffering at most capacity spans
// (capacity <= 0 selects DefaultTracerCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	perShard := (capacity + tracerShards - 1) / tracerShards
	t := &Tracer{perShard: perShard}
	t.enabled.Store(true)
	return t
}

// shardFor spreads spans across the buffer shards without any shared write:
// the span's own start timestamp is effectively random in its low bits.
func (t *Tracer) shardFor(sp *Span) *tracerShard {
	return &t.shards[uint64(sp.StartUnixNano)%tracerShards]
}

// SetEnabled turns span recording on or off at runtime.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// On reports whether spans are currently recorded; sites use it to skip
// building a Span at all when tracing is off.
func (t *Tracer) On() bool { return t != nil && t.enabled.Load() }

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
	t.total.Add(1)
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
	if free < 0 {
		free = 0
	}
	t.total.Add(int64(free))
	if d := len(spans) - free; d > 0 {
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

// Recorded returns the number of spans accepted since construction.
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return t.total.Load()
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
// complete event). Field names follow the trace-event spec; ts/dur are in
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
		events = append(events, chromeEvent{
			Name: sp.Phase + ":" + sp.Name,
			Cat:  sp.Phase,
			Ph:   "X",
			TS:   float64(sp.StartUnixNano-base) / 1e3,
			Dur:  float64(sp.DurationNanos) / 1e3,
			PID:  pid,
			TID:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
