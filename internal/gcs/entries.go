package gcs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"ray/internal/codec"
	"ray/internal/task"
	"ray/internal/types"
)

// ObjectEntry is the object table record: where an object's replicas live and
// how large it is. The global scheduler reads it to estimate transfer costs;
// object managers read it to locate a source replica.
type ObjectEntry struct {
	// Locations are the nodes currently holding a copy of the object.
	Locations []types.NodeID
	// Size is the object payload size in bytes.
	Size int64
	// Creator is the task that produced the object (the lineage pointer).
	Creator types.TaskID
	// Job is the job whose task produced the object. Job-exit cleanup uses it
	// to release exactly the exiting job's objects; lineage uses it to refuse
	// reconstruction once the job is terminal.
	Job types.JobID
}

// objectEntryFixedLen is the encoded size of an entry with no locations:
// size, creator, job, location count.
const objectEntryFixedLen = 8 + 16 + 16 + 4

// marshal encodes the entry into one exactly sized buffer.
func (e *ObjectEntry) marshal() []byte {
	out := make([]byte, 0, objectEntryFixedLen+16*len(e.Locations))
	out = binary.BigEndian.AppendUint64(out, uint64(e.Size))
	out = append(out, e.Creator[:]...)
	out = append(out, e.Job[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Locations)))
	for i := range e.Locations {
		out = append(out, e.Locations[i][:]...)
	}
	return out
}

func unmarshalObjectEntry(data []byte) (*ObjectEntry, error) {
	if len(data) < objectEntryFixedLen {
		return nil, fmt.Errorf("gcs: truncated object entry (%d bytes)", len(data))
	}
	e := &ObjectEntry{Size: int64(binary.BigEndian.Uint64(data[:8]))}
	copy(e.Creator[:], data[8:24])
	copy(e.Job[:], data[24:40])
	n := int(binary.BigEndian.Uint32(data[40:44]))
	locs := data[objectEntryFixedLen:]
	if len(locs)/16 < n {
		return nil, fmt.Errorf("gcs: truncated object entry locations")
	}
	if n > 0 {
		e.Locations = make([]types.NodeID, n)
		for i := range e.Locations {
			copy(e.Locations[i][:], locs[16*i:])
		}
	}
	return e, nil
}

// HasLocation reports whether node already holds a replica.
func (e *ObjectEntry) HasLocation(node types.NodeID) bool {
	for _, n := range e.Locations {
		if n == node {
			return true
		}
	}
	return false
}

// TaskEntry is the task (lineage) table record.
type TaskEntry struct {
	// Spec is the immutable task description.
	Spec *task.Spec
	// Status is the task's most recently recorded lifecycle state.
	Status types.TaskStatus
	// Node is the node the task was scheduled on (nil until placed).
	Node types.NodeID
}

// Task entry layout: status (1 byte), node (16), spec length (4), spec. The
// mutable fields lead at fixed offsets so patchTaskEntry, which
// UpdateTaskStatus runs, rewrites status and node without decoding the spec
// behind them.
const (
	taskEntryNodeOff    = 1
	taskEntrySpecLenOff = taskEntryNodeOff + 16
	taskEntryFixedLen   = taskEntrySpecLenOff + 4
)

// marshal encodes the entry, spec included, into one exactly sized buffer.
func (e *TaskEntry) marshal() []byte {
	n := e.Spec.EncodedLen()
	out := make([]byte, 0, taskEntryFixedLen+n)
	out = append(out, byte(e.Status))
	out = append(out, e.Node[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	return e.Spec.AppendTo(out)
}

// patchTaskEntry returns a copy of an encoded entry with its status, and its
// node unless that is nil, replaced: byte for byte what decoding the entry,
// assigning the fields and re-encoding it would produce. The stored value is
// shared with readers and replicas, so it is never patched in place.
func patchTaskEntry(raw []byte, status types.TaskStatus, node types.NodeID) ([]byte, error) {
	if len(raw) < taskEntryFixedLen {
		return nil, fmt.Errorf("gcs: truncated task entry (%d bytes)", len(raw))
	}
	out := bytes.Clone(raw)
	out[0] = byte(status)
	if !node.IsNil() {
		copy(out[taskEntryNodeOff:], node[:])
	}
	return out, nil
}

func unmarshalTaskEntry(data []byte) (*TaskEntry, error) {
	if len(data) < taskEntryFixedLen {
		return nil, fmt.Errorf("gcs: truncated task entry (%d bytes)", len(data))
	}
	e := &TaskEntry{Status: types.TaskStatus(data[0])}
	copy(e.Node[:], data[taskEntryNodeOff:])
	n := int(binary.BigEndian.Uint32(data[taskEntrySpecLenOff:]))
	if len(data)-taskEntryFixedLen < n {
		return nil, fmt.Errorf("gcs: truncated task entry spec")
	}
	spec, err := task.Unmarshal(data[taskEntryFixedLen : taskEntryFixedLen+n])
	if err != nil {
		return nil, err
	}
	e.Spec = spec
	return e, nil
}

// ActorEntry is the actor table record. Together with the task table's
// stateful-edge chain it is everything needed to reconstruct an actor after a
// node failure.
type ActorEntry struct {
	// State is the actor's lifecycle state.
	State types.ActorState
	// Job is the job that created the actor; job-exit cleanup terminates
	// exactly the exiting job's actors.
	Job types.JobID
	// Node is the node currently hosting the actor.
	Node types.NodeID
	// CreationTask is the task that instantiated the actor; replay starts
	// from it (or from the last checkpoint).
	CreationTask types.TaskID
	// ExecutedCounter is the highest ActorCounter whose method has finished.
	ExecutedCounter int64
	// LastTask is the most recently executed method task; walking its
	// PreviousActorTask chain yields the replay sequence for reconstruction.
	LastTask types.TaskID
	// CheckpointData is the most recent user-defined checkpoint of the
	// actor's state. It lives in the GCS (not in the failed node's object
	// store) so it survives the failure it exists to mitigate.
	CheckpointData []byte
	// CheckpointCounter is the ActorCounter captured by that checkpoint.
	CheckpointCounter int64
}

// actorEntryFixedLen is the encoded size of an entry with no checkpoint data.
const actorEntryFixedLen = 1 + 16 + 16 + 16 + 8 + 16 + 4 + 8

func (e *ActorEntry) marshal() []byte {
	out := make([]byte, 0, actorEntryFixedLen+len(e.CheckpointData))
	out = append(out, byte(e.State))
	out = append(out, e.Job[:]...)
	out = append(out, e.Node[:]...)
	out = append(out, e.CreationTask[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(e.ExecutedCounter))
	out = append(out, e.LastTask[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.CheckpointData)))
	out = append(out, e.CheckpointData...)
	return binary.BigEndian.AppendUint64(out, uint64(e.CheckpointCounter))
}

func unmarshalActorEntry(data []byte) (*ActorEntry, error) {
	r := codec.NewReader(data)
	e := &ActorEntry{State: types.ActorState(r.Byte())}
	r.ID((*[16]byte)(&e.Job))
	r.ID((*[16]byte)(&e.Node))
	r.ID((*[16]byte)(&e.CreationTask))
	e.ExecutedCounter = int64(r.U64())
	r.ID((*[16]byte)(&e.LastTask))
	if data := r.Bytes(); len(data) > 0 {
		e.CheckpointData = data
	}
	e.CheckpointCounter = int64(r.U64())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gcs: actor entry: %w", err)
	}
	return e, nil
}

// NodeEntry is the node table record: membership plus the latest heartbeat.
type NodeEntry struct {
	// ID identifies the node.
	ID types.NodeID
	// State is ALIVE or DEAD.
	State types.NodeState
	// TotalResources is the node's full capacity (whole units).
	TotalResources map[string]float64
	// AvailableResources is the capacity free as of the last heartbeat.
	AvailableResources map[string]float64
	// QueueLength is the local scheduler's queued task count.
	QueueLength int
	// AvgTaskMillis is the node's exponentially averaged task execution time.
	AvgTaskMillis float64
	// HeartbeatUnixNano is when the last heartbeat was recorded.
	HeartbeatUnixNano int64
	// MemoryUsed/MemoryCapacity are the node's object-store occupancy as of
	// the last heartbeat. The global scheduler compares their ratio against
	// its memory watermark to steer tasks away from nodes close to eviction.
	MemoryUsed     int64
	MemoryCapacity int64
}

// MemoryPressure returns used/capacity (0 when capacity is unreported).
func (e *NodeEntry) MemoryPressure() float64 {
	if e.MemoryCapacity <= 0 {
		return 0
	}
	return float64(e.MemoryUsed) / float64(e.MemoryCapacity)
}

func (e *NodeEntry) marshal() []byte {
	out := make([]byte, 0, 128)
	out = append(out, e.ID[:]...)
	out = append(out, byte(e.State))
	out = appendResourceMap(out, e.TotalResources)
	out = appendResourceMap(out, e.AvailableResources)
	out = binary.BigEndian.AppendUint64(out, uint64(e.QueueLength))
	out = binary.BigEndian.AppendUint64(out, uint64(int64(e.AvgTaskMillis*1000)))
	out = binary.BigEndian.AppendUint64(out, uint64(e.HeartbeatUnixNano))
	out = binary.BigEndian.AppendUint64(out, uint64(e.MemoryUsed))
	return binary.BigEndian.AppendUint64(out, uint64(e.MemoryCapacity))
}

func unmarshalNodeEntry(data []byte) (*NodeEntry, error) {
	r := codec.NewReader(data)
	e := &NodeEntry{}
	r.ID((*[16]byte)(&e.ID))
	e.State = types.NodeState(r.Byte())
	e.TotalResources = readResourceMap(r)
	e.AvailableResources = readResourceMap(r)
	e.QueueLength = int(r.U64())
	e.AvgTaskMillis = float64(int64(r.U64())) / 1000
	e.HeartbeatUnixNano = int64(r.U64())
	e.MemoryUsed = int64(r.U64())
	e.MemoryCapacity = int64(r.U64())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gcs: entry: %w", err)
	}
	return e, nil
}

// HeartbeatAge returns how long ago the node heartbeated, relative to now.
func (e *NodeEntry) HeartbeatAge(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, e.HeartbeatUnixNano))
}

// FunctionEntry is the function table record: remote functions registered by
// drivers and published to every worker.
type FunctionEntry struct {
	// Name is the registered function (or actor class) name.
	Name string
	// Doc is a human-readable description, surfaced by the debugging tools.
	Doc string
	// IsActorClass marks actor class registrations.
	IsActorClass bool
	// NumReturns is the default number of return objects.
	NumReturns int
	// Methods is the actor class's registered method table: one record per
	// declared method, carrying the per-method arity the runtime learned at
	// registration time (instead of guessing per call). Empty for stateless
	// functions and legacy Call-dispatch classes.
	Methods []MethodInfo
}

// MethodInfo records one actor method's declared shape in the function table.
type MethodInfo struct {
	// Name is the method name within its class.
	Name string
	// NumArgs is the declared argument count.
	NumArgs int
	// NumReturns is the declared return-object count.
	NumReturns int
}

func (e *FunctionEntry) marshal() []byte {
	out := codec.AppendString(nil, e.Name)
	out = codec.AppendString(out, e.Doc)
	if e.IsActorClass {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(e.NumReturns))
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Methods)))
	for _, m := range e.Methods {
		out = codec.AppendString(out, m.Name)
		out = binary.BigEndian.AppendUint32(out, uint32(m.NumArgs))
		out = binary.BigEndian.AppendUint32(out, uint32(m.NumReturns))
	}
	return out
}

func unmarshalFunctionEntry(data []byte) (*FunctionEntry, error) {
	r := codec.NewReader(data)
	e := &FunctionEntry{}
	e.Name = r.Str()
	e.Doc = r.Str()
	e.IsActorClass = r.Byte() == 1
	e.NumReturns = int(r.U32())
	if n := r.Count(4 + 4 + 4); n > 0 {
		e.Methods = make([]MethodInfo, 0, n)
		for i := 0; i < n; i++ {
			e.Methods = append(e.Methods, MethodInfo{
				Name:       r.Str(),
				NumArgs:    int(r.U32()),
				NumReturns: int(r.U32()),
			})
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gcs: entry: %w", err)
	}
	return e, nil
}

// JobEntry is the job table record: one registered driver and the lifecycle
// of its whole body of work. The fair-share scheduler reads Weight; job-exit
// cleanup and lineage scoping read State.
type JobEntry struct {
	// ID identifies the job.
	ID types.JobID
	// Name is an optional human-readable label ("training-run-17").
	Name string
	// State is the job's lifecycle state.
	State types.JobState
	// Driver is the driver program that owns the job.
	Driver types.DriverID
	// Node is the node the driver attached to.
	Node types.NodeID
	// Weight is the job's fair-share weight (minimum 1): a weight-2 job
	// receives twice the dispatch share of a weight-1 job under contention.
	Weight int
	// StartUnixNano is when the job registered.
	StartUnixNano int64
	// FinishUnixNano is when the job reached a terminal state (0 while
	// running).
	FinishUnixNano int64
}

func (e *JobEntry) marshal() []byte {
	out := make([]byte, 0, 16+1+4+len(e.Name)+16+16+3*8)
	out = append(out, e.ID[:]...)
	out = append(out, byte(e.State))
	out = codec.AppendString(out, e.Name)
	out = append(out, e.Driver[:]...)
	out = append(out, e.Node[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(e.Weight))
	out = binary.BigEndian.AppendUint64(out, uint64(e.StartUnixNano))
	return binary.BigEndian.AppendUint64(out, uint64(e.FinishUnixNano))
}

func unmarshalJobEntry(data []byte) (*JobEntry, error) {
	r := codec.NewReader(data)
	e := &JobEntry{}
	r.ID((*[16]byte)(&e.ID))
	e.State = types.JobState(r.Byte())
	e.Name = r.Str()
	r.ID((*[16]byte)(&e.Driver))
	r.ID((*[16]byte)(&e.Node))
	e.Weight = int(r.U64())
	e.StartUnixNano = int64(r.U64())
	e.FinishUnixNano = int64(r.U64())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("gcs: entry: %w", err)
	}
	return e, nil
}

// --- shared encoding helpers -------------------------------------------------

func appendResourceMap(dst []byte, m map[string]float64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m)))
	// Deterministic order is not required for correctness (entries are
	// re-read into a map), but stable encodings make tests simpler.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = codec.AppendString(dst, k)
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m[k]*1000+0.5)))
	}
	return dst
}

// readResourceMap reads what appendResourceMap wrote.
func readResourceMap(r *codec.Reader) map[string]float64 {
	n := r.Count(4 + 8)
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		m[r.Str()] = float64(int64(r.U64())) / 1000
	}
	return m
}
