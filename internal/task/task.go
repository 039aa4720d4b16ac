// Package task defines the dynamic task graph model at the heart of Ray:
// task specifications (remote function invocations and actor method calls),
// their arguments (inline values or object references), and the three edge
// types of the computation graph — data edges, control edges, and stateful
// edges (paper Section 3.2).
package task

import (
	"encoding/binary"
	"fmt"

	"ray/internal/codec"
	"ray/internal/resources"
	"ray/internal/types"
)

// ArgKind distinguishes inline values from object references.
type ArgKind uint8

const (
	// ArgValue is a small argument passed by value inside the task spec.
	ArgValue ArgKind = iota
	// ArgObjectRef is an argument passed by reference to an object in the
	// distributed object store (a future produced by another task).
	ArgObjectRef
)

// Arg is a single task argument.
type Arg struct {
	Kind ArgKind
	// Value holds the serialized inline value when Kind == ArgValue.
	Value []byte
	// Ref holds the object ID when Kind == ArgObjectRef.
	Ref types.ObjectID
}

// ValueArg constructs an inline-value argument.
func ValueArg(b []byte) Arg { return Arg{Kind: ArgValue, Value: b} }

// RefArg constructs an object-reference argument.
func RefArg(id types.ObjectID) Arg { return Arg{Kind: ArgObjectRef, Ref: id} }

// Spec fully describes one task: a stateless remote function invocation or a
// stateful actor method call. Specs are immutable once submitted; they are
// persisted in the GCS task table and are the unit of lineage.
type Spec struct {
	// ID uniquely identifies this task.
	ID types.TaskID
	// Job identifies the job the task belongs to. Every task a driver's
	// program submits (directly or through nested tasks) carries the driver's
	// JobID: it scopes lineage reconstruction, drives fair-share scheduling,
	// and lets job-exit cleanup find the job's work. Nil for system-initiated
	// tasks created outside any job (e.g. direct scheduler tests).
	Job types.JobID
	// Driver identifies the driver program the task belongs to.
	Driver types.DriverID
	// ParentTask is the task (or driver, via its root task) that submitted
	// this task. It defines the control edge in the computation graph.
	ParentTask types.TaskID
	// Function is the registered name of the remote function or, for actor
	// tasks, the method name.
	Function string
	// Args are the task's arguments in call order.
	Args []Arg
	// NumReturns is how many objects the task produces.
	NumReturns int
	// Resources is the task's resource demand (e.g. {CPU:1, GPU:2}).
	Resources resources.Request

	// Actor fields. For stateless tasks ActorID is the nil ID.

	// ActorID is the actor this method executes on, if any.
	ActorID types.ActorID
	// ActorCreation marks the task that instantiates the actor.
	ActorCreation bool
	// ActorCounter orders method invocations on the same actor; it is the
	// position of this call in the actor's stateful-edge chain.
	ActorCounter int64
	// PreviousActorTask is the task immediately before this one on the same
	// actor's chain (the stateful edge source). Nil for the first method and
	// for creation tasks.
	PreviousActorTask types.TaskID
}

// IsActorTask reports whether the spec targets an actor (creation or method).
func (s *Spec) IsActorTask() bool { return !s.ActorID.IsNil() }

// Returns lists the ObjectIDs this task produces. They are derived
// deterministically from the task ID so that re-execution after a failure
// recreates objects under the same IDs (the key to lineage reconstruction).
func (s *Spec) Returns() []types.ObjectID {
	out := make([]types.ObjectID, s.NumReturns)
	for i := range out {
		out[i] = types.ReturnObjectID(s.ID, i)
	}
	return out
}

// Dependencies lists the ObjectIDs the task needs before it can execute
// (its incoming data edges).
func (s *Spec) Dependencies() []types.ObjectID {
	var deps []types.ObjectID
	for _, a := range s.Args {
		if a.Kind == ArgObjectRef {
			deps = append(deps, a.Ref)
		}
	}
	return deps
}

// String implements fmt.Stringer for logging.
func (s *Spec) String() string {
	kind := "task"
	if s.ActorCreation {
		kind = "actor-create"
	} else if s.IsActorTask() {
		kind = "actor-method"
	}
	return fmt.Sprintf("%s{%s fn=%s args=%d returns=%d res=%s}",
		kind, s.ID, s.Function, len(s.Args), s.NumReturns, s.Resources.String())
}

// --- Binary encoding -------------------------------------------------------
//
// Specs are stored in the GCS (and shipped between schedulers) as bytes. A
// hand-rolled encoding keeps the hot path (millions of task submissions per
// second in the scalability benchmark) free of reflection.

const specMagic = uint32(0x52545350) // "RTSP"

// specFixedLen is the encoded size of a spec with no function name, arguments
// or resources: magic, four IDs, three counts and a length, then the actor
// trailer (ID, creation flag, counter, previous task).
const specFixedLen = 4 + 4*16 + 4 + 4 + 4 + 4 + 16 + 1 + 8 + 16

// EncodedLen returns the exact length of the spec's binary encoding.
func (s *Spec) EncodedLen() int {
	n := specFixedLen + len(s.Function)
	for i := range s.Args {
		if s.Args[i].Kind == ArgValue {
			n += 1 + 4 + len(s.Args[i].Value)
		} else {
			n += 1 + 16
		}
	}
	for name := range s.Resources.All() {
		n += 4 + len(name) + 8
	}
	return n
}

// Marshal encodes the spec into a compact binary form.
func (s *Spec) Marshal() []byte {
	return s.AppendTo(make([]byte, 0, s.EncodedLen()))
}

// AppendTo appends the spec's binary encoding to dst and returns the extended
// slice, so a containing record (the GCS task entry) encodes the spec in
// place instead of through an intermediate buffer. It appends exactly
// EncodedLen bytes.
func (s *Spec) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, specMagic)
	dst = append(dst, s.ID[:]...)
	dst = append(dst, s.Job[:]...)
	dst = append(dst, s.Driver[:]...)
	dst = append(dst, s.ParentTask[:]...)
	dst = codec.AppendString(dst, s.Function)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Args)))
	for i := range s.Args {
		a := &s.Args[i]
		dst = append(dst, byte(a.Kind))
		if a.Kind == ArgValue {
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Value)))
			dst = append(dst, a.Value...)
		} else {
			dst = append(dst, a.Ref[:]...)
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.NumReturns))
	// Resources: name/value pairs in name order, so equal specs encode to
	// equal bytes.
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Resources.Len()))
	for name, q := range s.Resources.All() {
		dst = codec.AppendString(dst, name)
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(q*1000+0.5)))
	}
	dst = append(dst, s.ActorID[:]...)
	if s.ActorCreation {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.ActorCounter))
	return append(dst, s.PreviousActorTask[:]...)
}

// Unmarshal decodes a spec previously produced by Marshal.
func Unmarshal(data []byte) (*Spec, error) {
	r := codec.NewReader(data)
	if r.U32() != specMagic {
		return nil, fmt.Errorf("task: bad spec magic")
	}
	s := &Spec{}
	r.ID((*[16]byte)(&s.ID))
	r.ID((*[16]byte)(&s.Job))
	r.ID((*[16]byte)(&s.Driver))
	r.ID((*[16]byte)(&s.ParentTask))
	s.Function = r.Str()
	s.Args = make([]Arg, r.Count(1+4)) // the smallest argument: kind, empty value
	for i := range s.Args {
		kind := ArgKind(r.Byte())
		if kind == ArgValue {
			s.Args[i] = Arg{Kind: ArgValue, Value: r.Bytes()}
		} else {
			var ref types.ObjectID
			r.ID((*[16]byte)(&ref))
			s.Args[i] = Arg{Kind: ArgObjectRef, Ref: ref}
		}
	}
	s.NumReturns = int(r.U32())
	if nres := r.Count(4 + 8); nres > 0 {
		quantities := make(map[string]float64, nres)
		for i := 0; i < nres; i++ {
			name := r.Str()
			quantities[name] = float64(r.U64()) / 1000
		}
		s.Resources = resources.NewRequest(quantities)
	}
	r.ID((*[16]byte)(&s.ActorID))
	s.ActorCreation = r.Byte() == 1
	s.ActorCounter = int64(r.U64())
	r.ID((*[16]byte)(&s.PreviousActorTask))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("task: spec: %w", err)
	}
	return s, nil
}
