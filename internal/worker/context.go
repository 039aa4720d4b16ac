package worker

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/codec"
	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
)

// CallOptions configure a remote invocation (the `@ray.remote(num_gpus=2)`
// annotations of the paper's Figure 3).
type CallOptions struct {
	// Resources is the task's resource demand. Empty means {CPU:1} for
	// stateless tasks and actor creations, and no demand for actor methods.
	Resources resources.Request
	// NumReturns is the number of return objects. Zero means 1.
	NumReturns int
	// ZeroResources suppresses the default {CPU:1} demand, declaring the task
	// free to run anywhere regardless of CPU availability. The task-throughput
	// microbenchmark uses it for its empty tasks.
	ZeroResources bool
}

// defaultDemand is the {CPU:1} request of a call that names none. Requests
// are immutable, so every such call shares it.
var defaultDemand = resources.CPUs(1)

func (o CallOptions) normalize(isMethod bool) CallOptions {
	if o.NumReturns <= 0 {
		o.NumReturns = 1
	}
	if o.Resources.Empty() && !isMethod && !o.ZeroResources {
		o.Resources = defaultDemand
	}
	return o
}

// TaskContext is handed to every remote function, actor constructor, and
// actor method. It identifies the running task and exposes the Ray API
// (nested remote calls, Get, Wait, Put) so tasks can submit more work — the
// nested remote functions of paper Section 3.1 that make bottom-up scheduling
// scale.
type TaskContext struct {
	// Ctx is the cancellation context for the task.
	Ctx context.Context
	// TaskID is the currently executing task.
	TaskID types.TaskID
	// Job is the job the task belongs to; every task and actor submitted
	// through this context inherits it. Nil for system-initiated work.
	Job types.JobID
	// Driver is the driver the task belongs to.
	Driver types.DriverID
	// Node is the node executing the task.
	Node types.NodeID

	runtime Runtime
	ids     *types.IDGenerator
	putSeq  atomic.Int64

	// created is the set of objects this context holds owner references on
	// (futures returned by Call/CallActor/CreateActor, Put results). Worker
	// task contexts are auto-released when the task finishes; a driver's
	// context is released by job-exit cleanup. Free releases entries early,
	// at a cost independent of how many the context still holds. Nil until
	// the first reference: most task contexts never create an object.
	createdMu sync.Mutex
	created   map[types.ObjectID]struct{} //guard:by createdMu
}

// NewTaskContext builds a context for a task execution. The node runtime
// constructs these; applications never do.
func NewTaskContext(ctx context.Context, id types.TaskID, job types.JobID, driver types.DriverID, node types.NodeID, rt Runtime, ids *types.IDGenerator) *TaskContext {
	return &TaskContext{Ctx: ctx, TaskID: id, Job: job, Driver: driver, Node: node, runtime: rt, ids: ids}
}

// Runtime exposes the underlying cluster runtime (used by the core package).
func (c *TaskContext) Runtime() Runtime { return c.runtime }

// trackCreated records owner references this context now holds.
func (c *TaskContext) trackCreated(ids ...types.ObjectID) {
	if len(ids) == 0 {
		return
	}
	c.createdMu.Lock()
	if c.created == nil {
		c.created = make(map[types.ObjectID]struct{}, len(ids))
	}
	for _, id := range ids {
		c.created[id] = struct{}{}
	}
	c.createdMu.Unlock()
}

// TakeCreated returns (in no particular order) and clears the owner
// references this context holds. The worker pool calls it when the task
// finishes to release them.
func (c *TaskContext) TakeCreated() []types.ObjectID {
	c.createdMu.Lock()
	created := c.created
	c.created = nil
	c.createdMu.Unlock()
	if len(created) == 0 {
		return nil
	}
	out := make([]types.ObjectID, 0, len(created))
	for id := range created {
		out = append(out, id)
	}
	return out
}

// Free releases this context's references on the given objects before the
// task (or driver) finishes — the explicit early-release hook for programs
// that are done with a large intermediate result. Objects whose reference
// count reaches zero are reclaimed cluster-wide. Freeing an object this
// context does not reference is a no-op.
func (c *TaskContext) Free(ids ...types.ObjectID) {
	if len(ids) == 0 {
		return
	}
	owned := make([]types.ObjectID, 0, len(ids))
	c.createdMu.Lock()
	for _, id := range ids {
		if _, ok := c.created[id]; ok {
			delete(c.created, id)
			owned = append(owned, id)
		}
	}
	c.createdMu.Unlock()
	c.runtime.FreeObjects(c.Ctx, owned...)
}

// CallContext returns the context itself. It exists so that every value that
// embeds a *TaskContext (drivers, application wrappers) satisfies the public
// ray package's Caller interface without further plumbing. The name avoids
// colliding with core.Driver's embedded TaskContext field, which would shadow
// a promoted method of the same name.
func (c *TaskContext) CallContext() *TaskContext { return c }

// TaskArgument is implemented by external future wrappers — the public ray
// package's typed ObjectRef[T] — so they convert themselves into task
// arguments when passed to Call/CreateActor/CallActor, keeping object
// dependencies flowing through the task graph.
type TaskArgument interface {
	// TaskArg returns the argument representation: an object reference for
	// real futures, an inline value for pre-encoded constants.
	TaskArg() task.Arg
}

// RawValue marks an argument as already serialized: it is passed through to
// the callee unchanged instead of being re-encoded. Library code uses it to
// forward payloads it received as its own arguments (e.g. a policy broadcast
// through an aggregation tree) without a decode/encode round trip.
type RawValue []byte

// buildArgs converts Go values and ObjectIDs into task arguments.
func buildArgs(args []any) ([]task.Arg, error) {
	out := make([]task.Arg, 0, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case types.ObjectID:
			out = append(out, task.RefArg(v))
		case TaskArgument:
			out = append(out, v.TaskArg())
		case RawValue:
			out = append(out, task.ValueArg([]byte(v)))
		case *ActorHandle:
			data, err := codec.Encode(v.export())
			if err != nil {
				return nil, fmt.Errorf("worker: arg %d: %w", i, err)
			}
			out = append(out, task.ValueArg(data))
		case []byte:
			// Raw bytes are passed through as an encoded []byte value.
			data, err := codec.Encode(v)
			if err != nil {
				return nil, fmt.Errorf("worker: arg %d: %w", i, err)
			}
			out = append(out, task.ValueArg(data))
		default:
			data, err := codec.Encode(a)
			if err != nil {
				return nil, fmt.Errorf("worker: arg %d: %w", i, err)
			}
			out = append(out, task.ValueArg(data))
		}
	}
	return out, nil
}

// Call invokes a registered remote function. It is non-blocking: it returns
// the future ObjectIDs of the function's outputs immediately.
func (c *TaskContext) Call(function string, opts CallOptions, args ...any) ([]types.ObjectID, error) {
	opts = opts.normalize(false)
	taskArgs, err := buildArgs(args)
	if err != nil {
		return nil, err
	}
	spec := &task.Spec{
		ID:         c.ids.NextTaskID(),
		Job:        c.Job,
		Driver:     c.Driver,
		ParentTask: c.TaskID,
		Function:   function,
		Args:       taskArgs,
		NumReturns: opts.NumReturns,
		Resources:  opts.Resources,
	}
	if err := c.runtime.SubmitSpec(c.Ctx, spec); err != nil {
		return nil, err
	}
	returns := spec.Returns()
	c.trackCreated(returns...)
	return returns, nil
}

// Call1 is Call for the common single-return case.
func (c *TaskContext) Call1(function string, opts CallOptions, args ...any) (types.ObjectID, error) {
	ids, err := c.Call(function, opts, args...)
	if err != nil {
		return types.NilObjectID, err
	}
	return ids[0], nil
}

// blockingSection wraps a blocking runtime call with the scheduler's block
// hooks (when present): the task's resources are released while it waits and
// re-acquired before it resumes, so nested blocking calls cannot deadlock a
// node (the same behaviour as Ray's workers blocking in ray.get).
func (c *TaskContext) blockingSection(fn func() error) error {
	hooks, ok := types.BlockHooksFrom(c.Ctx)
	if ok && hooks.OnBlock != nil {
		hooks.OnBlock()
	}
	err := fn()
	if ok && hooks.OnUnblock != nil {
		hooks.OnUnblock()
	}
	return err
}

// GetRaw blocks until the object is available and returns its raw payload.
// If the object is an error object the application error is returned. The
// payload is the local store's own buffer, shared with every other reader:
// a read-only view, valid for as long as it is held (the store never reuses
// a payload buffer); bytes.Clone it before writing. Get decodes a value the
// caller owns.
func (c *TaskContext) GetRaw(id types.ObjectID) ([]byte, error) {
	var data []byte
	var isError bool
	err := c.blockingSection(func() error {
		var ferr error
		data, isError, ferr = c.runtime.FetchObject(c.Ctx, id)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	if isError {
		var msg string
		if derr := codec.Decode(data, &msg); derr != nil {
			msg = "task failed"
		}
		return nil, &types.TaskError{Message: msg}
	}
	return data, nil
}

// Get blocks until the object is available and decodes it into out
// (a pointer). This is the blocking ray.get of Table 1.
func (c *TaskContext) Get(id types.ObjectID, out any) error {
	data, err := c.GetRaw(id)
	if err != nil {
		return err
	}
	return codec.Decode(data, out)
}

// GetAll gets several objects, decoding each into the corresponding pointer.
func (c *TaskContext) GetAll(ids []types.ObjectID, outs []any) error {
	if len(ids) != len(outs) {
		return fmt.Errorf("worker: GetAll needs one destination per object (%d vs %d)", len(ids), len(outs))
	}
	for i, id := range ids {
		if err := c.Get(id, outs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Wait blocks until at least k of the objects are available or the timeout
// expires, and returns the ready and not-ready sets — the ray.wait of
// Table 1, added to handle rollouts with heterogeneous durations.
// A timeout of zero or less means no timeout.
func (c *TaskContext) Wait(ids []types.ObjectID, k int, timeout time.Duration) (ready, notReady []types.ObjectID, err error) {
	if k <= 0 || k > len(ids) {
		k = len(ids)
	}
	millis := int64(-1)
	if timeout > 0 {
		millis = timeout.Milliseconds()
		if millis == 0 {
			millis = 1
		}
	}
	var readySet []types.ObjectID
	err = c.blockingSection(func() error {
		var werr error
		readySet, werr = c.runtime.WaitObjects(c.Ctx, ids, k, millis)
		return werr
	})
	if err != nil {
		return nil, nil, err
	}
	isReady := make(map[types.ObjectID]bool, len(readySet))
	for _, id := range readySet {
		isReady[id] = true
	}
	for _, id := range ids {
		if isReady[id] {
			ready = append(ready, id)
		} else {
			notReady = append(notReady, id)
		}
	}
	return ready, notReady, nil
}

// Put stores a value in the object store and returns its ObjectID, so large
// values can be shared without re-serializing them into every task spec.
func (c *TaskContext) Put(v any) (types.ObjectID, error) {
	data, err := codec.Encode(v)
	if err != nil {
		return types.NilObjectID, err
	}
	id := types.PutObjectID(c.TaskID, int(c.putSeq.Add(1)))
	if err := c.runtime.StoreObject(c.Ctx, id, data, false, c.TaskID, c.Job); err != nil {
		return types.NilObjectID, err
	}
	c.trackCreated(id)
	return id, nil
}

// --- Actor handles -----------------------------------------------------------

// ActorHandle is a reference to a remote actor. Method calls through the
// handle return futures, exactly like task invocations; consecutive calls are
// chained with stateful edges so the actor's lineage can be replayed.
type ActorHandle struct {
	// ID identifies the actor.
	ID types.ActorID
	// Class is the registered actor class name.
	Class string

	mu       sync.Mutex
	counter  int64        //guard:by mu
	lastTask types.TaskID //guard:by mu
	creation types.TaskID //guard:init
}

// handleExport is the serializable form of an actor handle, used when a
// handle is passed as an argument to another task or actor.
type handleExport struct {
	ID       types.ActorID
	Class    string
	Creation types.TaskID
}

func (h *ActorHandle) export() handleExport {
	return handleExport{ID: h.ID, Class: h.Class, Creation: h.creation}
}

// DecodeActorHandle reconstructs a handle passed as a task argument.
func DecodeActorHandle(data []byte) (*ActorHandle, error) {
	var exp handleExport
	if err := codec.Decode(data, &exp); err != nil {
		return nil, fmt.Errorf("worker: decode actor handle: %w", err)
	}
	return &ActorHandle{ID: exp.ID, Class: exp.Class, creation: exp.Creation}, nil
}

// CreateActor instantiates a remote actor of the registered class and returns
// a handle to it. The creation itself is a task (it may be scheduled on any
// node with the requested resources); methods called through the handle are
// routed to wherever the actor lives.
func (c *TaskContext) CreateActor(class string, opts CallOptions, args ...any) (*ActorHandle, error) {
	opts = opts.normalize(false)
	taskArgs, err := buildArgs(args)
	if err != nil {
		return nil, err
	}
	actorID := c.ids.NextActorID()
	spec := &task.Spec{
		ID:            c.ids.NextTaskID(),
		Job:           c.Job,
		Driver:        c.Driver,
		ParentTask:    c.TaskID,
		Function:      class,
		Args:          taskArgs,
		NumReturns:    1,
		Resources:     opts.Resources,
		ActorID:       actorID,
		ActorCreation: true,
	}
	if err := c.runtime.SubmitSpec(c.Ctx, spec); err != nil {
		return nil, err
	}
	c.trackCreated(spec.Returns()...)
	return &ActorHandle{ID: actorID, Class: class, creation: spec.ID, lastTask: spec.ID}, nil
}

// CallActor invokes a method on the actor and returns the future outputs.
func (c *TaskContext) CallActor(h *ActorHandle, method string, opts CallOptions, args ...any) ([]types.ObjectID, error) {
	opts = opts.normalize(true)
	taskArgs, err := buildArgs(args)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.counter++
	counter := h.counter
	prev := h.lastTask
	spec := &task.Spec{
		ID:                c.ids.NextTaskID(),
		Job:               c.Job,
		Driver:            c.Driver,
		ParentTask:        c.TaskID,
		Function:          method,
		Args:              taskArgs,
		NumReturns:        opts.NumReturns,
		Resources:         opts.Resources,
		ActorID:           h.ID,
		ActorCounter:      counter,
		PreviousActorTask: prev,
	}
	h.lastTask = spec.ID
	h.mu.Unlock()
	if err := c.runtime.SubmitSpec(c.Ctx, spec); err != nil {
		return nil, err
	}
	returns := spec.Returns()
	c.trackCreated(returns...)
	return returns, nil
}

// CallActor1 is CallActor for the common single-return case.
func (c *TaskContext) CallActor1(h *ActorHandle, method string, opts CallOptions, args ...any) (types.ObjectID, error) {
	ids, err := c.CallActor(h, method, opts, args...)
	if err != nil {
		return types.NilObjectID, err
	}
	return ids[0], nil
}
