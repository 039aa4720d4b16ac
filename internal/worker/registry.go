// Package worker implements Ray's application-layer processes (paper
// Section 4.1): stateless workers that execute remote functions, and stateful
// actor processes that execute methods serially against private state. It
// also houses the function/actor-class registry — the Go analogue of the
// paper's "remote functions are automatically published to all workers".
package worker

import (
	"context"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"ray/internal/task"
	"ray/internal/types"
)

// Function is a registered remote function. It receives the serialized
// argument values in call order and returns the serialized outputs, one per
// declared return. Returning an error marks every output of the task as an
// error object, which consumers re-raise at Get (exactly the paper's
// semantics for application failures).
//
// Buffers cross this boundary without a copy, in both directions. Each args[i]
// is the object store's own buffer (or the spec's inline value), shared with
// every other reader: a read-only view, valid for as long as it is held —
// the store never reuses a payload buffer — and to be cloned (bytes.Clone)
// before any write; a -race build fails a task that wrote to one with
// types.ErrArgumentMutated. Each returned buffer is handed over: the store
// adopts it as the object, so the function must never write to it again. It
// need not be fresh: returning the same buffer from every call is fine, and
// what codec.Encode returns always qualifies.
type Function func(ctx *TaskContext, args [][]byte) ([][]byte, error)

// Checkpointable is implemented by actor instances that support user-defined
// checkpoints, bounding reconstruction time after a failure (paper
// Section 5.1, "Recovering from actor failures").
type Checkpointable interface {
	// Checkpoint serializes the actor's private state.
	Checkpoint() ([]byte, error)
	// Restore replaces the actor's private state from a checkpoint.
	Restore(data []byte) error
}

// StateConstructor builds a fresh actor state (the body of the actor creation
// task). The returned value is the instance the class's method table
// dispatches against; if it also implements Checkpointable it participates in
// checkpointing. args are read-only views, as for Function.
type StateConstructor func(ctx *TaskContext, args [][]byte) (any, error)

// ActorMethodImpl is one entry of a class's method table: it receives the
// actor's state (as returned by the class's StateConstructor) plus the
// serialized arguments, and returns the serialized outputs. The typed ray
// package generates these wrappers at registration time. Function's buffer
// contract applies: args are read-only views, returned buffers are handed
// over and never written again (an actor that returns its state buffer must
// return an encoding or a copy of it).
type ActorMethodImpl func(ctx *TaskContext, state any, args [][]byte) ([][]byte, error)

// MethodSpec describes one registered actor method: its implementation plus
// the declared argument and return arity, which registration threads into the
// GCS function table.
type MethodSpec struct {
	// NumArgs is the declared argument count.
	NumArgs int
	// NumReturns is the declared return-object count (minimum 1).
	NumReturns int
	// Impl executes the method against the actor's state.
	Impl ActorMethodImpl
}

// actorClass is a registered actor class: its constructor plus its method
// table. Classes dispatch exclusively through the table — an unknown method
// is an error, never a fallthrough.
type actorClass struct {
	ctor    StateConstructor
	methods map[string]MethodSpec
}

// Registry maps names to remote functions and actor classes. A single
// registry is shared by every node in an in-process cluster, mirroring the
// paper's behaviour of publishing each definition to all workers via the GCS
// function table.
//
// Names live in two namespaces: the cluster-wide one (library code registered
// through the Runtime, visible to every job) and per-job ones (definitions a
// driver registers for its own job only). A job-scoped registration is stored
// under its qualified name — QualifiedName(job, name) — and resolution for a
// task of that job tries the job's namespace first, then falls back to the
// cluster-wide one, so two drivers registering the same name never collide.
type Registry struct {
	mu        sync.RWMutex
	functions map[string]Function    //guard:by mu.R
	actors    map[string]*actorClass //guard:by mu.R
}

// QualifiedName returns the registry key of a job-scoped definition. The hex
// job ID prefix plus the '/' separator keeps per-job names disjoint from the
// cluster-wide namespace and from every other job's.
func QualifiedName(job types.JobID, name string) string {
	return string(appendQualifiedName(nil, job, name))
}

// appendQualifiedName appends QualifiedName(job, name) to dst. The per-task
// lookups build the key in a stack buffer and index the map with it
// directly, which costs no allocation.
func appendQualifiedName(dst []byte, job types.JobID, name string) []byte {
	dst = hex.AppendEncode(dst, job[:])
	dst = append(dst, '/')
	return append(dst, name...)
}

// qualifiedNameBuf holds the qualified form of any reasonably named function
// or class; longer names spill to the heap.
type qualifiedNameBuf [2*types.IDSize + 1 + 64]byte

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		functions: make(map[string]Function),
		actors:    make(map[string]*actorClass),
	}
}

// Register adds a remote function under name. Re-registering a name replaces
// the previous definition (useful in tests); registering an empty name or nil
// function is an error.
func (r *Registry) Register(name string, fn Function) error {
	if name == "" || fn == nil {
		return fmt.Errorf("worker: invalid function registration %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.functions[name] = fn
	return nil
}

// RegisterActorClass adds an actor class under name with an (initially empty)
// method table. Methods are attached with RegisterActorMethod; instances of
// the class dispatch exclusively through the table. Re-registering a name
// replaces the previous definition, table included (useful in tests).
func (r *Registry) RegisterActorClass(name string, ctor StateConstructor) error {
	if name == "" || ctor == nil {
		return fmt.Errorf("worker: invalid actor class registration %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.actors[name] = &actorClass{ctor: ctor, methods: make(map[string]MethodSpec)}
	return nil
}

// RegisterActorMethod attaches one method to a class's table. The class must
// have been registered with RegisterActorClass, and each method name may be
// declared only once per class registration.
func (r *Registry) RegisterActorMethod(class, method string, spec MethodSpec) error {
	if method == "" || spec.Impl == nil {
		return fmt.Errorf("worker: invalid method registration %s.%q", class, method)
	}
	if spec.NumReturns < 1 {
		spec.NumReturns = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.actors[class]
	if !ok {
		return fmt.Errorf("worker: method %s.%s: class: %w", class, method, types.ErrFunctionNotFound)
	}
	if _, dup := c.methods[method]; dup {
		return fmt.Errorf("worker: method %s.%s: %w", class, method, types.ErrDuplicateMethod)
	}
	c.methods[method] = spec
	return nil
}

// Function looks up a remote function in the cluster-wide namespace.
func (r *Registry) Function(name string) (Function, error) {
	return r.FunctionFor(types.NilJobID, name)
}

// FunctionFor resolves a function for a task of the given job: the job's own
// namespace first, then the cluster-wide one. A nil job searches only the
// cluster-wide namespace.
func (r *Registry) FunctionFor(job types.JobID, name string) (Function, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !job.IsNil() {
		var buf qualifiedNameBuf
		if fn, ok := r.functions[string(appendQualifiedName(buf[:0], job, name))]; ok {
			return fn, nil
		}
	}
	fn, ok := r.functions[name]
	if !ok {
		return nil, fmt.Errorf("worker: function %q: %w", name, types.ErrFunctionNotFound)
	}
	return fn, nil
}

// ActorClass looks up an actor class constructor in the cluster-wide
// namespace.
func (r *Registry) ActorClass(name string) (StateConstructor, error) {
	return r.ActorClassFor(types.NilJobID, name)
}

// ActorClassFor resolves an actor class constructor for a creation task of
// the given job, job namespace first.
func (r *Registry) ActorClassFor(job types.JobID, name string) (StateConstructor, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, err := r.lookupClassLocked(job, name)
	if err != nil {
		return nil, err
	}
	return c.ctor, nil
}

// lookupClassLocked resolves a class through the job then global namespace.
// Caller holds r.mu (the read lock suffices: resolution only reads).
//
//guard:holds mu.R
func (r *Registry) lookupClassLocked(job types.JobID, name string) (*actorClass, error) {
	if !job.IsNil() {
		var buf qualifiedNameBuf
		if c, ok := r.actors[string(appendQualifiedName(buf[:0], job, name))]; ok {
			return c, nil
		}
	}
	c, ok := r.actors[name]
	if !ok {
		return nil, fmt.Errorf("worker: actor class %q: %w", name, types.ErrFunctionNotFound)
	}
	return c, nil
}

// MethodSpecFor returns the registered spec of one method (for tests and the
// debugging tools). ok is false for unknown classes and unregistered methods.
func (r *Registry) MethodSpecFor(class, method string) (MethodSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.actors[class]
	if !ok {
		return MethodSpec{}, false
	}
	spec, ok := c.methods[method]
	return spec, ok
}

// Dispatch resolves the callee for one method invocation on an instance of a
// cluster-wide class.
func (r *Registry) Dispatch(class, method string, instance any) (func(ctx *TaskContext, args [][]byte) ([][]byte, error), error) {
	return r.DispatchFor(types.NilJobID, class, method, instance)
}

// DispatchFor resolves the callee for one method invocation on an instance
// of the class, searching the job's namespace before the cluster-wide one.
// Classes resolve exclusively through their method table: an unknown method
// is an ErrMethodNotFound, which the worker pool stores as an error object
// for the caller to observe at Get.
func (r *Registry) DispatchFor(job types.JobID, class, method string, instance any) (func(ctx *TaskContext, args [][]byte) ([][]byte, error), error) {
	r.mu.RLock()
	c, err := r.lookupClassLocked(job, class)
	if err != nil {
		r.mu.RUnlock()
		return nil, err
	}
	spec, found := c.methods[method]
	r.mu.RUnlock()
	if !found {
		return nil, fmt.Errorf("worker: %s.%s: %w", class, method, types.ErrMethodNotFound)
	}
	return func(ctx *TaskContext, args [][]byte) ([][]byte, error) {
		return spec.Impl(ctx, instance, args)
	}, nil
}

// Names returns all registered function and actor class names, sorted (for
// the debugging tools).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.functions)+len(r.actors))
	for n := range r.functions {
		out = append(out, n)
	}
	for n := range r.actors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MethodNames returns the sorted method-table names of a class.
func (r *Registry) MethodNames(class string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.actors[class]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(c.methods))
	for n := range c.methods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Runtime is the cluster API surface available to code running inside a task
// or actor method: nested remote calls, object reads, and explicit puts. The
// node runtime implements it; the driver-facing API in internal/core exposes
// the same operations to the user program.
type Runtime interface {
	// SubmitSpec submits a fully formed task spec for execution somewhere in
	// the cluster and returns immediately (the result is the spec's return
	// objects).
	SubmitSpec(ctx context.Context, spec *task.Spec) error
	// FetchObject blocks until the object is available locally and returns
	// its payload. isError reports whether the payload is a serialized
	// application error.
	FetchObject(ctx context.Context, id types.ObjectID) (data []byte, isError bool, err error)
	// StoreObject writes a payload into the local object store and registers
	// it with the GCS, recording the owning job (nil for system objects).
	StoreObject(ctx context.Context, id types.ObjectID, data []byte, isError bool, creator types.TaskID, job types.JobID) error
	// WaitObjects blocks until at least k of the given objects are available
	// anywhere in the cluster or the timeout expires, returning the ready set.
	WaitObjects(ctx context.Context, ids []types.ObjectID, k int, timeoutMillis int64) ([]types.ObjectID, error)
	// FreeObjects releases the caller's references on the objects. Objects
	// whose reference count reaches zero are reclaimed cluster-wide (store
	// copies deleted, GCS locations withdrawn). A no-op when ownership
	// reference counting is disabled.
	FreeObjects(ctx context.Context, ids ...types.ObjectID)
	// NodeID identifies the node this runtime belongs to.
	NodeID() types.NodeID
}
