// Package ray is the application-facing API of this Ray reproduction, and
// its only front door: Init builds a cluster (internal/cluster) and
// Runtime.NewDriver attaches a driver to it, the process that runs the user
// program and submits the root of the dynamic task graph (paper Section 4.1).
// On top sit compile-time-typed futures, function handles, actor handles and
// fluent call options over the task graph of internal/worker.
//
// The API is the paper's Table 1, with Go generics carrying the types that
// Python carries dynamically:
//
//	Paper (Table 1)                      This package
//	-------------------------------      ------------------------------------------
//	futures = f.remote(args)             ref, err := f.Remote(driver, args...)
//	objects = ray.get(futures)           value, err := ray.Get(driver, ref)
//	ready   = ray.wait(futures, k, t)    ready, rest, err := ray.Wait(driver, refs, k, t)
//	actor   = Class.remote(args)         counter, err := Counter.New(driver, args...)
//	futures = actor.method.remote(args)  ref, err := method.Remote(driver, args...)
//	ray.put(value)                       ref, err := ray.Put(driver, value)
//
// Handles are created at registration time — ray.Register1 returns a
// Func1[A, R] whose Remote only accepts an A and only yields an
// ObjectRef[R] — so a misspelled function name, a mistyped argument, or a
// misread result type is a compile error instead of a runtime failure.
// Actor classes work the same way end to end: RegisterActorClass0/1/2
// registers the constructor, and each ActorMethod0/1/2 declaration installs
// the callee-side dispatch entry in the class's method table while minting
// the typed caller handle, so user types implement no dispatch switch and
// the method table is the only path a method invocation can take.
// Typed futures are themselves task arguments: passing an ObjectRef[T] to
// another Remote call keeps the data dependency inside the task graph, so
// chains like square.RemoteRef(driver, square.Remote(driver, 7)) never block
// the caller.
//
// Who owns which bytes: a function's result is encoded once and that buffer
// becomes the stored object; a []byte parameter of a remote function, actor
// method or actor constructor is a borrowed, read-only view of the stored
// object — valid for as long as it is held, bytes.Clone it before writing;
// every other parameter type, and everything Get returns, is a value the
// receiver owns.
//
// The stringly-typed layer underneath — the worker.TaskContext a Driver
// embeds (Call1, CallActor1 with worker.CallOptions literals) and the raw
// Runtime.RegisterN, RegisterActorClass and RegisterActorMethod — remains
// available to internal libraries and benchmarks, but application code
// should not need it.
package ray

import (
	"context"
	"time"

	"ray/internal/cluster"
	"ray/internal/codec"
	"ray/internal/job"
	"ray/internal/types"
	"ray/internal/worker"
)

// Re-exported so applications import only this package.
type (
	// Config describes the cluster a Runtime manages: cluster.Config, the
	// one place every knob is declared. Start from DefaultConfig.
	Config = cluster.Config
	// Context is the API surface available inside remote functions, actor
	// constructors, and actor methods; drivers embed one too.
	Context = worker.TaskContext
	// JobID identifies one driver's job.
	JobID = types.JobID
	// JobOptions name and weight the job a driver attaches as
	// (Runtime.NewDriverWithOptions).
	JobOptions = job.Options
	// CleanupReport summarizes what a Shutdown or kill released.
	CleanupReport = job.CleanupReport
	// RawRef is an untyped object reference, the currency of the variadic
	// escape hatch (FuncN). RefAs re-types one.
	RawRef = types.ObjectID
)

// Caller is anything that can submit work to the cluster: a *Driver at the
// top level, or the *Context handed to every remote function and actor
// method (so tasks can submit nested tasks, paper Section 3.1).
type Caller interface {
	CallContext() *worker.TaskContext
}

// DefaultConfig returns a small test-friendly cluster: 4 nodes × 4 CPUs,
// instant data plane, lineage recording on, batched control plane,
// fair-share dispatch.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// Shutdown detaches one driver, triggering its job's cleanup: queued and
// running tasks are cancelled, its actors terminated, and its objects
// released from the store — without touching other drivers sharing the
// cluster. Call it when the driver's program is done (the whole-cluster
// counterpart is Runtime.Shutdown). Idempotent.
func Shutdown(ctx context.Context, d *Driver) (CleanupReport, error) {
	return d.Finish(ctx)
}

// Get blocks until the future is available and returns its value — the
// ray.get of Table 1, typed: the result type is carried by the reference.
// The value is decoded for this caller and is its own to modify.
func Get[T any](c Caller, ref ObjectRef[T]) (T, error) {
	var out T
	if ref.inline != nil {
		err := codec.Decode(ref.inline, &out)
		return out, err
	}
	err := c.CallContext().Get(ref.ID, &out)
	return out, err
}

// GetInto fetches an untyped reference (from a FuncN or Actor.Method escape
// hatch) and decodes it into out, which must be a pointer.
func GetInto(c Caller, ref RawRef, out any) error {
	return c.CallContext().Get(ref, out)
}

// Put stores a value in the object store and returns a typed future for it —
// the ray.put of Table 1. Use it to share one large value across many task
// submissions without re-serializing it into every task spec. The value is
// encoded before Put returns: changing it afterwards never reaches the store.
func Put[T any](c Caller, value T) (ObjectRef[T], error) {
	id, err := c.CallContext().Put(value)
	return ObjectRef[T]{ID: id}, err
}

// Free releases the caller's ownership references on the given futures
// before the program (or enclosing task) finishes. An object whose last
// reference dies is reclaimed cluster-wide — store copies deleted, spill
// files removed, locations withdrawn — so long-running drivers that are done
// with a large intermediate result can return its memory immediately instead
// of waiting for job exit; a future freed before its task finishes goes when
// the task does. Its control-plane state goes too: the object's entry once no
// retained lineage pins it, and then the producing task's entry, which
// unpins that task's own arguments in turn. Freeing a reference the caller
// does not own (or an inline value) is a no-op; a freed future must not be
// passed to Get or to further task submissions.
func Free[T any](c Caller, refs ...ObjectRef[T]) {
	ids := make([]types.ObjectID, 0, len(refs))
	for _, r := range refs {
		if r.inline == nil && !r.ID.IsNil() {
			ids = append(ids, r.ID)
		}
	}
	c.CallContext().Free(ids...)
}

// Wait blocks until at least k of the futures are available or the timeout
// expires, returning the ready and not-ready sets — the ray.wait of Table 1,
// added so applications can react to whichever rollout finishes first.
// k <= 0 (or k > len(refs)) waits for all; a timeout <= 0 means no timeout.
// Inline references (ValueRef) are ready by construction.
func Wait[T any](c Caller, refs []ObjectRef[T], k int, timeout time.Duration) (ready, notReady []ObjectRef[T], err error) {
	byID := make(map[types.ObjectID]ObjectRef[T], len(refs))
	ids := make([]types.ObjectID, 0, len(refs))
	for _, r := range refs {
		if r.inline != nil {
			ready = append(ready, r)
			continue
		}
		byID[r.ID] = r
		ids = append(ids, r.ID)
	}
	if k <= 0 || k > len(refs) {
		k = len(refs)
	}
	k -= len(ready)
	if len(ids) == 0 {
		return ready, nil, nil
	}
	if k <= 0 {
		// Inline references already satisfy the quorum; report the real
		// futures as not ready without blocking.
		for _, id := range ids {
			notReady = append(notReady, byID[id])
		}
		return ready, notReady, nil
	}
	readyIDs, notReadyIDs, err := c.CallContext().Wait(ids, k, timeout)
	if err != nil {
		return nil, nil, err
	}
	for _, id := range readyIDs {
		ready = append(ready, byID[id])
	}
	for _, id := range notReadyIDs {
		notReady = append(notReady, byID[id])
	}
	return ready, notReady, nil
}
