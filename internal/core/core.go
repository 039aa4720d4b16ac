// Package core is the user-facing entry point of the Ray reproduction: it
// builds a cluster (Init), registers remote functions and actor classes, and
// hands out Drivers — the processes that execute user programs and submit the
// root of the dynamic task graph (paper Section 4.1).
//
// The API mirrors Table 1 of the paper:
//
//	futures = f.remote(args)        -> Driver.Call / Call1
//	objects = ray.get(futures)      -> Driver.Get / GetAll / core.Get[T]
//	ready   = ray.wait(futures,k,t) -> Driver.Wait
//	actor   = Class.remote(args)    -> Driver.CreateActor
//	futures = actor.method.remote() -> Driver.CallActor
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ray/internal/cluster"
	"ray/internal/codec"
	"ray/internal/gcs"
	"ray/internal/job"
	"ray/internal/node"
	"ray/internal/resources"
	"ray/internal/types"
	"ray/internal/worker"
)

// Re-exported names so applications and examples only import core and worker.
type (
	// ObjectRef is a future: a reference to an object that a task will produce.
	ObjectRef = types.ObjectID
	// CallOptions configure a remote invocation (resources, return count).
	CallOptions = worker.CallOptions
	// ActorHandle is a reference to a remote actor.
	ActorHandle = worker.ActorHandle
	// TaskContext is the API surface available inside remote functions.
	TaskContext = worker.TaskContext
)

// Config describes the cluster a Runtime manages: cluster.Config, the one
// place every knob is declared. Start from DefaultConfig.
type Config = cluster.Config

// NodeLabel is the custom resource that pins work to the i-th node when the
// runtime was built with LabelNodes.
func NodeLabel(i int) string { return cluster.NodeLabel(i) }

// OnNode returns a resource request that pins a task or actor to node i
// (requires Config.LabelNodes).
func OnNode(i int) resources.Request {
	return resources.NewRequest(map[string]float64{NodeLabel(i): 1})
}

// DefaultConfig returns a small test-friendly cluster: 4 nodes × 4 CPUs,
// instant data plane, lineage recording on.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// Runtime owns a running cluster and its function registry.
type Runtime struct {
	cfg     Config           //guard:init
	cluster *cluster.Cluster //guard:init
	drivers atomic.Int64
	// regMu serializes read-modify-write updates of GCS function entries
	// (RegisterActorMethod appends per-method records to its class entry).
	regMu sync.Mutex
}

// Init builds and starts a cluster.
func Init(ctx context.Context, cfg Config) (*Runtime, error) {
	cl := cluster.New(cfg)
	if err := cl.Start(ctx); err != nil {
		return nil, fmt.Errorf("core: start cluster: %w", err)
	}
	return &Runtime{cfg: cfg, cluster: cl}, nil
}

// Cluster exposes the underlying cluster (failure injection, stats).
func (r *Runtime) Cluster() *cluster.Cluster { return r.cluster }

// Config returns the configuration the runtime was built with.
func (r *Runtime) Config() Config { return r.cfg }

// Shutdown stops the cluster.
func (r *Runtime) Shutdown() { r.cluster.Shutdown() }

// Register publishes a single-return remote function under the given name on
// every node and records it in the GCS function table.
func (r *Runtime) Register(name string, doc string, fn worker.Function) error {
	return r.RegisterN(name, doc, 1, fn)
}

// RegisterN publishes a remote function that produces numReturns objects per
// invocation, recording the declared arity in the GCS function table (the
// typed ray package passes the arity of the registered handle here; Register
// used to hardcode 1 regardless of the function's actual return count).
func (r *Runtime) RegisterN(name string, doc string, numReturns int, fn worker.Function) error {
	if numReturns < 1 {
		numReturns = 1
	}
	if err := r.cluster.Registry().Register(name, fn); err != nil {
		return err
	}
	return r.cluster.GCS().RegisterFunction(context.Background(),
		&gcs.FunctionEntry{Name: name, Doc: doc, NumReturns: numReturns})
}

// RegisterActorClass publishes an actor class under the given name with an
// empty method table; attach methods with RegisterActorMethod. Instances of
// the class dispatch exclusively through the table.
func (r *Runtime) RegisterActorClass(name string, doc string, ctor worker.StateConstructor) error {
	if err := r.cluster.Registry().RegisterActorClass(name, ctor); err != nil {
		return err
	}
	return r.cluster.GCS().RegisterFunction(context.Background(),
		&gcs.FunctionEntry{Name: name, Doc: doc, IsActorClass: true})
}

// RegisterActorMethod attaches one method to a registered actor class and
// records its declared arity and return count in the class's GCS function
// entry (the per-method shape the runtime learned at registration time).
// Duplicate method names and unknown classes are errors.
func (r *Runtime) RegisterActorMethod(class, method string, numArgs, numReturns int, impl worker.ActorMethodImpl) error {
	return r.registerActorMethod(class, method, numArgs, numReturns, impl)
}

// registerActorMethod is the shared implementation behind Runtime (cluster
// namespace) and Driver (job namespace) method registration; class arrives
// already qualified on the driver path.
func (r *Runtime) registerActorMethod(class, method string, numArgs, numReturns int, impl worker.ActorMethodImpl) error {
	if numReturns < 1 {
		numReturns = 1
	}
	if err := r.cluster.Registry().RegisterActorMethod(class, method, worker.MethodSpec{
		NumArgs:    numArgs,
		NumReturns: numReturns,
		Impl:       impl,
	}); err != nil {
		return err
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	ctx := context.Background()
	entry, ok, err := r.cluster.GCS().GetFunction(ctx, class)
	if err != nil {
		return err
	}
	if !ok {
		entry = &gcs.FunctionEntry{Name: class, IsActorClass: true}
	}
	entry.Methods = append(entry.Methods, gcs.MethodInfo{
		Name:       method,
		NumArgs:    numArgs,
		NumReturns: numReturns,
	})
	return r.cluster.GCS().RegisterFunction(ctx, entry)
}

// Driver is a user program connected to the cluster. It embeds a TaskContext
// whose task is the driver's root task, so the full in-task API (Call, Get,
// Wait, Put, CreateActor, CallActor) is available directly on the driver.
//
// Every driver is a Job: attaching registers the job in the GCS job table,
// every task/object/actor the driver's program creates is stamped with its
// JobID, and detaching (Finish, or ray.Shutdown) cancels the job's queued
// and running work, terminates its actors, and releases its objects.
type Driver struct {
	*worker.TaskContext
	// ID identifies the driver.
	ID types.DriverID
	// Job identifies the driver's job.
	Job types.JobID
	// Node is the node the driver is attached to.
	Node *node.Node

	runtime *Runtime
}

// JobOptions configure the job a driver attaches as (name + fair-share
// weight).
type JobOptions = job.Options

// NewDriver attaches a driver to the cluster's head node.
func (r *Runtime) NewDriver(ctx context.Context) (*Driver, error) {
	head := r.cluster.HeadNode()
	if head == nil {
		return nil, types.ErrNodeDead
	}
	return r.NewDriverOn(ctx, head)
}

// NewDriverOn attaches a driver to a specific node.
func (r *Runtime) NewDriverOn(ctx context.Context, n *node.Node) (*Driver, error) {
	return r.NewDriverWithOptions(ctx, n, JobOptions{})
}

// NewDriverWithOptions attaches a driver to a specific node as a named,
// weighted job. The driver's context is job-scoped: finishing or killing the
// job cancels it, aborting the driver's in-flight work.
func (r *Runtime) NewDriverWithOptions(ctx context.Context, n *node.Node, opts JobOptions) (*Driver, error) {
	if n == nil || n.Dead() {
		return nil, types.ErrNodeDead
	}
	r.drivers.Add(1)
	driverID := types.NewDriverID()
	jobID, jobCtx, err := r.cluster.Jobs().Register(ctx, opts, driverID, n.ID())
	if err != nil {
		return nil, fmt.Errorf("core: register job: %w", err)
	}
	rootTask := n.IDs().NextTaskID()
	tctx := worker.NewTaskContext(jobCtx, rootTask, jobID, driverID, n.ID(), n, n.IDs())
	return &Driver{TaskContext: tctx, ID: driverID, Job: jobID, Node: n, runtime: r}, nil
}

// Runtime returns the runtime the driver belongs to.
func (d *Driver) Runtime() *Runtime { return d.runtime }

// Finish detaches the driver cleanly: its job is marked finished and its
// remaining work is cleaned up — queued tasks cancelled, actors terminated,
// objects released. Results the program already fetched are unaffected, and
// other drivers' work is untouched. Idempotent.
func (d *Driver) Finish(ctx context.Context) (job.CleanupReport, error) {
	return d.runtime.cluster.Jobs().Finish(ctx, d.Job)
}

// Kill terminates the driver's job forcibly mid-run (operator kill, or the
// driver process died). Cleanup is identical to Finish; only the recorded
// terminal state differs.
func (d *Driver) Kill(ctx context.Context) (job.CleanupReport, error) {
	return d.runtime.cluster.Jobs().Kill(ctx, d.Job)
}

// --- Driver-scoped (per-job) registration -----------------------------------
//
// Definitions registered through the Runtime are cluster-wide: shared
// library code every job can call. Definitions registered through a Driver
// live in the driver's job namespace: two drivers registering the same name
// never collide, and a job-scoped name shadows a cluster-wide one for that
// job's tasks only.

// RegisterFunction publishes a remote function in the driver's job
// namespace, recording the declared return arity in the GCS function table.
func (d *Driver) RegisterFunction(name, doc string, numReturns int, fn worker.Function) error {
	if numReturns < 1 {
		numReturns = 1
	}
	qualified := worker.QualifiedName(d.Job, name)
	if err := d.runtime.cluster.Registry().Register(qualified, fn); err != nil {
		return err
	}
	return d.runtime.cluster.GCS().RegisterFunction(d.Ctx,
		&gcs.FunctionEntry{Name: qualified, Doc: doc, NumReturns: numReturns})
}

// RegisterActorClass publishes an actor class in the driver's job namespace
// with an empty method table; attach methods with RegisterActorMethod.
func (d *Driver) RegisterActorClass(name, doc string, ctor worker.StateConstructor) error {
	qualified := worker.QualifiedName(d.Job, name)
	if err := d.runtime.cluster.Registry().RegisterActorClass(qualified, ctor); err != nil {
		return err
	}
	return d.runtime.cluster.GCS().RegisterFunction(d.Ctx,
		&gcs.FunctionEntry{Name: qualified, Doc: doc, IsActorClass: true})
}

// RegisterActorMethod attaches one method to a job-scoped actor class,
// recording its declared shape in the class's GCS function entry.
func (d *Driver) RegisterActorMethod(class, method string, numArgs, numReturns int, impl worker.ActorMethodImpl) error {
	return d.runtime.registerActorMethod(worker.QualifiedName(d.Job, class), method, numArgs, numReturns, impl)
}

// Get is a generic convenience wrapper over TaskContext.Get: it fetches and
// decodes a future into a value of type T.
func Get[T any](ctx *worker.TaskContext, ref ObjectRef) (T, error) {
	var out T
	err := ctx.Get(ref, &out)
	return out, err
}

// Put stores a value and returns a reference, mirroring ray.put.
func Put(ctx *worker.TaskContext, value any) (ObjectRef, error) {
	return ctx.Put(value)
}

// CPUs builds a CPU-only resource request (helper for CallOptions).
func CPUs(n float64) resources.Request { return resources.CPUs(n) }

// GPUs builds a GPU+CPU resource request (helper for CallOptions).
func GPUs(n float64) resources.Request { return resources.GPUs(n) }

// Resources builds an arbitrary resource request.
func Resources(quantities map[string]float64) resources.Request {
	return resources.NewRequest(quantities)
}

// EncodeValue exposes the codec for applications that pre-serialize payloads
// (e.g. to reuse one serialized policy across thousands of task submissions).
func EncodeValue(v any) ([]byte, error) { return codec.Encode(v) }

// DecodeValue decodes a payload produced by EncodeValue.
func DecodeValue(data []byte, out any) error { return codec.Decode(data, out) }

// Raw marks a pre-serialized payload so it is passed to the callee unchanged.
func Raw(data []byte) worker.RawValue { return worker.RawValue(data) }
