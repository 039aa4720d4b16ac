package ray

import (
	"context"
	"fmt"
	"sync"

	"ray/internal/cluster"
	"ray/internal/gcs"
	"ray/internal/job"
	"ray/internal/node"
	"ray/internal/types"
	"ray/internal/worker"
)

// Runtime owns a running cluster and its function registry.
type Runtime struct {
	cfg     Config           //guard:init
	cluster *cluster.Cluster //guard:init
	// regMu serializes read-modify-write updates of GCS function entries
	// (RegisterActorMethod appends per-method records to its class entry).
	regMu sync.Mutex
}

// Init builds and starts a cluster. Attach drivers with Runtime.NewDriver
// (or NewDriverWithOptions for a named, weighted job): each driver gets its
// own job-scoped context and JobID, so many drivers can share the cluster
// with isolated namespaces, fair-share dispatch, and independent lifecycles.
func Init(ctx context.Context, cfg Config) (*Runtime, error) {
	cl := cluster.New(cfg)
	if err := cl.Start(ctx); err != nil {
		return nil, fmt.Errorf("ray: start cluster: %w", err)
	}
	return &Runtime{cfg: cfg, cluster: cl}, nil
}

// Cluster exposes the underlying cluster (failure injection, stats).
func (r *Runtime) Cluster() *cluster.Cluster { return r.cluster }

// Config returns the configuration the runtime was built with.
func (r *Runtime) Config() Config { return r.cfg }

// Shutdown stops the cluster.
func (r *Runtime) Shutdown() { r.cluster.Shutdown() }

// --- Raw registration -------------------------------------------------------
//
// The typed Register*/RegisterActorClass*/ActorMethod* functions are built on
// these. Definitions registered through the Runtime are cluster-wide: shared
// library code every job can call. Definitions registered through a Driver
// live in the driver's job namespace: two drivers registering the same name
// never collide, and a job-scoped name shadows a cluster-wide one for that
// job's tasks only.

// RegisterN publishes a remote function that produces numReturns objects per
// invocation on every node, recording the declared arity in the GCS function
// table.
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
// entry. Duplicate method names and unknown classes are errors. Driver's
// job-scoped registration arrives here with the class already qualified.
func (r *Runtime) RegisterActorMethod(class, method string, numArgs, numReturns int, impl worker.ActorMethodImpl) error {
	if numReturns < 1 {
		numReturns = 1
	}
	if err := r.cluster.Registry().RegisterActorMethod(class, method, impl); err != nil {
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

// Driver is a user program connected to the cluster. It embeds a Context
// whose task is the driver's root task, so the full in-task API (Call, Get,
// Wait, Put, CreateActor, CallActor) is available directly on the driver.
//
// Every driver is a Job: attaching registers the job in the GCS job table,
// every task/object/actor the driver's program creates is stamped with its
// JobID and scheduled under its fair share, and detaching (Shutdown, Finish
// or Kill) cancels the job's queued and running work, terminates its actors,
// and releases its objects.
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
	driverID := types.NewDriverID()
	jobID, jobCtx, err := r.cluster.Jobs().Register(ctx, opts, driverID, n.ID())
	if err != nil {
		return nil, fmt.Errorf("ray: register job: %w", err)
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
	return d.runtime.RegisterActorMethod(worker.QualifiedName(d.Job, class), method, numArgs, numReturns, impl)
}
