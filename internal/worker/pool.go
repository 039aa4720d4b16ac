package worker

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/codec"
	"ray/internal/gcs"
	"ray/internal/objectmanager"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// PoolConfig controls a node's worker pool.
type PoolConfig struct {
	// NodeID identifies the owning node.
	NodeID types.NodeID
	// CheckpointInterval is how many method executions an actor runs between
	// automatic checkpoints (for actors implementing Checkpointable).
	// Zero disables checkpointing.
	CheckpointInterval int64
	// RecordLineage controls whether task completion status is written to the
	// GCS task table. Disabling it removes two GCS writes per task for the
	// raw-throughput microbenchmark; every correctness experiment keeps it on.
	RecordLineage bool
	// Tracer records result-stored spans; nil disables span recording.
	Tracer *telemetry.Tracer
}

// Pool executes tasks on behalf of a node: it is the node's set of workers
// (stateless task execution) and actor processes (stateful method execution).
// It implements scheduler.TaskRunner.
type Pool struct {
	cfg      PoolConfig
	registry *Registry
	objects  *objectmanager.Manager
	gcs      *gcs.Store
	ids      *types.IDGenerator

	// runtime is injected by the node after construction (the node implements
	// the Runtime interface using this pool, so the dependency is cyclic at
	// runtime but not at package level).
	runtimeMu sync.RWMutex
	runtime   Runtime //guard:by runtimeMu.R

	actorsMu sync.RWMutex
	actors   map[types.ActorID]*actorProcess //guard:by actorsMu.R

	tasksRun   atomic.Int64
	methodsRun atomic.Int64
	appErrors  atomic.Int64
}

// NewPool creates a worker pool.
func NewPool(cfg PoolConfig, registry *Registry, objects *objectmanager.Manager, store *gcs.Store, ids *types.IDGenerator) *Pool {
	return &Pool{
		cfg:      cfg,
		registry: registry,
		objects:  objects,
		gcs:      store,
		ids:      ids,
		actors:   make(map[types.ActorID]*actorProcess),
	}
}

// SetRuntime injects the node runtime used to build task contexts.
func (p *Pool) SetRuntime(rt Runtime) {
	p.runtimeMu.Lock()
	p.runtime = rt
	p.runtimeMu.Unlock()
}

func (p *Pool) getRuntime() Runtime {
	p.runtimeMu.RLock()
	defer p.runtimeMu.RUnlock()
	return p.runtime
}

// Run executes one task (stateless function, actor creation, or actor
// method). Dependencies are expected to be local (the local scheduler pulled
// them); outputs are stored in the local object store and registered with the
// GCS. Application-level errors become error objects rather than Run errors.
func (p *Pool) Run(ctx context.Context, spec *task.Spec) error {
	tctx := NewTaskContext(ctx, spec.ID, spec.Job, spec.Driver, p.cfg.NodeID, p.getRuntime(), p.ids)
	outs, appErr, err := p.execute(ctx, tctx, spec)
	if err != nil {
		return err
	}
	if err := p.storeOutputs(ctx, spec, outs, appErr); err != nil {
		return err
	}
	// The task is done: the owner references its context accumulated (nested
	// call futures, puts) die with it. Outputs the task handed back as data
	// are already stored; objects only the task referenced are now
	// unreachable and get reclaimed.
	if created := tctx.TakeCreated(); len(created) > 0 {
		p.getRuntime().FreeObjects(ctx, created...)
	}
	return nil
}

// execute resolves the task's inputs and runs its body. The inputs stay
// pinned in the store exactly that long — the object store's promise that a
// running task's inputs cannot be evicted underneath it — and are unpinned
// before Run publishes the outputs: whoever sees the result may release the
// inputs at once, and a pin still held by the finished execution would make
// that reclamation bounce off the store. The second result is the
// application error (stored as error objects), the third an infrastructure
// error (the task did not run).
//
// The argument buffers are the store's own (and the spec's inline values):
// read-only by contract, which a -race build enforces by digesting each one
// before and after the body and failing the task on a difference.
func (p *Pool) execute(ctx context.Context, tctx *TaskContext, spec *task.Spec) ([][]byte, error, error) {
	args, pinned, argErr, err := p.resolveArgs(ctx, spec)
	defer p.unpinAll(pinned)
	switch {
	case err != nil:
		return nil, nil, err
	case argErr != nil:
		// An input was an error object: propagate it to every output without
		// running the task (the paper's error-propagation semantics).
		return nil, argErr, nil
	}
	var before []uint64
	if raceEnabled {
		before = digestArgs(args)
	}
	outs, appErr, err := p.runBody(ctx, tctx, spec, args)
	if raceEnabled && err == nil {
		for i, sum := range digestArgs(args) {
			if sum != before[i] {
				return nil, fmt.Errorf("worker: %s wrote to argument %d: %w", spec.Function, i, types.ErrArgumentMutated), nil
			}
		}
	}
	return outs, appErr, err
}

var digestSeed = maphash.MakeSeed()

func digestArgs(args [][]byte) []uint64 {
	sums := make([]uint64, len(args))
	for i, a := range args {
		sums[i] = maphash.Bytes(digestSeed, a)
	}
	return sums
}

// runBody runs the constructor, method or function the spec names.
func (p *Pool) runBody(ctx context.Context, tctx *TaskContext, spec *task.Spec, args [][]byte) ([][]byte, error, error) {
	switch {
	case spec.ActorCreation:
		if appErr := p.createActor(ctx, tctx, spec, args); appErr != nil {
			return nil, appErr, nil
		}
		return [][]byte{codec.MustEncode(spec.ActorID.Hex())}, nil, nil
	case spec.IsActorTask():
		return p.runActorMethod(ctx, tctx, spec, args)
	default:
		fn, err := p.registry.FunctionFor(spec.Job, spec.Function)
		if err != nil {
			return nil, nil, err
		}
		p.tasksRun.Add(1)
		outs, appErr := fn(tctx, args)
		return outs, appErr, nil
	}
}

// Fail implements the scheduler's failure path: the task could not run (its
// inputs are unrecoverable, or executing it hit an infrastructure error), so
// its outputs are stored as error objects and the task is marked failed.
// Consumers observe a TaskError at Get instead of blocking forever.
func (p *Pool) Fail(ctx context.Context, spec *task.Spec, cause error) error {
	return p.storeOutputs(ctx, spec, nil, fmt.Errorf("task %s could not execute: %w", spec.ID, cause))
}

// resolveArgs materializes the task's arguments from inline values and the
// local object store, pinning every referenced object so eviction cannot pull
// an input out from under the running task. The returned pinned slice must be
// released with unpinAll once execution finishes — it is valid (and must be
// released) on every return path, including errors. If any referenced object
// is an error object, argErr is the decoded application error.
func (p *Pool) resolveArgs(ctx context.Context, spec *task.Spec) (args [][]byte, pinned []types.ObjectID, argErr error, err error) {
	args = make([][]byte, len(spec.Args))
	for i, a := range spec.Args {
		if a.Kind == task.ArgValue {
			args[i] = a.Value
			continue
		}
		obj, ok := p.objects.Local().GetPin(a.Ref)
		if !ok {
			// The scheduler should have pulled it; pull defensively (covers
			// direct Run calls in tests and eviction races) and retry the
			// pin — the object may be evicted again between pull and pin.
			for attempt := 0; !ok && attempt < 3; attempt++ {
				if perr := p.objects.Pull(ctx, a.Ref); perr != nil {
					return nil, pinned, nil, fmt.Errorf("worker: input %s unavailable: %w", a.Ref, perr)
				}
				obj, ok = p.objects.Local().GetPin(a.Ref)
			}
			if !ok {
				return nil, pinned, nil, fmt.Errorf("worker: input %s unavailable after pull: %w", a.Ref, types.ErrObjectNotFound)
			}
		}
		pinned = append(pinned, a.Ref)
		if obj.IsError {
			var msg string
			if derr := codec.Decode(obj.Data, &msg); derr != nil {
				msg = "upstream task failed"
			}
			return nil, pinned, &types.TaskError{TaskID: spec.ID, Message: msg}, nil
		}
		args[i] = obj.Data
	}
	return args, pinned, nil, nil
}

// unpinAll releases the pins resolveArgs took on a task's inputs.
func (p *Pool) unpinAll(pinned []types.ObjectID) {
	for _, id := range pinned {
		p.objects.Local().Unpin(id)
	}
}

// storeOutputs writes the task's outputs (or its error) to the object store
// and records completion in the GCS task table.
func (p *Pool) storeOutputs(ctx context.Context, spec *task.Spec, outs [][]byte, appErr error) error {
	if p.cfg.Tracer.Sampled(spec.ID[15]) {
		storeStart := time.Now()
		defer func() {
			var bytes int64
			for _, out := range outs {
				bytes += int64(len(out))
			}
			p.cfg.Tracer.Record(telemetry.Span{
				Task: spec.ID.String(), Name: spec.Function, Phase: telemetry.PhaseStore,
				Node: p.cfg.NodeID.String(), Job: spec.Job.String(),
				StartUnixNano: storeStart.UnixNano(), DurationNanos: time.Since(storeStart).Nanoseconds(),
				Bytes: bytes,
			})
		}()
	}
	status := types.TaskFinished
	var errPayload []byte
	if appErr != nil {
		p.appErrors.Add(1)
		status = types.TaskFailed
		errPayload = codec.MustEncode(appErr.Error())
	}
	for i := 0; i < spec.NumReturns; i++ {
		data := errPayload
		if appErr == nil {
			if i < len(outs) {
				data = outs[i]
			} else {
				// Fewer outputs than declared returns: store empty payloads
				// so consumers unblock rather than hang.
				data = codec.MustEncode([]byte(nil))
			}
		}
		if err := p.objects.PutOwned(ctx, types.ReturnObjectID(spec.ID, i), data, appErr != nil, spec.ID, spec.Job); err != nil {
			return err
		}
	}
	if p.cfg.RecordLineage {
		if err := p.gcs.UpdateTaskStatus(ctx, spec.ID, status, p.cfg.NodeID); err != nil {
			return err
		}
	}
	// The task no longer pends on its arguments: release the pending-task
	// references submission took on them. Lineage replays skip this — the
	// replayed submission never incremented, so a decrement here would steal
	// a live holder's reference.
	if !types.IsLineageReplay(ctx) {
		if deps := spec.Dependencies(); len(deps) > 0 {
			p.gcs.DecObjectRefs(ctx, deps...)
		}
	}
	return nil
}

// createActor runs an actor creation task: construct the instance and
// register the actor in the GCS actor table.
func (p *Pool) createActor(ctx context.Context, tctx *TaskContext, spec *task.Spec, args [][]byte) error {
	ctor, err := p.registry.ActorClassFor(spec.Job, spec.Function)
	if err != nil {
		return err
	}
	instance, err := ctor(tctx, args)
	if err != nil {
		return err
	}
	proc := newActorProcess(spec.ActorID, spec.Function, spec.ID, spec.Job, instance, p.registry)
	p.actorsMu.Lock()
	p.actors[spec.ActorID] = proc
	p.actorsMu.Unlock()
	return p.gcs.PutActor(ctx, spec.ActorID, &gcs.ActorEntry{
		State:        types.ActorAlive,
		Job:          spec.Job,
		Node:         p.cfg.NodeID,
		CreationTask: spec.ID,
		LastTask:     spec.ID,
	})
}

// runActorMethod executes a method on a local actor instance. The second
// return value is the application error (stored as error objects); the third
// is an infrastructure error (the task did not run).
func (p *Pool) runActorMethod(ctx context.Context, tctx *TaskContext, spec *task.Spec, args [][]byte) ([][]byte, error, error) {
	p.actorsMu.RLock()
	proc, ok := p.actors[spec.ActorID]
	p.actorsMu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("worker: actor %s not hosted on node %s: %w",
			spec.ActorID, p.cfg.NodeID, types.ErrActorNotFound)
	}
	p.methodsRun.Add(1)
	outs, appErr := proc.run(tctx, spec, args)

	// Record progress in the actor table (stateful-edge bookkeeping used by
	// reconstruction), then checkpoint if the policy says so.
	entry, found, err := p.gcs.GetActor(ctx, spec.ActorID)
	if err != nil {
		return nil, nil, err
	}
	if found {
		entry.ExecutedCounter = spec.ActorCounter
		entry.LastTask = spec.ID
		if p.shouldCheckpoint(proc) {
			if data, ok := p.takeCheckpoint(proc); ok {
				entry.CheckpointData = data
				entry.CheckpointCounter = spec.ActorCounter
			}
		}
		if err := p.gcs.PutActor(ctx, spec.ActorID, entry); err != nil {
			return nil, nil, err
		}
	}
	return outs, appErr, nil
}

func (p *Pool) shouldCheckpoint(proc *actorProcess) bool {
	if p.cfg.CheckpointInterval <= 0 {
		return false
	}
	if _, ok := proc.instance.(Checkpointable); !ok {
		return false
	}
	return proc.methodsExecuted()%p.cfg.CheckpointInterval == 0
}

// takeCheckpoint captures the actor's user-defined checkpoint. The data is
// stored in the GCS actor entry (not this node's object store) so it remains
// available to reconstruction after this node fails.
func (p *Pool) takeCheckpoint(proc *actorProcess) ([]byte, bool) {
	ck := proc.instance.(Checkpointable)
	data, err := ck.Checkpoint()
	if err != nil {
		return nil, false
	}
	return data, true
}

// HasActor reports whether this node currently hosts the actor.
func (p *Pool) HasActor(id types.ActorID) bool {
	p.actorsMu.RLock()
	defer p.actorsMu.RUnlock()
	_, ok := p.actors[id]
	return ok
}

// RestoreActorCheckpoint loads checkpoint data into a hosted actor instance
// and marks it as restored at the given counter. Used by actor reconstruction
// after the creation task has been replayed on this node.
func (p *Pool) RestoreActorCheckpoint(id types.ActorID, data []byte, counter int64) error {
	p.actorsMu.RLock()
	proc, ok := p.actors[id]
	p.actorsMu.RUnlock()
	if !ok {
		return fmt.Errorf("worker: restore checkpoint: %w", types.ErrActorNotFound)
	}
	ck, ok := proc.instance.(Checkpointable)
	if !ok {
		return fmt.Errorf("worker: actor class %s does not support checkpoints", proc.class)
	}
	if err := ck.Restore(data); err != nil {
		return err
	}
	proc.markRestored(counter)
	return nil
}

// StopActor removes a hosted actor instance, failing any queued methods.
// It returns false if the actor is not hosted here.
func (p *Pool) StopActor(id types.ActorID) bool {
	p.actorsMu.Lock()
	proc, ok := p.actors[id]
	if ok {
		delete(p.actors, id)
	}
	p.actorsMu.Unlock()
	if ok {
		proc.stop()
	}
	return ok
}

// DropAllActors removes every hosted actor (failure injection: the node's
// processes die). It returns the dropped actor IDs.
func (p *Pool) DropAllActors() []types.ActorID {
	p.actorsMu.Lock()
	ids := make([]types.ActorID, 0, len(p.actors))
	procs := make([]*actorProcess, 0, len(p.actors))
	for id, proc := range p.actors {
		ids = append(ids, id)
		procs = append(procs, proc)
	}
	p.actors = make(map[types.ActorID]*actorProcess)
	p.actorsMu.Unlock()
	for _, proc := range procs {
		proc.stop()
	}
	return ids
}

// ActorsForJob lists the actors hosted on this node that belong to the given
// job (job-exit cleanup terminates exactly these).
func (p *Pool) ActorsForJob(job types.JobID) []types.ActorID {
	p.actorsMu.RLock()
	defer p.actorsMu.RUnlock()
	var out []types.ActorID
	for id, proc := range p.actors {
		if proc.job == job {
			out = append(out, id)
		}
	}
	return out
}

// ActorIDs lists actors hosted on this node.
func (p *Pool) ActorIDs() []types.ActorID {
	p.actorsMu.RLock()
	defer p.actorsMu.RUnlock()
	out := make([]types.ActorID, 0, len(p.actors))
	for id := range p.actors {
		out = append(out, id)
	}
	return out
}

// PoolStats is a snapshot of worker pool counters.
type PoolStats struct {
	TasksRun     int64
	MethodsRun   int64
	AppErrors    int64
	ActorsHosted int
	// MethodsByActor is keyed by ActorID.String() so the snapshot
	// JSON-serializes (json map keys must be strings) for /statusz.
	MethodsByActor map[string]int64
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() PoolStats {
	p.actorsMu.RLock()
	defer p.actorsMu.RUnlock()
	byActor := make(map[string]int64, len(p.actors))
	for id, proc := range p.actors {
		byActor[id.String()] = proc.methodsExecuted()
	}
	return PoolStats{
		TasksRun:       p.tasksRun.Load(),
		MethodsRun:     p.methodsRun.Load(),
		AppErrors:      p.appErrors.Load(),
		ActorsHosted:   len(p.actors),
		MethodsByActor: byActor,
	}
}

// StatsName implements telemetry.Reporter (namespaced per node by callers).
func (p *Pool) StatsName() string { return "workers" }

// StatsSnapshot implements telemetry.Reporter.
func (p *Pool) StatsSnapshot() any { return p.Stats() }
