// Package lineage implements Ray's lineage-based fault tolerance for objects
// (paper Sections 4.2.1 and 4.2.3): when an object is lost — its node failed
// or the last copy was evicted — the task that produced it is looked up in
// the GCS task table and re-executed, recursively re-creating any of its own
// inputs that were also lost. Because remote functions are stateless and
// deterministic over immutable inputs, re-execution reproduces the object
// under the same ObjectID, so downstream consumers simply find the recreated
// value.
package lineage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/gcs"
	"ray/internal/types"
)

// Reconstructor drives object reconstruction. One exists per node; concurrent
// requests for the same object are deduplicated so a lost hot object is
// re-executed once, not once per consumer.
type Reconstructor struct {
	gcs    *gcs.Store
	submit ResubmitFunc

	mu       sync.Mutex
	inflight map[types.ObjectID]chan error //guard:by mu

	reconstructedTasks   atomic.Int64
	reconstructedObjects atomic.Int64
	repollRescues        atomic.Int64

	// byJobMu guards byJob, the per-job replay counters the cross-job
	// isolation tests (and debugging tools) read: reconstruction for job A
	// must never replay job B's tasks.
	byJobMu sync.Mutex
	byJob   map[types.JobID]int64 //guard:by byJobMu

	// maxDepth bounds recursive reconstruction to catch lineage cycles that
	// would indicate GCS corruption.
	maxDepth int
	// waitTimeout bounds how long to wait for a resubmitted task to recreate
	// its output before reporting failure.
	waitTimeout time.Duration
}

// ResubmitFunc re-injects a task (given its GCS task-table entry) into the
// cluster. The node runtime provides it.
type ResubmitFunc func(ctx context.Context, entry *gcs.TaskEntry) error

// New creates a Reconstructor.
func New(store *gcs.Store, submit ResubmitFunc) *Reconstructor {
	return &Reconstructor{
		gcs:         store,
		submit:      submit,
		inflight:    make(map[types.ObjectID]chan error),
		byJob:       make(map[types.JobID]int64),
		maxDepth:    64,
		waitTimeout: 30 * time.Second,
	}
}

// Stats reports how much reconstruction work has happened (used by the
// fault-tolerance experiments to count re-executed tasks).
type Stats struct {
	ReconstructedTasks   int64
	ReconstructedObjects int64
	RepollRescues        int64 // as objectmanager.Stats.RepollRescues, for waitForObject
}

// Stats returns a snapshot of reconstruction counters.
func (r *Reconstructor) Stats() Stats {
	return Stats{
		ReconstructedTasks:   r.reconstructedTasks.Load(),
		ReconstructedObjects: r.reconstructedObjects.Load(),
		RepollRescues:        r.repollRescues.Load(),
	}
}

// ReconstructedTasksForJob returns how many of the job's tasks this
// reconstructor has replayed (per-job lineage scoping: a node failure must
// only replay the affected job's tasks).
func (r *Reconstructor) ReconstructedTasksForJob(job types.JobID) int64 {
	r.byJobMu.Lock()
	defer r.byJobMu.Unlock()
	return r.byJob[job]
}

// ReconstructObject re-executes lineage until the object has at least one
// live replica. It blocks until the object is available, reconstruction
// fails, or the context is cancelled.
func (r *Reconstructor) ReconstructObject(ctx context.Context, id types.ObjectID) error {
	return r.reconstruct(ctx, id, 0)
}

func (r *Reconstructor) reconstruct(ctx context.Context, id types.ObjectID, depth int) error {
	if depth > r.maxDepth {
		return fmt.Errorf("lineage: reconstruction depth exceeded for %s", id)
	}

	// Deduplicate concurrent reconstructions of the same object.
	r.mu.Lock()
	if ch, ok := r.inflight[id]; ok {
		r.mu.Unlock()
		select {
		case err := <-ch:
			// Re-signal for any other waiter and return.
			select {
			case ch <- err:
			default:
			}
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ch := make(chan error, 1)
	r.inflight[id] = ch
	r.mu.Unlock()

	err := r.doReconstruct(ctx, id, depth)

	r.mu.Lock()
	delete(r.inflight, id)
	r.mu.Unlock()
	ch <- err
	return err
}

func (r *Reconstructor) doReconstruct(ctx context.Context, id types.ObjectID, depth int) error {
	entry, ok, err := r.gcs.GetObject(ctx, id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("lineage: %s has no object table entry: %w", id, types.ErrObjectNotFound)
	}
	if len(entry.Locations) > 0 {
		return nil // already available (someone else reconstructed it)
	}
	if entry.Creator.IsNil() {
		return fmt.Errorf("lineage: %s was not produced by a task (ray.put by a lost driver?): %w",
			id, types.ErrObjectLost)
	}
	taskEntry, ok, err := r.gcs.GetTask(ctx, entry.Creator)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("lineage: creator task %s of %s missing from task table (flushed?): %w",
			entry.Creator, id, types.ErrTaskNotFound)
	}

	// Per-job lineage scoping: never replay a task of a finished or killed
	// job. Whatever that job produced has been (or is being) released; a
	// consumer in another job holding one of its references observes loss,
	// not a resurrection of the dead job's computation.
	if jobID := taskEntry.Spec.Job; !jobID.IsNil() {
		jobEntry, ok, jerr := r.gcs.GetJob(ctx, jobID)
		if jerr != nil {
			return jerr
		}
		if ok && jobEntry.State.Terminal() {
			return fmt.Errorf("lineage: creator task %s of %s belongs to terminated job %s: %w",
				taskEntry.Spec.ID, id, jobID, types.ErrJobTerminated)
		}
	}

	// Recursively make sure the creator's own inputs exist somewhere.
	for _, dep := range taskEntry.Spec.Dependencies() {
		depEntry, ok, err := r.gcs.GetObject(ctx, dep)
		if err != nil {
			return err
		}
		if ok && len(depEntry.Locations) > 0 {
			continue
		}
		if err := r.reconstruct(ctx, dep, depth+1); err != nil {
			return fmt.Errorf("lineage: rebuilding input %s of task %s: %w", dep, taskEntry.Spec.ID, err)
		}
	}

	// Re-execute the creator task and wait for the object to reappear.
	r.reconstructedTasks.Add(1)
	r.byJobMu.Lock()
	r.byJob[taskEntry.Spec.Job]++
	r.byJobMu.Unlock()
	if err := r.submit(ctx, taskEntry); err != nil {
		return fmt.Errorf("lineage: resubmit %s: %w", taskEntry.Spec.ID, err)
	}
	if err := r.waitForObject(ctx, id); err != nil {
		return err
	}
	r.reconstructedObjects.Add(1)
	return nil
}

// waitForObject blocks until the object table records at least one location,
// woken by the object's subscription; the re-poll behind it is a safety net.
func (r *Reconstructor) waitForObject(ctx context.Context, id types.ObjectID) error {
	notify, cancel := r.gcs.SubscribeObject(id)
	defer cancel()
	deadline := time.Now().Add(r.waitTimeout)
	repoll := time.NewTicker(5 * time.Millisecond)
	defer repoll.Stop()
	onRepoll := false // the last wake-up was a re-poll tick with no signal pending
	for {
		entry, ok, err := r.gcs.GetObject(ctx, id)
		if err != nil {
			return err
		}
		if ok && len(entry.Locations) > 0 {
			if onRepoll && len(notify) == 0 {
				r.repollRescues.Add(1)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lineage: reconstruction of %s did not complete in %v: %w",
				id, r.waitTimeout, types.ErrTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-notify:
			onRepoll = false
		case <-repoll.C:
			onRepoll = len(notify) == 0
		}
	}
}

// IsReconstructable reports whether a pull failure should trigger
// reconstruction (the object is known to the GCS and was produced by a task).
func IsReconstructable(err error) bool {
	return errors.Is(err, types.ErrObjectLost)
}

// StatsName implements telemetry.Reporter (namespaced per node by callers).
func (r *Reconstructor) StatsName() string { return "lineage" }

// StatsSnapshot implements telemetry.Reporter.
func (r *Reconstructor) StatsSnapshot() any { return r.Stats() }
