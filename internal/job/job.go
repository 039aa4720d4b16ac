// Package job implements the job-management subsystem: every driver attaches
// to the cluster as a registered Job with its own ID, and everything the
// driver's program creates — tasks, objects, actors — is stamped with that
// JobID end to end. The Manager owns the job lifecycle (register, finish,
// kill) against the GCS job table, hands out per-job contexts whose
// cancellation stops the job's in-flight work, supplies the fair-share
// weights the deficit-round-robin dispatch queues consume, and drives
// job-exit cleanup through cluster-provided hooks: cancelling queued tasks,
// terminating actors, and releasing the job's objects from the store.
//
// The design follows the multi-tenancy need the paper's workloads imply (many
// applications sharing one cluster) and Launchpad's program-as-job model: a
// driver's whole task graph is a first-class, killable unit.
package job

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ray/internal/gcs"
	"ray/internal/types"
)

// Hooks is the cleanup surface a Manager drives at job exit. The cluster
// implements it; each hook is best-effort and returns how much it cleaned up.
type Hooks interface {
	// CancelJobTasks removes the job's queued tasks from every dispatch queue
	// (local slot queues and the global forward dispatcher).
	CancelJobTasks(job types.JobID) int
	// StopJobActors terminates every actor the job created, marking them dead
	// in the GCS actor table and releasing their held resources.
	StopJobActors(ctx context.Context, job types.JobID) int
	// ReleaseJobObjects drops the job's objects from every node's store and
	// withdraws their locations from the GCS object table.
	ReleaseJobObjects(ctx context.Context, job types.JobID) int
}

// Options configure one job at registration.
type Options struct {
	// Name is an optional human-readable label.
	Name string
	// Weight is the job's fair-share weight (minimum and default 1): under
	// contention a weight-2 job receives twice the dispatch share of a
	// weight-1 job.
	Weight int
}

// CleanupReport summarizes what a Finish or Kill released.
type CleanupReport struct {
	// TasksCancelled counts queued tasks dropped from dispatch queues.
	TasksCancelled int
	// ActorsStopped counts actors terminated.
	ActorsStopped int
	// ObjectsReleased counts object replicas dropped from stores.
	ObjectsReleased int
}

// liveJob is the in-memory state of a registered, not-yet-terminal job.
type liveJob struct {
	name   string
	weight int
	ctx    context.Context
	cancel context.CancelFunc
}

// Manager owns the cluster's jobs. One Manager exists per cluster; drivers
// register through it at attach time and everything else (schedulers,
// routing, lineage) consults it for job liveness and weights.
type Manager struct {
	gcs   *gcs.Store
	hooks Hooks

	// mu guards live. Reads (Alive, Weight — called on every dispatch
	// quantum grant and every actor route) vastly outnumber writes
	// (register/terminate), hence the RWMutex. Cleanup hooks are always
	// invoked with mu released, so hook implementations may freely call
	// back into Alive/Weight.
	mu   sync.RWMutex
	live map[types.JobID]*liveJob //guard:by mu.R

	registered atomic.Int64
	finished   atomic.Int64
	killed     atomic.Int64
}

// NewManager creates a Manager backed by the given GCS. hooks may be nil
// (tests); cleanup then only touches GCS state.
func NewManager(store *gcs.Store, hooks Hooks) *Manager {
	return &Manager{gcs: store, hooks: hooks, live: make(map[types.JobID]*liveJob)}
}

// Register records a new job in the GCS job table and returns its ID together
// with the job-scoped context every task the job submits should run under:
// cancelling it (which Finish and Kill do) aborts the job's in-flight work.
// The context is derived from parent, so detaching the parent also ends the
// job's work.
func (m *Manager) Register(parent context.Context, opts Options, driver types.DriverID, node types.NodeID) (types.JobID, context.Context, error) {
	if opts.Weight < 1 {
		opts.Weight = 1
	}
	id := types.NewJobID()
	err := m.gcs.RegisterJob(parent, &gcs.JobEntry{
		ID:     id,
		Name:   opts.Name,
		State:  types.JobRunning,
		Driver: driver,
		Node:   node,
		Weight: opts.Weight,
	})
	if err != nil {
		return types.NilJobID, nil, err
	}
	jobCtx, cancel := context.WithCancel(parent)
	m.mu.Lock()
	m.live[id] = &liveJob{name: opts.Name, weight: opts.Weight, ctx: jobCtx, cancel: cancel}
	m.mu.Unlock()
	// Close the race with a concurrent Kill (e.g. an operator killing a job
	// ID read from the job table the instant it appears): if the job went
	// terminal between the table write and the live-map insert, the
	// terminator saw no live entry to cancel — undo the insert here so the
	// job cannot linger alive-looking forever. Whichever side observes the
	// other's write wins; both orders converge on dead.
	if entry, ok, err := m.gcs.GetJob(parent, id); err == nil && ok && entry.State.Terminal() {
		m.mu.Lock()
		delete(m.live, id)
		m.mu.Unlock()
		cancel()
		return types.NilJobID, nil, fmt.Errorf("job: %s killed during registration: %w", id, types.ErrJobTerminated)
	}
	m.registered.Add(1)
	//lint:ignore errdrop events are advisory; registration already committed
	_ = m.gcs.AppendEvent(parent, "job_registered", id)
	return id, jobCtx, nil
}

// Context returns the job-scoped context of a live job (ok=false once the
// job is terminal or unknown).
func (m *Manager) Context(job types.JobID) (context.Context, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if lj, ok := m.live[job]; ok {
		return lj.ctx, true
	}
	return nil, false
}

// Alive reports whether the job is registered here and not yet terminal.
// System work (nil job) counts as alive.
func (m *Manager) Alive(job types.JobID) bool {
	if job.IsNil() {
		return true
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.live[job]
	return ok
}

// Weight returns the job's fair-share weight; unknown jobs (including nil,
// i.e. system work) weigh 1. The dispatch queues call this on every
// round-robin quantum grant.
func (m *Manager) Weight(job types.JobID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if lj, ok := m.live[job]; ok {
		return lj.weight
	}
	return 1
}

// Finish ends a job cleanly: the driver is done. Cleanup is identical to
// Kill — queued tasks cancelled, actors terminated, objects released — only
// the recorded terminal state differs.
func (m *Manager) Finish(ctx context.Context, job types.JobID) (CleanupReport, error) {
	return m.terminate(ctx, job, types.JobFinished)
}

// Kill terminates a job forcibly mid-run.
func (m *Manager) Kill(ctx context.Context, job types.JobID) (CleanupReport, error) {
	return m.terminate(ctx, job, types.JobKilled)
}

func (m *Manager) terminate(ctx context.Context, job types.JobID, state types.JobState) (CleanupReport, error) {
	var report CleanupReport
	if job.IsNil() {
		return report, fmt.Errorf("job: terminate nil job: %w", types.ErrJobNotFound)
	}
	m.mu.Lock()
	lj, wasLive := m.live[job]
	delete(m.live, job)
	m.mu.Unlock()

	// Record the terminal state first so schedulers, routing, and lineage
	// observe the job as dead before (and while) its work is being torn
	// down. The caller whose update performed the transition owns cleanup —
	// even when the job was never (or not yet) in this manager's live map,
	// e.g. an operator killing a job by its table ID.
	_, transitioned, err := m.gcs.UpdateJobState(ctx, job, state)
	if err != nil {
		return report, err
	}
	if transitioned {
		// Sweep the live map again now that the terminal state is written: a
		// Register racing this terminate may have inserted its entry after
		// our first look but before the state write. Register's own
		// post-insert verification reads the job table after inserting, and
		// we re-read the live map after writing — whichever side observes
		// the other's write undoes the insert, so no ordering leaves a
		// killed job looking alive.
		m.mu.Lock()
		if straggler, ok := m.live[job]; ok {
			delete(m.live, job)
			if lj == nil {
				lj = straggler
			} else if straggler != lj {
				straggler.cancel()
			}
		}
		m.mu.Unlock()
	}
	if !transitioned && !wasLive {
		// Already terminated by a concurrent caller; cleanup ran (or runs)
		// under that call.
		return report, nil
	}
	if lj != nil {
		lj.cancel()
	}

	// Teardown runs once, under the caller that performed the transition. A
	// caller that only held the live entry has cancelled its context above
	// and still waits for durability below.
	if transitioned && m.hooks != nil {
		report.TasksCancelled = m.hooks.CancelJobTasks(job)
		report.ActorsStopped = m.hooks.StopJobActors(ctx, job)
		report.ObjectsReleased = m.hooks.ReleaseJobObjects(ctx, job)
	}

	// Flush-on-ack: wait until the terminal state is durably replicated
	// before reporting the job dead to the caller.
	if err := m.gcs.CommitFuture(types.UniqueID(job)).Wait(ctx); err != nil {
		return report, fmt.Errorf("job: %s terminal state not durable: %w", job, err)
	}

	// Only the caller that performed the transition records it.
	if transitioned {
		kind := "job_finished"
		if state == types.JobKilled {
			m.killed.Add(1)
			kind = "job_killed"
		} else {
			m.finished.Add(1)
		}
		//lint:ignore errdrop events are advisory; the terminal state transition already committed
		_ = m.gcs.AppendEvent(ctx, kind, job)
	}
	return report, nil
}

// Close cancels every live job's context without running cleanup — the
// cluster is shutting down and its nodes are draining anyway.
func (m *Manager) Close() {
	m.mu.Lock()
	live := m.live
	m.live = make(map[types.JobID]*liveJob)
	m.mu.Unlock()
	for _, lj := range live {
		lj.cancel()
	}
}

// Stats is a snapshot of job lifecycle counters.
type Stats struct {
	Registered int64
	Finished   int64
	Killed     int64
	Live       int
}

// Stats returns a snapshot of job counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	live := len(m.live)
	m.mu.Unlock()
	return Stats{
		Registered: m.registered.Load(),
		Finished:   m.finished.Load(),
		Killed:     m.killed.Load(),
		Live:       live,
	}
}

// StatsName implements telemetry.Reporter.
func (m *Manager) StatsName() string { return "jobs" }

// StatsSnapshot implements telemetry.Reporter.
func (m *Manager) StatsSnapshot() any { return m.Stats() }
