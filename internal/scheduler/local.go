package scheduler

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/job"
	"ray/internal/parallel"
	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// TaskRunner executes a task whose dependencies are local and whose resources
// have been acquired. The worker pool implements it.
type TaskRunner interface {
	// Run executes the task to completion, storing its outputs in the local
	// object store. It returns an error only for infrastructure failures;
	// application errors are stored as error objects.
	Run(ctx context.Context, spec *task.Spec) error
	// Fail records an infrastructure failure for a task that could not run
	// (e.g. its inputs could not be made local): its outputs are written as
	// error objects so downstream consumers fail fast instead of hanging.
	Fail(ctx context.Context, spec *task.Spec, cause error) error
}

// DependencyPuller makes a task's remote inputs local before execution. The
// object manager implements it.
type DependencyPuller interface {
	Pull(ctx context.Context, id types.ObjectID) error
}

// Forwarder routes a task that the local scheduler declined to run to a
// global scheduler (and from there to the chosen node). The cluster
// implements it.
type Forwarder interface {
	ForwardTask(ctx context.Context, spec *task.Spec) error
}

// LocalConfig controls one node's local scheduler.
type LocalConfig struct {
	// NodeID identifies the owning node.
	NodeID types.NodeID
	// Pool is the node's resource pool.
	Pool *resources.Pool
	// SpilloverThreshold is the queued-task count above which new tasks are
	// forwarded to the global scheduler instead of queued locally. The test
	// is per job: one job's backlog spills that job's overflow without
	// forcing an idle job's occasional task off its own node.
	// Zero means 64.
	SpilloverThreshold int
	// InjectedLatency adds artificial delay to every local scheduling
	// decision (Figure 12b ablation).
	InjectedLatency time.Duration
	// WorkerSlots is the number of reusable dispatch slots: the maximum
	// number of worker goroutines concurrently driving tasks. Tasks beyond
	// the slot count wait in the slot queue instead of each spawning a
	// goroutine, which removes per-task goroutine churn from the submission
	// hot path. A task that blocks on a Get/Wait lends its slot to queued
	// work for the duration (like Ray workers blocking in ray.get), so
	// nested task trees cannot deadlock on slots. Zero picks a default from
	// the node's CPU capacity and GOMAXPROCS.
	WorkerSlots int
	// PullFanOut bounds how many of a task's dependencies are pulled
	// concurrently before it runs, so a two-input task overlaps both
	// transfers instead of paying them back to back. Zero means 4.
	PullFanOut int
	// JobWeight maps a job to its fair-share weight for the slot queue, a
	// per-job deficit-round-robin multi-queue in which each backlogged job
	// receives dispatch slots in proportion to its weight (nil, unknown jobs,
	// and values < 1 mean weight 1). The cluster wires the job manager's
	// weights in here.
	JobWeight func(types.JobID) int
	// Metrics receives dispatch-path instrumentation (queue depth, spill
	// decisions, submit→dispatch latency, slot occupancy). A nil registry
	// still works: handles degrade to detached metrics.
	Metrics *telemetry.Registry
	// Tracer records per-task lifecycle spans (queue/dispatch/exec); nil
	// disables span recording.
	Tracer *telemetry.Tracer
}

// Local is one node's local scheduler. Tasks submitted on the node come here
// first (bottom-up scheduling); only overload or infeasible resource demands
// cause forwarding to the global scheduler.
type Local struct {
	cfg     LocalConfig //guard:init
	runner  TaskRunner
	puller  DependencyPuller
	forward Forwarder

	mu sync.Mutex
	// queued counts tasks accepted locally that have not finished;
	// queuedByJob breaks the same count down per job so the spillover test
	// can charge a backlog to the job that built it.
	queued      int                 //guard:by mu
	queuedByJob map[types.JobID]int //guard:by mu
	// actorHold tracks resources held by live actors created on this node.
	actorHold map[types.ActorID]resources.Request //guard:by mu
	// avgTaskMs is the exponentially averaged execution time of recent tasks.
	avgTaskMs float64 //guard:by mu
	// draining refuses new work when the node is shutting down or has been
	// killed by failure injection.
	draining bool //guard:by mu
	// parked: what each waiting task asked for; release sends true, Drain closes.
	parked map[chan bool]resources.Request //guard:by mu

	// Slot pool state. Guarded by poolMu, which is separate from mu so slot
	// bookkeeping never contends with the queue/resource accounting above.
	poolMu sync.Mutex
	// fairQ is the per-job deficit-round-robin queue of accepted tasks
	// awaiting a slot. Guarded by poolMu.
	fairQ *job.FairQueue[queuedTask] //guard:by poolMu
	// purged counts queued tasks dropped by job-exit cleanup.
	purged atomic.Int64
	// slotWorkers counts live worker goroutines, including blocked ones;
	// slotBlocked counts the subset currently parked in user code (Get/Wait)
	// that have lent their slot out.
	slotWorkers int //guard:by poolMu
	slotBlocked int //guard:by poolMu

	// Telemetry handles, always non-nil (a nil registry hands back detached
	// metrics) — see LocalConfig.Metrics/Tracer.
	queueDepth   *telemetry.Gauge     //guard:init
	slotsBusy    *telemetry.Gauge     //guard:init
	spills       *telemetry.Counter   //guard:init
	dispatchWait *telemetry.Histogram //guard:init
	tracer       *telemetry.Tracer    //guard:init
	nodeStr      string               //guard:init — NodeID.String(), formatted once for span labels

	scheduledLocal atomic.Int64
	forwarded      atomic.Int64
	completed      atomic.Int64
	failed         atomic.Int64
	// failSinkErrs counts failures of the failure path itself: Fail could
	// not store a task's error outputs, so consumers of those outputs may
	// block until job teardown cleans up.
	failSinkErrs atomic.Int64
}

// queuedTask pairs a task with the context it was submitted under and the
// instant the scheduler accepted it (the start of its queue span).
type queuedTask struct {
	ctx        context.Context
	spec       *task.Spec
	acceptedAt time.Time
}

// NewLocal creates a local scheduler.
func NewLocal(cfg LocalConfig, runner TaskRunner, puller DependencyPuller, forward Forwarder) *Local {
	if cfg.SpilloverThreshold <= 0 {
		cfg.SpilloverThreshold = 64
	}
	if cfg.WorkerSlots <= 0 {
		cfg.WorkerSlots = defaultWorkerSlots(cfg.Pool)
	}
	if cfg.PullFanOut <= 0 {
		cfg.PullFanOut = 4
	}
	l := &Local{
		cfg:         cfg,
		runner:      runner,
		puller:      puller,
		forward:     forward,
		actorHold:   make(map[types.ActorID]resources.Request),
		parked:      make(map[chan bool]resources.Request),
		queuedByJob: make(map[types.JobID]int),
		avgTaskMs:   1,
		fairQ:       job.NewFairQueue[queuedTask](cfg.JobWeight),
		tracer:      cfg.Tracer,
		nodeStr:     cfg.NodeID.String(),
		queueDepth: cfg.Metrics.Gauge("ray_scheduler_queue_depth",
			"Tasks accepted locally that have not finished."),
		slotsBusy: cfg.Metrics.Gauge("ray_scheduler_slots_busy",
			"Slot-pool workers currently driving (not blocked in) a task."),
		spills: cfg.Metrics.Counter("ray_scheduler_spilled_total",
			"Tasks forwarded to the global scheduler (overload, infeasible, or resource timeout)."),
		dispatchWait: cfg.Metrics.Histogram("ray_scheduler_dispatch_wait_seconds",
			"Latency from local accept to dispatch (start of dependency resolution).", telemetry.DefLatencyBuckets),
	}
	return l
}

// PurgeJob drops every queued (not yet dispatched) task of the job from the
// slot queue — job-exit cleanup. Running tasks are not touched here; they
// observe the job context's cancellation. It returns how many tasks were
// dropped.
func (l *Local) PurgeJob(jobID types.JobID) int {
	l.poolMu.Lock()
	dropped := l.fairQ.Purge(jobID)
	l.poolMu.Unlock()
	if len(dropped) == 0 {
		return 0
	}
	// The dropped tasks were counted as queued at accept; settle the books.
	l.mu.Lock()
	l.queued -= len(dropped)
	l.decJobQueuedLocked(jobID, len(dropped))
	l.mu.Unlock()
	l.purged.Add(int64(len(dropped)))
	l.failed.Add(int64(len(dropped)))
	return len(dropped)
}

// defaultWorkerSlots sizes the slot pool: enough to keep every CPU the node
// offers busy with headroom for tasks in their pull/acquire phases, and never
// fewer than 8 so small nodes still overlap I/O with execution.
func defaultWorkerSlots(pool *resources.Pool) int {
	slots := 2 * runtime.GOMAXPROCS(0)
	if pool != nil {
		if byCPU := int(2 * pool.Total(resources.CPU)); byCPU > slots {
			slots = byCPU
		}
	}
	if slots < 8 {
		slots = 8
	}
	return slots
}

// NodeID returns the owning node's ID.
func (l *Local) NodeID() types.NodeID { return l.cfg.NodeID }

// Submit is the bottom-up entry point: tasks created on this node (by its
// driver or by workers running nested tasks) are offered to the local
// scheduler first. If the node is overloaded or can never satisfy the task's
// resource request, the task is forwarded to the global scheduler.
func (l *Local) Submit(ctx context.Context, spec *task.Spec) error {
	if err := l.delay(ctx); err != nil {
		return err
	}
	// Actor method calls are pinned to the node hosting the actor; they are
	// never forwarded and never spill over.
	if spec.IsActorTask() && !spec.ActorCreation {
		return l.accept(ctx, spec)
	}
	l.mu.Lock()
	// Overload is judged against the submitting job's own backlog, not the
	// node total: a greedy job that floods the queue spills its own overflow
	// while a quiet job's next task still runs where it was submitted.
	overloaded := l.queuedByJob[spec.Job] >= l.cfg.SpilloverThreshold
	infeasible := !l.cfg.Pool.CanEverFit(spec.Resources)
	// Actor creations hold their resources for the actor's lifetime, so
	// accepting one the node cannot currently satisfy risks queueing it
	// behind actors that never release; spill it to the global scheduler
	// instead, which sees other nodes' availability.
	busyCreation := spec.ActorCreation && !l.cfg.Pool.Fits(spec.Resources)
	draining := l.draining
	l.mu.Unlock()
	if draining || overloaded || infeasible || busyCreation {
		l.forwarded.Add(1)
		l.spills.Inc()
		return l.forward.ForwardTask(ctx, spec)
	}
	return l.accept(ctx, spec)
}

// SubmitPlaced accepts a task placed on this node by a global scheduler.
// It does not re-apply the spillover test (that would bounce tasks forever
// between schedulers); the global scheduler's load estimate already accounted
// for this node's queue.
func (l *Local) SubmitPlaced(ctx context.Context, spec *task.Spec) error {
	if err := l.delay(ctx); err != nil {
		return err
	}
	l.mu.Lock()
	if l.draining {
		l.mu.Unlock()
		return fmt.Errorf("scheduler: node %s draining: %w", l.cfg.NodeID, types.ErrNodeDead)
	}
	l.mu.Unlock()
	return l.accept(ctx, spec)
}

func (l *Local) delay(ctx context.Context) error {
	if l.cfg.InjectedLatency <= 0 {
		return nil
	}
	timer := time.NewTimer(l.cfg.InjectedLatency)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// accept queues the task locally and runs it asynchronously through the
// reusable slot pool.
func (l *Local) accept(ctx context.Context, spec *task.Spec) error {
	// A cancelled submission context (most commonly: the task's job was
	// finished or killed) is rejected up front instead of queueing work that
	// would be dropped at dispatch.
	if err := ctx.Err(); err != nil {
		return err
	}
	l.mu.Lock()
	if l.draining {
		l.mu.Unlock()
		return fmt.Errorf("scheduler: node %s draining: %w", l.cfg.NodeID, types.ErrNodeDead)
	}
	l.queued++
	l.queuedByJob[spec.Job]++
	l.mu.Unlock()
	l.scheduledLocal.Add(1)
	l.queueDepth.Inc()
	acceptedAt := time.Now()
	l.poolMu.Lock()
	l.fairQ.Push(spec.Job, queuedTask{ctx: ctx, spec: spec, acceptedAt: acceptedAt})
	l.spawnWorkerLocked()
	l.poolMu.Unlock()
	return nil
}

// spawnWorkerLocked starts a slot worker when there is queued work and a free
// slot (a blocked worker's slot counts as free). Called with poolMu held.
//
//guard:holds poolMu
func (l *Local) spawnWorkerLocked() {
	if l.fairQ.Len() > 0 && l.slotWorkers-l.slotBlocked < l.cfg.WorkerSlots {
		l.slotWorkers++
		l.slotsBusy.Set(int64(l.slotWorkers - l.slotBlocked))
		go l.slotWorker()
	}
}

// slotWorker drains the task queue. Workers exit when the queue is empty or
// when unblocked tasks have pushed the active count over the slot target, so
// the pool shrinks back to its configured size on its own.
func (l *Local) slotWorker() {
	for {
		l.poolMu.Lock()
		if l.slotWorkers-l.slotBlocked > l.cfg.WorkerSlots {
			l.slotWorkers--
			l.slotsBusy.Set(int64(l.slotWorkers - l.slotBlocked))
			l.poolMu.Unlock()
			return
		}
		qt, ok := l.fairQ.Pop()
		if !ok {
			l.slotWorkers--
			l.slotsBusy.Set(int64(l.slotWorkers - l.slotBlocked))
			l.poolMu.Unlock()
			return
		}
		l.poolMu.Unlock()
		l.runTask(qt.ctx, qt.spec, qt.acceptedAt)
	}
}

// noteBlocked records that a slot worker is parked in user code and hands its
// slot to queued work — without this, a task tree deeper than the slot count
// would deadlock waiting for its own descendants.
func (l *Local) noteBlocked() {
	l.poolMu.Lock()
	l.slotBlocked++
	l.slotsBusy.Set(int64(l.slotWorkers - l.slotBlocked))
	l.spawnWorkerLocked()
	l.poolMu.Unlock()
}

// noteUnblocked is the counterpart of noteBlocked, called after the task has
// re-acquired whatever it needs to resume.
func (l *Local) noteUnblocked() {
	l.poolMu.Lock()
	l.slotBlocked--
	l.slotsBusy.Set(int64(l.slotWorkers - l.slotBlocked))
	l.poolMu.Unlock()
}

// failTask records a task failure and stores its outputs as error objects so
// consumers unblock. The failure path is most often taken exactly when the
// submission context is already dead (the job was killed, the submitter gave
// up) — which is when the error outputs MUST still commit, or consumers of
// the task's returns hang until job teardown. The write therefore runs
// detached from the context's cancellation (its values, e.g. the lineage-
// replay marker, are preserved). A failure of the failure path itself is
// counted in Stats.FailSinkErrors.
func (l *Local) failTask(ctx context.Context, spec *task.Spec, cause error) {
	l.failed.Add(1)
	if err := l.runner.Fail(context.WithoutCancel(ctx), spec, cause); err != nil {
		l.failSinkErrs.Add(1)
	}
}

// runTask drives one task through dependency resolution, resource
// acquisition, execution, and completion accounting. acceptedAt is the
// instant accept() admitted the task: its distance to now is the queue
// wait, which feeds the dispatch-wait histogram and the task's queue span.
func (l *Local) runTask(ctx context.Context, spec *task.Spec, acceptedAt time.Time) {
	defer func() {
		l.mu.Lock()
		l.queued--
		l.decJobQueuedLocked(spec.Job, 1)
		l.mu.Unlock()
		l.queueDepth.Dec()
	}()

	dispatchStart := time.Now()
	l.dispatchWait.Observe(dispatchStart.Sub(acceptedAt).Seconds())
	// The task's queue/dispatch/exec spans are accumulated here and handed to
	// the tracer in one batch at exit — one tracer critical section per task,
	// with the ID strings formatted once. Early-return paths (cancelled,
	// failed, forwarded) flush whatever phases completed.
	var spans []telemetry.Span
	var traceTask, traceNode, traceJob string
	if l.tracer.Sampled(spec.ID[15]) {
		traceTask, traceNode, traceJob = spec.ID.String(), l.nodeStr, spec.Job.String()
		spans = append(make([]telemetry.Span, 0, 3), telemetry.Span{
			Task: traceTask, Name: spec.Function, Phase: telemetry.PhaseQueue,
			Node: traceNode, Job: traceJob,
			StartUnixNano: acceptedAt.UnixNano(), DurationNanos: dispatchStart.Sub(acceptedAt).Nanoseconds(),
		})
		defer func() { l.tracer.RecordBatch(spans) }()
	}

	// 0. A task whose submission context died while it queued (its job was
	//    killed, or its submitter gave up) must not execute; its outputs are
	//    stored as error objects so any consumer unblocks.
	if err := ctx.Err(); err != nil {
		l.failTask(ctx, spec, err)
		return
	}

	// 1. Make every dependency local (task dispatch, decoupled from
	//    scheduling: the object manager consults the GCS directly). Multiple
	//    dependencies are pulled concurrently (bounded by PullFanOut) so
	//    their transfers overlap.
	if err := l.pullDependencies(ctx, spec.Dependencies()); err != nil {
		l.failTask(ctx, spec, err)
		return
	}

	// 2. Acquire resources. Actor method calls run under the resources the
	//    actor already holds. Other tasks do not wait indefinitely: if the
	//    node stays full — which can happen permanently when its resources
	//    are pinned by long-lived actors — the task is re-forwarded so a node
	//    with free capacity can take it instead of starving here.
	isMethod := spec.IsActorTask() && !spec.ActorCreation
	if !isMethod {
		if !l.acquire(spec.Resources, 200*time.Millisecond) {
			l.mu.Lock()
			draining := l.draining
			l.mu.Unlock()
			if draining || ctx.Err() != nil {
				l.failTask(ctx, spec, types.ErrNodeDead)
				return
			}
			l.forwarded.Add(1)
			l.spills.Inc()
			if err := l.forward.ForwardTask(ctx, spec); err != nil {
				l.failTask(ctx, spec, err)
			}
			return
		}
		if spec.ActorCreation {
			l.mu.Lock()
			l.actorHold[spec.ActorID] = spec.Resources
			l.mu.Unlock()
		}
	}

	// 3. Execute. Block hooks make a nested blocking Get release what this
	//    task holds while it waits for its children: plain tasks release
	//    their resources (otherwise a recursion deeper than the node's CPU
	//    count deadlocks), and every task lends its dispatch slot to queued
	//    work for the same reason.
	releaseResources := !isMethod && !spec.ActorCreation
	runCtx := types.WithBlockHooks(ctx, types.BlockHooks{
		OnBlock: func() {
			if releaseResources {
				l.release(spec.Resources)
			}
			l.noteBlocked()
		},
		OnUnblock: func() {
			if releaseResources {
				for !l.acquire(spec.Resources, 0) { // a running task waits through drains
				}
			}
			l.noteUnblocked()
		},
	})
	start := time.Now()
	if spans != nil {
		// The dispatch span covers dependency pulls, the spill decision, and
		// resource acquisition — everything between dequeue and execution.
		spans = append(spans, telemetry.Span{
			Task: traceTask, Name: spec.Function, Phase: telemetry.PhaseDispatch,
			Node: traceNode, Job: traceJob,
			StartUnixNano: dispatchStart.UnixNano(), DurationNanos: start.Sub(dispatchStart).Nanoseconds(),
		})
	}
	err := l.runner.Run(runCtx, spec)
	elapsed := time.Since(start)
	if spans != nil {
		spans = append(spans, telemetry.Span{
			Task: traceTask, Name: spec.Function, Phase: telemetry.PhaseExec,
			Node: traceNode, Job: traceJob,
			StartUnixNano: start.UnixNano(), DurationNanos: elapsed.Nanoseconds(),
		})
	}

	// 4. Release resources (unless they belong to a live actor) and update
	//    the duration average used in heartbeats.
	if !isMethod && !spec.ActorCreation {
		l.release(spec.Resources)
	}
	l.observeDuration(elapsed)
	if err != nil {
		l.failTask(ctx, spec, err)
		return
	}
	l.completed.Add(1)
}

// pullDependencies makes every listed object local. With more than one
// dependency, pulls run on up to PullFanOut concurrent workers; the first
// failure cancels the rest and is reported. Duplicate IDs are deduplicated by
// the object manager's inflight table, so fanning out never double-transfers.
func (l *Local) pullDependencies(ctx context.Context, deps []types.ObjectID) error {
	if len(deps) == 0 {
		return nil
	}
	if len(deps) == 1 {
		return l.puller.Pull(ctx, deps[0])
	}
	err := parallel.ForEach(ctx, l.cfg.PullFanOut, len(deps), func(pullCtx context.Context, i int) error {
		return l.puller.Pull(pullCtx, deps[i])
	})
	if err != nil {
		// Prefer the caller's own cancellation over a derived one.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	return nil
}

// acquire takes req from the pool, parking until a release grants it; with
// giveUp > 0, no longer than that (from the first failed try) or until a drain.
func (l *Local) acquire(req resources.Request, giveUp time.Duration) bool {
	l.mu.Lock()
	refuse := l.draining && giveUp > 0
	if refuse || l.cfg.Pool.Acquire(req) {
		l.mu.Unlock()
		return !refuse
	}
	ready := make(chan bool, 1)
	l.parked[ready] = req
	l.mu.Unlock()
	var expired <-chan time.Time
	if giveUp > 0 {
		timer := time.NewTimer(giveUp)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case granted := <-ready:
		return granted
	case <-expired:
	}
	l.mu.Lock()
	_, parked := l.parked[ready]
	delete(l.parked, ready)
	l.mu.Unlock()
	return !parked && <-ready // not parked any more: granted or drained meanwhile
}

// release returns req to the pool and grants what is free to the parked tasks
// it fits: it wakes exactly the goroutines it lets run, however many are parked.
func (l *Local) release(req resources.Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cfg.Pool.Release(req)
	for ready, want := range l.parked {
		if l.cfg.Pool.Acquire(want) {
			//lint:ignore mutexhold ready has room for this, its only send; granting under mu is the point
			ready <- true
			delete(l.parked, ready)
		}
	}
}

// decJobQueuedLocked settles a job's share of the queued count, dropping the
// map entry at zero so finished jobs do not accumulate. Called with mu held.
//
//guard:holds mu
func (l *Local) decJobQueuedLocked(jobID types.JobID, n int) {
	if c := l.queuedByJob[jobID] - n; c > 0 {
		l.queuedByJob[jobID] = c
	} else {
		delete(l.queuedByJob, jobID)
	}
}

// emaAlpha is the exponential-averaging coefficient for the task durations
// reported in heartbeats.
const emaAlpha = 0.2

func (l *Local) observeDuration(d time.Duration) {
	ms := float64(d.Microseconds()) / 1000
	l.mu.Lock()
	l.avgTaskMs = emaAlpha*ms + (1-emaAlpha)*l.avgTaskMs
	l.mu.Unlock()
}

// NotifyActorStopped releases the resources held by an actor created on this
// node (called when the actor exits or its node is reconstructed elsewhere).
func (l *Local) NotifyActorStopped(actor types.ActorID) {
	l.mu.Lock()
	req, ok := l.actorHold[actor]
	delete(l.actorHold, actor)
	l.mu.Unlock()
	if ok {
		l.release(req)
	}
}

// Drain stops accepting new tasks and wakes any goroutine blocked on
// resources so it can observe the shutdown.
func (l *Local) Drain() {
	l.mu.Lock()
	l.draining = true
	for ready := range l.parked {
		close(ready)
	}
	clear(l.parked)
	l.mu.Unlock()
}

// LoadSnapshot describes the node's load for heartbeats to the GCS.
type LoadSnapshot struct {
	QueueLength        int
	AvailableResources map[string]float64
	AvgTaskMillis      float64
}

// Load returns the node's current load snapshot.
func (l *Local) Load() LoadSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LoadSnapshot{
		QueueLength:        l.queued,
		AvailableResources: l.cfg.Pool.Snapshot(),
		AvgTaskMillis:      l.avgTaskMs,
	}
}

// LocalStats is a snapshot of local scheduler counters.
type LocalStats struct {
	ScheduledLocally int64
	Forwarded        int64
	Completed        int64
	Failed           int64
	// Purged counts queued tasks dropped by job-exit cleanup (also included
	// in Failed).
	Purged int64
	// FailSinkErrors counts tasks whose error outputs could not be stored
	// when they failed (the failure path itself failed).
	FailSinkErrors int64
	Queued         int
	// SlotWorkers is the number of live slot-pool worker goroutines
	// (including blocked ones).
	SlotWorkers int
	// SlotQueueLen is the number of accepted tasks still waiting for a slot.
	SlotQueueLen int
}

// Stats returns a snapshot of counters.
func (l *Local) Stats() LocalStats {
	l.mu.Lock()
	queued := l.queued
	l.mu.Unlock()
	l.poolMu.Lock()
	workers := l.slotWorkers
	slotQueue := l.fairQ.Len()
	l.poolMu.Unlock()
	return LocalStats{
		ScheduledLocally: l.scheduledLocal.Load(),
		Forwarded:        l.forwarded.Load(),
		Completed:        l.completed.Load(),
		Failed:           l.failed.Load(),
		Purged:           l.purged.Load(),
		FailSinkErrors:   l.failSinkErrs.Load(),
		Queued:           queued,
		SlotWorkers:      workers,
		SlotQueueLen:     slotQueue,
	}
}

// PendingForJob reports how many of the job's tasks await a slot (tests and
// the multi-driver experiment inspect it).
func (l *Local) PendingForJob(jobID types.JobID) int {
	l.poolMu.Lock()
	defer l.poolMu.Unlock()
	return l.fairQ.PendingFor(jobID)
}

// StatsName implements telemetry.Reporter (namespaced per node by callers).
func (l *Local) StatsName() string { return "scheduler" }

// StatsSnapshot implements telemetry.Reporter.
func (l *Local) StatsSnapshot() any { return l.Stats() }
