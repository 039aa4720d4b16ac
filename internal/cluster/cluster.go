// Package cluster wires nodes, the Global Control Store, and the global
// scheduler into one runnable Ray cluster, and implements the
// cluster-wide concerns no single node can handle alone: routing forwarded
// tasks to the node the global scheduler picked, routing actor method calls
// to the node hosting the actor, reconstructing actors after node failures,
// and failure injection for the fault-tolerance experiments.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/gcs"
	"ray/internal/job"
	"ray/internal/netsim"
	"ray/internal/node"
	"ray/internal/objectstore"
	"ray/internal/scheduler"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
	"ray/internal/worker"
)

// Config describes a cluster; it is the only cluster config (ray.Config and
// core.Config are aliases of it). Per-node knobs live in the embedded
// node.Config (cfg.CPUs, cfg.SpillDir, ...) and apply to every node the
// cluster builds; the rest are cluster-wide. A knob left at zero takes the
// default of the constructor that consumes it.
type Config struct {
	node.Config
	// Nodes is the initial node count (0 = 1).
	Nodes int
	// GCSShards is the number of Global Control Store shards (0 = 1); every
	// shard is a chain of gcsReplication replicas.
	GCSShards int
	// GCSBatchFlushInterval is the longest a control-plane write waits in
	// its shard's pending buffer before it is chain-committed (0 = 2ms).
	GCSBatchFlushInterval time.Duration
	// LocalityAware toggles locality-aware global placement (Figure 8a).
	LocalityAware bool
	// Network configures the simulated data plane; the global scheduler
	// prices remote inputs at its bandwidth.
	Network netsim.Config
	// LabelNodes, when true, gives node i a custom resource NodeLabel(i) so
	// applications can pin tasks and actors to specific nodes (Ray's custom
	// resource mechanism). The collective and training workloads use it to
	// place one participant per node.
	LabelNodes bool
	// TraceSampleEvery traces one task lifecycle in every n (rounded up to a
	// power of two; 0 = 16, 1 = every task). Sampling is what keeps tracing
	// cheap enough to stay on; full capture is a timeline-demo setting.
	TraceSampleEvery int
}

// gcsReplication is the chain length of every GCS shard.
const gcsReplication = 2

// NodeLabel is the custom resource name that pins work to the i-th node when
// the cluster was built with LabelNodes.
func NodeLabel(i int) string { return fmt.Sprintf("node%d", i) }

// DefaultConfig returns a small test-friendly cluster: 4 nodes × 4 CPUs,
// 4 GCS shards, locality-aware placement, lineage recording on, instant
// (zero-delay) data plane. Every other knob is at zero, i.e. at its
// consumer's default (1 GiB stores, 8 transfer streams, 1-in-16 tracing).
func DefaultConfig() Config {
	cfg := Config{Nodes: 4, GCSShards: 4, LocalityAware: true, Network: netsim.InstantConfig()}
	cfg.RecordLineage = true
	return cfg
}

// Cluster is a running Ray cluster.
type Cluster struct {
	cfg      Config
	gcs      *gcs.Store
	network  *netsim.Network
	registry *worker.Registry
	global   *scheduler.Global
	jobs     *job.Manager
	// dispatch is the fair-share forward dispatcher.
	dispatch *dispatcher

	mu    sync.RWMutex
	nodes map[types.NodeID]*node.Node //guard:by mu.R
	order []types.NodeID              //guard:by mu.R

	// actor reconstruction dedup
	reconMu       sync.Mutex
	reconInflight map[types.ActorID]chan error //guard:by reconMu

	// heartbeat aggregator lifecycle.
	heartbeatCancel context.CancelFunc
	heartbeatDone   chan struct{}
	shutdownOnce    sync.Once

	// Telemetry, threaded into the GCS and every node; the heartbeat
	// aggregator flushes buffered spans into the GCS span table each tick.
	metrics *telemetry.Registry //guard:init
	tracer  *telemetry.Tracer   //guard:init
	// flushCtx carries Start's context values (detached from cancellation)
	// so Shutdown's final span flush has a context to write under.
	flushCtxMu sync.Mutex
	flushCtx   context.Context //guard:by flushCtxMu

	forwards         atomic.Int64
	actorRoutes      atomic.Int64
	reconstructedA   atomic.Int64
	objectsReclaimed atomic.Int64

	// pendingWithdraw is the cluster's one withdrawal ledger: the object
	// locations that eviction, reclamation and job-exit cleanup could not
	// finish with, for the heartbeat aggregator to retry until they commit.
	// The value tells the two cases apart. False: the replica is gone but
	// the GCS withdrawal failed, and the stale location points consumers at
	// missing data. True: the store refused the delete because a running
	// task still pins the replica, so replica and location both remain and
	// the retry has to delete the one before it withdraws the other.
	withdrawMu      sync.Mutex
	pendingWithdraw map[withdrawal]bool //guard:by withdrawMu
}

// withdrawal identifies one (object, node) location entry awaiting removal.
type withdrawal struct {
	obj  types.ObjectID
	node types.NodeID
}

// New builds a cluster (nodes are created but not started; call Start).
func New(cfg Config) *Cluster { return newCluster(cfg, false) }

// newCluster is New over a GCS that commits every write synchronously when
// syncWrites is set: the reference store of the gcs tests, which one cluster
// test runs a whole cluster over.
func newCluster(cfg Config, syncWrites bool) *Cluster {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.TraceSampleEvery == 0 {
		cfg.TraceSampleEvery = 16
	}
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultTracerCapacity)
	tracer.SetSampleEvery(cfg.TraceSampleEvery)
	c := &Cluster{
		cfg: cfg,
		gcs: gcs.New(gcs.Config{
			Shards:             cfg.GCSShards,
			ReplicationFactor:  gcsReplication,
			BatchFlushInterval: cfg.GCSBatchFlushInterval,
			SyncWrites:         syncWrites,
			Metrics:            metrics,
		}),
		network:       netsim.New(cfg.Network),
		registry:      worker.NewRegistry(),
		nodes:         make(map[types.NodeID]*node.Node),
		reconInflight: make(map[types.ActorID]chan error),
		metrics:       metrics,
		tracer:        tracer,
	}
	placement := scheduler.DefaultGlobalConfig()
	placement.LocalityAware = cfg.LocalityAware
	placement.BandwidthBytesPerSec = cfg.Network.BandwidthBytesPerSec
	placement.InjectedLatency = cfg.InjectedSchedulerLatency
	c.global = scheduler.NewGlobal(placement, c.gcs)
	c.gcs.SetReclaimer(c.reclaimObject)
	c.jobs = job.NewManager(c.gcs, c)
	c.dispatch = newDispatcher(c, c.jobs.Weight)
	for i := 0; i < cfg.Nodes; i++ {
		c.addNode(cfg.Config)
	}
	return c
}

// addNode builds a node from its knobs and the cluster's wiring — shared
// services, telemetry, job weights and, with LabelNodes, the label of its
// position — and registers it. Every node is built here, initial or added.
func (c *Cluster) addNode(cfg node.Config) *node.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := node.Wiring{
		GCS: c.gcs, Network: c.network, Registry: c.registry, Peers: c, Router: c,
		JobWeight: c.jobs.Weight, Metrics: c.metrics, Tracer: c.tracer,
	}
	if c.cfg.LabelNodes {
		w.Labels = map[string]float64{NodeLabel(len(c.order)): 1e6}
	}
	n := node.New(cfg, w)
	c.nodes[n.ID()] = n
	c.order = append(c.order, n.ID())
	return n
}

// Start registers every node with the GCS and starts the heartbeat
// aggregator.
func (c *Cluster) Start(ctx context.Context) error {
	c.flushCtxMu.Lock()
	if c.flushCtx == nil {
		c.flushCtx = context.WithoutCancel(ctx)
	}
	c.flushCtxMu.Unlock()
	for _, n := range c.NodeList() {
		if err := n.Start(ctx); err != nil {
			return err
		}
	}
	if c.heartbeatDone == nil {
		// The aggregator outlives Start's caller (Shutdown cancels it), so
		// detach cancellation but keep the caller's context values.
		hbCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c.heartbeatCancel = cancel
		c.heartbeatDone = make(chan struct{})
		go c.heartbeatLoop(hbCtx)
	}
	return nil
}

// heartbeatLoop is the heartbeat aggregator: every tick it ticks each alive
// node (HeartbeatTick) and writes the whole cluster's load through one batched
// GCS commit per shard, so heartbeat write load does not grow with cluster
// size.
func (c *Cluster) heartbeatLoop(ctx context.Context) {
	defer close(c.heartbeatDone)
	interval := c.cfg.HeartbeatInterval
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.retryWithdrawals(ctx)
			alive := c.AliveNodes()
			updates := make([]gcs.HeartbeatUpdate, 0, len(alive))
			for _, n := range alive {
				updates = append(updates, n.HeartbeatTick())
			}
			//lint:ignore errdrop periodic refresh: the next tick re-sends the full batch, so a transient commit failure self-heals
			_ = c.gcs.HeartbeatBatch(ctx, updates)
			// Spans are diagnostics; a failed flush drops the batch and the
			// next tick carries on.
			_ = c.tracer.Flush(ctx, c.gcs)
		}
	}
}

// Shutdown stops every node gracefully, then the dispatcher, the heartbeat
// aggregator, and finally flushes and closes the GCS write path. Idempotent.
func (c *Cluster) Shutdown() {
	c.shutdownOnce.Do(func() {
		c.jobs.Close()
		for _, n := range c.NodeList() {
			if !n.Dead() {
				n.Stop()
			}
		}
		c.dispatch.stop()
		if c.heartbeatCancel != nil {
			c.heartbeatCancel()
			<-c.heartbeatDone
		}
		c.flushCtxMu.Lock()
		flushCtx := c.flushCtx
		c.flushCtxMu.Unlock()
		if flushCtx != nil {
			// Final span flush so a post-shutdown timeline export sees the
			// tail of the run.
			// Spans are diagnostics; losing the final batch is acceptable.
			_ = c.tracer.Flush(flushCtx, c.gcs)
		}
		//lint:ignore errdrop Shutdown is idempotent; a Close error on an already-stopped store changes nothing
		_ = c.gcs.Close()
	})
}

// GCS returns the cluster's Global Control Store.
func (c *Cluster) GCS() *gcs.Store { return c.gcs }

// Metrics returns the cluster's metrics registry.
func (c *Cluster) Metrics() *telemetry.Registry { return c.metrics }

// Tracer returns the cluster's span tracer.
func (c *Cluster) Tracer() *telemetry.Tracer { return c.tracer }

// FlushTelemetry drains buffered spans into the GCS span table so exports
// and /timeline observe everything recorded so far.
func (c *Cluster) FlushTelemetry(ctx context.Context) error {
	return c.tracer.Flush(ctx, c.gcs)
}

// Network returns the simulated data plane.
func (c *Cluster) Network() *netsim.Network { return c.network }

// Registry returns the shared function/actor registry.
func (c *Cluster) Registry() *worker.Registry { return c.registry }

// Jobs returns the cluster's job manager: drivers register through it at
// attach time and detach (finish/kill) through it for job-exit cleanup.
func (c *Cluster) Jobs() *job.Manager { return c.jobs }

// PendingForwardsForJob reports how many of the job's forwarded tasks await
// fair-share dispatch.
func (c *Cluster) PendingForwardsForJob(jobID types.JobID) int {
	return c.dispatch.pendingFor(jobID)
}

// Node returns the node with the given ID (nil if unknown).
func (c *Cluster) Node(id types.NodeID) *node.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// NodeList returns every node in creation order (including dead ones).
func (c *Cluster) NodeList() []*node.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*node.Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// AliveNodes returns the nodes that have not been killed.
func (c *Cluster) AliveNodes() []*node.Node {
	var out []*node.Node
	for _, n := range c.NodeList() {
		if !n.Dead() {
			out = append(out, n)
		}
	}
	return out
}

// HeadNode returns the first alive node (where drivers attach by default).
func (c *Cluster) HeadNode() *node.Node {
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return nil
	}
	return alive[0]
}

// AddNode adds and starts a new node with the given knobs, wired like every
// other node (elastic scale-out, used by the Figure 11a experiment).
func (c *Cluster) AddNode(ctx context.Context, cfg node.Config) (*node.Node, error) {
	n := c.addNode(cfg)
	if err := n.Start(ctx); err != nil {
		return nil, err
	}
	return n, nil
}

// KillNode simulates the failure of a node: its objects and actors are lost
// and the GCS learns it is dead. Lost actors are reconstructed lazily, on the
// next method call routed to them.
func (c *Cluster) KillNode(ctx context.Context, id types.NodeID) error {
	n := c.Node(id)
	if n == nil {
		return types.ErrNodeNotFound
	}
	n.Kill(ctx)
	return nil
}

// --- objectmanager.PeerResolver ------------------------------------------------

// ResolveStore returns the object store of a peer node if the node is alive.
func (c *Cluster) ResolveStore(id types.NodeID) (*objectstore.Store, bool) {
	n := c.Node(id)
	if n == nil || n.Dead() {
		return nil, false
	}
	return n.Store(), true
}

// --- scheduler.Forwarder / node.Router -------------------------------------------

// ForwardTask implements bottom-up spillover: a local scheduler declined the
// task, so the global scheduler picks a node and the task is delivered
// to that node's local scheduler. The task first queues in the per-job
// dispatch queue so concurrent forwards from different jobs are served
// deficit round robin.
func (c *Cluster) ForwardTask(ctx context.Context, spec *task.Spec) error {
	c.forwards.Add(1)
	return c.dispatch.forward(ctx, spec)
}

// placeTask performs one placement: global scheduler decision plus delivery,
// retrying placement when the chosen node turns out to be dead.
func (c *Cluster) placeTask(ctx context.Context, spec *task.Spec) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		target, err := c.global.Schedule(ctx, spec)
		if err != nil {
			return err
		}
		n := c.Node(target)
		if n == nil || n.Dead() {
			lastErr = fmt.Errorf("cluster: scheduled node %s unavailable: %w", target, types.ErrNodeDead)
			// The GCS may not have caught up; mark and retry.
			//lint:ignore errdrop best-effort hint before the retry loop re-schedules; heartbeat timeout is the authoritative detector
			_ = c.gcs.MarkNodeDead(ctx, target)
			continue
		}
		if err := n.LocalScheduler().SubmitPlaced(ctx, spec); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: could not place task %s: %w", spec.ID, lastErr)
}

// actorWaitTimeout bounds how long an actor method call waits for the actor
// to come alive before failing.
const actorWaitTimeout = 30 * time.Second

// RouteActorTask delivers an actor method call to the node hosting the actor,
// waiting for pending actors to come alive and reconstructing actors whose
// node has died.
func (c *Cluster) RouteActorTask(ctx context.Context, spec *task.Spec) error {
	c.actorRoutes.Add(1)
	if terminal, err := c.jobTerminal(ctx, spec.Job); err != nil {
		return err
	} else if terminal {
		return fmt.Errorf("cluster: actor %s: %w", spec.ActorID, types.ErrJobTerminated)
	}
	deadline := time.Now().Add(actorWaitTimeout)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: actor %s not available within %v: %w",
				spec.ActorID, actorWaitTimeout, types.ErrTimeout)
		}
		entry, ok, err := c.gcs.GetActor(ctx, spec.ActorID)
		if err != nil {
			return err
		}
		if !ok || entry.State == types.ActorPending {
			// The creation task writes the entry when it completes.
			created := func(e *gcs.ActorEntry, ok bool) bool { return ok && e.State != types.ActorPending }
			if err := c.awaitActor(ctx, spec.ActorID, created); err != nil {
				return err
			}
			continue
		}
		switch entry.State {
		case types.ActorDead:
			return fmt.Errorf("cluster: actor %s: %w", spec.ActorID, types.ErrActorDead)
		case types.ActorReconstructing:
			if err := c.reconstructActor(ctx, spec.ActorID); err != nil {
				return err
			}
			continue
		case types.ActorAlive:
			host := c.Node(entry.Node)
			if host == nil || host.Dead() || !host.Workers().HasActor(spec.ActorID) {
				if err := c.reconstructActor(ctx, spec.ActorID); err != nil {
					return err
				}
				continue
			}
			if err := host.LocalScheduler().Submit(ctx, spec); err != nil {
				if errors.Is(err, types.ErrNodeDead) {
					continue
				}
				return err
			}
			return nil
		}
	}
}

// awaitActor subscribes to the actor's table entry, then re-reads it after
// every write until done accepts it, ctx ends or actorWaitTimeout passes.
func (c *Cluster) awaitActor(ctx context.Context, id types.ActorID, done func(entry *gcs.ActorEntry, ok bool) bool) error {
	written, cancel := c.gcs.SubscribeActor(id)
	defer cancel()
	expired := time.NewTimer(actorWaitTimeout)
	defer expired.Stop()
	for {
		entry, ok, err := c.gcs.GetActor(ctx, id)
		if err != nil || done(entry, ok) {
			return err
		}
		select {
		case <-written:
		case <-ctx.Done():
			return ctx.Err()
		case <-expired.C:
			return fmt.Errorf("cluster: actor %s not available within %v: %w", id, actorWaitTimeout, types.ErrTimeout)
		}
	}
}

// --- Actor reconstruction ----------------------------------------------------------

// reconstructActor recreates a lost actor on a live node by replaying its
// creation task, restoring its most recent checkpoint (if any), and replaying
// the method calls after the checkpoint — the stateful-edge replay of paper
// Section 4.2.3 and Figure 11b.
func (c *Cluster) reconstructActor(ctx context.Context, id types.ActorID) error {
	// Deduplicate concurrent reconstructions.
	c.reconMu.Lock()
	if ch, ok := c.reconInflight[id]; ok {
		c.reconMu.Unlock()
		select {
		case err := <-ch:
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
	c.reconInflight[id] = ch
	c.reconMu.Unlock()

	err := c.doReconstructActor(ctx, id)

	c.reconMu.Lock()
	delete(c.reconInflight, id)
	c.reconMu.Unlock()
	ch <- err
	return err
}

func (c *Cluster) doReconstructActor(ctx context.Context, id types.ActorID) error {
	entry, ok, err := c.gcs.GetActor(ctx, id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("cluster: reconstruct unknown actor %s: %w", id, types.ErrActorNotFound)
	}
	// Never resurrect an actor of a finished or killed job: its lineage is
	// no longer replayable and its resources have been released.
	if terminal, jerr := c.jobTerminal(ctx, entry.Job); jerr != nil {
		return jerr
	} else if terminal {
		return fmt.Errorf("cluster: actor %s: %w", id, types.ErrJobTerminated)
	}
	// Someone may have already reconstructed it.
	if entry.State == types.ActorAlive {
		if host := c.Node(entry.Node); host != nil && !host.Dead() && host.Workers().HasActor(id) {
			return nil
		}
	}
	entry.State = types.ActorReconstructing
	if err := c.gcs.PutActor(ctx, id, entry); err != nil {
		return err
	}

	creation, ok, err := c.gcs.GetTask(ctx, entry.CreationTask)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("cluster: creation task %s of actor %s missing: %w",
			entry.CreationTask, id, types.ErrTaskNotFound)
	}

	// Collect the replay chain: walk stateful edges back from the last
	// executed method until the creation task or the checkpointed counter.
	var replay []*task.Spec
	cursor := entry.LastTask
	for !cursor.IsNil() && cursor != entry.CreationTask {
		te, ok, err := c.gcs.GetTask(ctx, cursor)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("cluster: lineage for actor %s broken at task %s: %w",
				id, cursor, types.ErrTaskNotFound)
		}
		if te.Spec.ActorCounter <= entry.CheckpointCounter {
			break
		}
		replay = append(replay, te.Spec)
		cursor = te.Spec.PreviousActorTask
	}
	// Reverse into execution order.
	for i, j := 0, len(replay)-1; i < j; i, j = i+1, j-1 {
		replay[i], replay[j] = replay[j], replay[i]
	}

	// Pick a new home for the actor and replay its creation there.
	target, err := c.global.Schedule(ctx, creation.Spec)
	if err != nil {
		return err
	}
	host := c.Node(target)
	if host == nil || host.Dead() {
		return fmt.Errorf("cluster: reconstruction target %s unavailable: %w", target, types.ErrNodeDead)
	}
	if err := host.LocalScheduler().SubmitPlaced(ctx, creation.Spec); err != nil {
		return err
	}
	// Wait for the instance to exist on the new node: the creation task
	// installs it and then writes the actor's entry.
	err = c.awaitActor(ctx, id, func(*gcs.ActorEntry, bool) bool { return host.Workers().HasActor(id) })
	if err != nil {
		return fmt.Errorf("cluster: actor %s creation replay did not finish: %w", id, err)
	}

	// Restore the checkpoint (it lives in the GCS, so it survived the node).
	if len(entry.CheckpointData) > 0 {
		if err := host.Workers().RestoreActorCheckpoint(id, entry.CheckpointData, entry.CheckpointCounter); err != nil {
			return err
		}
	}

	// The creation replay overwrote the actor entry; restore the checkpoint
	// fields so a second failure can still use them.
	fresh, ok, err := c.gcs.GetActor(ctx, id)
	if err != nil || !ok {
		return fmt.Errorf("cluster: actor entry missing after creation replay: %w", err)
	}
	fresh.CheckpointData = entry.CheckpointData
	fresh.CheckpointCounter = entry.CheckpointCounter
	fresh.State = types.ActorAlive
	if err := c.gcs.PutActor(ctx, id, fresh); err != nil {
		return err
	}

	// Replay the methods after the checkpoint, in order. Their outputs are
	// rewritten into the object store (idempotent) and the actor table's
	// progress markers advance as they complete.
	for _, spec := range replay {
		if err := host.LocalScheduler().Submit(ctx, spec); err != nil {
			return err
		}
	}
	// The owning job may have been killed while the replay ran (after the
	// terminal check at the top): job cleanup's mark-dead then raced our
	// fresh ActorAlive write. Re-check and tear the instance back down
	// rather than leave a terminated job's actor resurrected holding
	// resources.
	if terminal, jerr := c.jobTerminal(ctx, entry.Job); jerr == nil && terminal {
		if host.Workers().StopActor(id) {
			host.LocalScheduler().NotifyActorStopped(id)
		}
		if dead, ok, gerr := c.gcs.GetActor(ctx, id); gerr == nil && ok {
			dead.State = types.ActorDead
			//lint:ignore errdrop best-effort tombstone; job GC sweeps terminated jobs' actors as the backstop
			_ = c.gcs.PutActor(ctx, id, dead)
		}
		return fmt.Errorf("cluster: actor %s: %w", id, types.ErrJobTerminated)
	}
	c.reconstructedA.Add(1)
	//lint:ignore errdrop the event log is advisory; reconstruction already succeeded
	_ = c.gcs.AppendEvent(ctx, "actor_reconstructed", id.String())
	return nil
}

// --- job.Hooks: job-exit cleanup ---------------------------------------------

// jobTerminal reports whether a non-nil job has finished or been killed. The
// live-job map answers the common case without a GCS read; the job table is
// authoritative for everything else (jobs this manager never saw stay
// routable: tests drive nodes without registering jobs).
func (c *Cluster) jobTerminal(ctx context.Context, jobID types.JobID) (bool, error) {
	if jobID.IsNil() || c.jobs.Alive(jobID) {
		return false, nil
	}
	entry, ok, err := c.gcs.GetJob(ctx, jobID)
	if err != nil {
		return false, err
	}
	return ok && entry.State.Terminal(), nil
}

// CancelJobTasks implements job.Hooks: queued-but-undispatched tasks of the
// job are dropped from the forward dispatcher and every local scheduler's
// slot queue. Running tasks are not interrupted here — they observe the job
// context's cancellation.
func (c *Cluster) CancelJobTasks(jobID types.JobID) int {
	n := c.dispatch.purge(jobID)
	for _, nd := range c.AliveNodes() {
		n += nd.LocalScheduler().PurgeJob(jobID)
	}
	return n
}

// StopJobActors implements job.Hooks: every actor the job created — found
// through the GCS ownership index, so pending, reconstructing, and
// dead-node-stranded actors are covered, not just currently hosted ones —
// is marked dead in the actor table, stopped on whichever node hosts it,
// and its held resources released. Reconstruction double-checks the job's
// terminal state after replay, so an in-flight reconstruction racing this
// mark cannot leave the actor resurrected.
func (c *Cluster) StopJobActors(ctx context.Context, jobID types.JobID) int {
	stopped := 0
	for _, actorID := range c.gcs.ActorsForJob(jobID) {
		if entry, ok, err := c.gcs.GetActor(ctx, actorID); err == nil && ok && entry.State != types.ActorDead {
			entry.State = types.ActorDead
			//lint:ignore errdrop best-effort tombstone; StopActor below is what actually halts execution, and job GC re-sweeps
			_ = c.gcs.PutActor(ctx, actorID, entry)
		}
		for _, nd := range c.AliveNodes() {
			if nd.Workers().StopActor(actorID) {
				nd.LocalScheduler().NotifyActorStopped(actorID)
				stopped++
			}
		}
	}
	c.gcs.DropJobActorIndex(jobID)
	return stopped
}

// ParkWithdrawal implements node.Router: the node evicted its copy of obj
// but the GCS withdrawal failed.
func (c *Cluster) ParkWithdrawal(obj types.ObjectID, nodeID types.NodeID) {
	c.noteFailedWithdrawal(obj, nodeID, false)
}

// noteFailedWithdrawal parks an object location for retry by the heartbeat
// aggregator: its GCS withdrawal failed after the replica was deleted or
// evicted, or (pinned) the store refused to delete the replica in the first
// place.
func (c *Cluster) noteFailedWithdrawal(obj types.ObjectID, nodeID types.NodeID, pinned bool) {
	c.withdrawMu.Lock()
	if c.pendingWithdraw == nil {
		c.pendingWithdraw = make(map[withdrawal]bool)
	}
	c.pendingWithdraw[withdrawal{obj: obj, node: nodeID}] = pinned
	c.withdrawMu.Unlock()
}

// retryWithdrawals re-attempts parked location withdrawals so neither a
// transient GCS failure during eviction or reclamation nor a pin held at
// that moment can leave a replica or its directory entry behind forever. A
// withdrawal whose replica is gone becomes stale — and is dropped — if the
// node has meanwhile re-fetched the object: the location is valid again and
// must stay. One parked on a pinned replica deletes the replica first, and
// waits for a later tick while the pin holds. A dead node's entries are
// withdrawn outright: nothing it listed exists any more.
func (c *Cluster) retryWithdrawals(ctx context.Context) {
	c.withdrawMu.Lock()
	if len(c.pendingWithdraw) == 0 {
		c.withdrawMu.Unlock()
		return
	}
	pending := make(map[withdrawal]bool, len(c.pendingWithdraw))
	for w, pinned := range c.pendingWithdraw {
		pending[w] = pinned
	}
	c.withdrawMu.Unlock()

	for w, pinned := range pending {
		nd := c.Node(w.node)
		if nd == nil || nd.Dead() {
			if err := c.gcs.RemoveObjectLocation(ctx, w.obj, w.node); err == nil {
				c.clearWithdrawal(w)
			}
			continue
		}
		switch {
		case pinned && nd.Store().Delete(w.obj):
			c.objectsReclaimed.Add(1)
		case pinned && nd.Store().Contains(w.obj):
			continue // still pinned: next tick
		}
		if nd.RetryWithdrawal(ctx, w.obj) {
			c.clearWithdrawal(w)
		}
	}
}

func (c *Cluster) clearWithdrawal(w withdrawal) {
	c.withdrawMu.Lock()
	delete(c.pendingWithdraw, w)
	c.withdrawMu.Unlock()
}

// PendingWithdrawals reports how many parked location withdrawals still
// await a successful GCS commit.
func (c *Cluster) PendingWithdrawals() int {
	c.withdrawMu.Lock()
	defer c.withdrawMu.Unlock()
	return len(c.pendingWithdraw)
}

// reclaimObject is the ownership ledger's reclaimer: an object's reference
// count reached zero, so no live reference can name it again. Every store
// copy (resident or spilled) is deleted and its GCS location withdrawn.
// Objects that do not exist yet (count zeroed between submission and
// execution) simply have no locations to withdraw; if the producing task
// still runs, its output registers and lives until job GC.
func (c *Cluster) reclaimObject(ctx context.Context, id types.ObjectID) {
	entry, ok, err := c.gcs.GetObject(ctx, id)
	if err != nil || !ok {
		return
	}
	c.objectsReclaimed.Add(int64(c.dropReplicas(ctx, id, entry.Locations)))
}

// dropReplicas deletes the object's copy from every live node in locations
// and withdraws the deleted copies' locations from the directory in one
// write; it returns how many copies it deleted. A copy pinned by a
// still-running task cannot be deleted yet: its location stays valid for the
// pin's duration and the pair is parked for the heartbeat retry, which
// deletes and withdraws it once the task has let go.
func (c *Cluster) dropReplicas(ctx context.Context, id types.ObjectID, locations []types.NodeID) int {
	deleted := make([]types.NodeID, 0, len(locations))
	for _, nodeID := range locations {
		nd := c.Node(nodeID)
		if nd == nil || nd.Dead() {
			continue
		}
		if nd.Store().Delete(id) {
			deleted = append(deleted, nodeID)
		} else if nd.Store().Contains(id) {
			c.noteFailedWithdrawal(id, nodeID, true)
		}
	}
	if len(deleted) == 0 {
		return 0
	}
	if err := c.gcs.RemoveObjectLocation(ctx, id, deleted...); err != nil {
		for _, nodeID := range deleted {
			c.noteFailedWithdrawal(id, nodeID, false)
		}
	}
	return len(deleted)
}

// ReleaseJobObjects implements job.Hooks: every replica of every object the
// job's tasks produced is dropped from the stores and its location withdrawn
// from the object table. The GCS ownership index makes this O(the job's
// objects), not a scan of every resident object in the cluster. Replicas
// pinned by a still-running task (the run is ending under a cancelled
// context) follow once it unpins them. Other jobs' objects are untouched.
func (c *Cluster) ReleaseJobObjects(ctx context.Context, jobID types.JobID) int {
	released := 0
	owned := c.gcs.ObjectsForJob(jobID)
	for _, objID := range owned {
		entry, ok, err := c.gcs.GetObject(ctx, objID)
		if err != nil || !ok || entry.Job != jobID {
			continue
		}
		released += c.dropReplicas(ctx, objID, entry.Locations)
	}
	// Purge any ledger entries the job leaked (references its driver still
	// held, fire-and-forget futures): the backstop behind eager reclamation.
	c.gcs.ForgetObjectRefs(owned...)
	c.gcs.DropJobObjectIndex(jobID)
	return released
}

// Stats summarizes cluster-level routing activity.
type Stats struct {
	Forwards            int64
	ActorRoutes         int64
	ActorsReconstructed int64
	GlobalDecisions     int64
	// ObjectsReclaimed counts store copies deleted by ownership-rooted
	// reference counting (refcount reached zero before job exit).
	ObjectsReclaimed int64
}

// StatsName implements telemetry.Reporter.
func (c *Cluster) StatsName() string { return "cluster" }

// StatsSnapshot implements telemetry.Reporter.
func (c *Cluster) StatsSnapshot() any { return c.Stats() }

// Reporters enumerates every Stats-bearing subsystem in the cluster — the
// cluster itself, the GCS, the job manager, and each node's subsystems —
// as telemetry.Reporters for /statusz and generic tests.
func (c *Cluster) Reporters() []telemetry.Reporter {
	out := []telemetry.Reporter{c, c.gcs, c.jobs}
	for _, n := range c.NodeList() {
		out = append(out, n.Reporters()...)
	}
	return out
}

// Stats returns a snapshot of cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Forwards:            c.forwards.Load(),
		ActorRoutes:         c.actorRoutes.Load(),
		ActorsReconstructed: c.reconstructedA.Load(),
		GlobalDecisions:     c.global.Decisions(),
		ObjectsReclaimed:    c.objectsReclaimed.Load(),
	}
}
