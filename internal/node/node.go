// Package node assembles one cluster node: a local scheduler, an in-memory
// object store with its object manager, a worker pool, heartbeat reporting to
// the GCS, and the runtime surface (Submit/Get/Wait/Put) that drivers and
// in-task code use. Nodes are deliberately stateless beyond their caches:
// every durable fact about the system lives in the GCS, which is what lets a
// restarted or replacement node pick up work immediately (paper Section 4.2).
package node

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"ray/internal/gcs"
	"ray/internal/lineage"
	"ray/internal/netsim"
	"ray/internal/objectmanager"
	"ray/internal/objectstore"
	"ray/internal/resources"
	"ray/internal/scheduler"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
	"ray/internal/worker"
)

// Router is the cluster-level surface a node needs: delivering actor method
// calls to the node hosting the actor, forwarding tasks the local scheduler
// declined to a global scheduler, and the withdrawal ledger that retries a
// location the node could not withdraw. The cluster package implements it.
type Router interface {
	scheduler.Forwarder
	// RouteActorTask delivers an actor method invocation to the node hosting
	// the actor, waiting for the actor to come alive and reconstructing it if
	// its node has failed.
	RouteActorTask(ctx context.Context, spec *task.Spec) error
	// ParkWithdrawal records that node evicted its copy of obj but could not
	// withdraw the location from the GCS; the ledger retries it until it
	// commits, even after the node dies.
	ParkWithdrawal(obj types.ObjectID, node types.NodeID)
}

// Config holds one node's knobs. A field left at zero takes the default of
// the constructor that consumes it.
type Config struct {
	// CPUs and GPUs are the node's resource capacities (CPUs 0 = 4).
	CPUs float64
	GPUs float64
	// ObjectStoreBytes is the object store capacity (0 = 1 GiB).
	ObjectStoreBytes int64
	// SpillDir, when set, enables spill-to-disk: primary copies displaced by
	// memory pressure are written under SpillDir/<nodeID> and restored on
	// demand instead of being dropped and reconstructed through lineage.
	SpillDir string
	// SpilloverThreshold is the local scheduler queue length that triggers
	// forwarding to the global scheduler (0 = 64).
	SpilloverThreshold int
	// TransferStreams is the number of parallel streams for object pulls
	// (0 = 8).
	TransferStreams int
	// ChunkBytes is the chunk granularity of pipelined object pulls
	// (0 = 1 MiB).
	ChunkBytes int64
	// PipelineDepth is how many chunks ride each transfer message round trip
	// (0 = 4).
	PipelineDepth int
	// CheckpointInterval is the actor checkpoint period in method calls
	// (0 disables checkpointing).
	CheckpointInterval int64
	// RecordLineage controls task-table writes (on for every experiment
	// except the raw task-throughput microbenchmark).
	RecordLineage bool
	// InjectedSchedulerLatency adds artificial latency to local and global
	// scheduling decisions (Figure 12b).
	InjectedSchedulerLatency time.Duration
	// HeartbeatInterval is how often the cluster's aggregator ticks this
	// node (HeartbeatTick) and reports its load to the GCS. Zero means 20ms
	// (scaled in-process equivalent of the paper's 100ms heartbeats).
	HeartbeatInterval time.Duration
}

// Wiring is what a node is plugged into: the services the whole cluster
// shares and what the cluster decides for this node. None of it is a knob.
type Wiring struct {
	GCS      *gcs.Store
	Network  *netsim.Network
	Registry *worker.Registry
	Peers    objectmanager.PeerResolver
	Router   Router
	// Labels are extra named resources, e.g. "node3": 1e6, which tasks can
	// request to pin themselves to this node (Ray's custom resources).
	Labels map[string]float64
	// JobWeight maps jobs to fair-share weights for the slot queue (nil
	// means every job weighs 1).
	JobWeight func(types.JobID) int
	// Metrics receives hot-path instrumentation for this node's scheduler
	// and object manager. A nil registry still works: handles degrade to
	// detached metrics.
	Metrics *telemetry.Registry
	// Tracer records task-lifecycle and transfer spans on this node; nil
	// disables span recording.
	Tracer *telemetry.Tracer
}

// Node is one simulated machine in the cluster.
type Node struct {
	id     types.NodeID
	idStr  string // id.String(), formatted once for span labels
	cfg    Config
	gcs    *gcs.Store
	router Router
	tracer *telemetry.Tracer

	pool          *resources.Pool
	store         *objectstore.Store
	objects       *objectmanager.Manager
	workers       *worker.Pool
	local         *scheduler.Local
	reconstructor *lineage.Reconstructor
	ids           *types.IDGenerator

	dead    atomic.Bool
	started atomic.Bool
	submits atomic.Int64
}

var nodeOrigin atomic.Uint64

// New constructs a node. The caller must call Start before submitting work.
func New(cfg Config, w Wiring) *Node {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 4
	}
	id := types.NewNodeID()
	ids := types.NewIDGenerator(nodeOrigin.Add(1))

	caps := map[string]float64{resources.CPU: cfg.CPUs}
	if cfg.GPUs > 0 {
		caps[resources.GPU] = cfg.GPUs
	}
	maps.Copy(caps, w.Labels)
	n := &Node{
		id:     id,
		idStr:  id.String(),
		cfg:    cfg,
		gcs:    w.GCS,
		router: w.Router,
		tracer: w.Tracer,
		pool:   resources.NewPool(caps),
		ids:    ids,
	}
	spillDir := ""
	if cfg.SpillDir != "" {
		// Per-node subdirectory: nodes of one cluster share a root without
		// colliding, and a node's spill files are removable as a unit.
		spillDir = filepath.Join(cfg.SpillDir, id.String())
	}
	n.store = objectstore.New(objectstore.Config{
		CapacityBytes: cfg.ObjectStoreBytes,
		CopyThreads:   8,
		SpillDir:      spillDir,
		OnEvict: func(obj types.ObjectID, size int64) {
			// Eviction removes this node from the object's location set so
			// the directory never points at data we no longer hold. A failed
			// withdrawal must not vanish: the cluster's ledger retries it.
			if err := w.GCS.RemoveObjectLocation(context.Background(), obj, id); err != nil {
				w.Router.ParkWithdrawal(obj, id)
			}
		},
	})
	n.objects = objectmanager.New(objectmanager.Config{
		TransferStreams: cfg.TransferStreams,
		ChunkBytes:      cfg.ChunkBytes,
		PipelineDepth:   cfg.PipelineDepth,
		Metrics:         w.Metrics,
		Tracer:          w.Tracer,
	}, id, n.store, w.GCS, w.Network, w.Peers)
	n.workers = worker.NewPool(worker.PoolConfig{
		NodeID:             id,
		CheckpointInterval: cfg.CheckpointInterval,
		RecordLineage:      cfg.RecordLineage,
		Tracer:             w.Tracer,
	}, w.Registry, n.objects, w.GCS, ids)
	n.workers.SetRuntime(n)
	n.reconstructor = lineage.New(w.GCS, func(ctx context.Context, entry *gcs.TaskEntry) error {
		return n.resubmit(ctx, entry.Spec)
	})
	n.local = scheduler.NewLocal(scheduler.LocalConfig{
		NodeID:             id,
		Pool:               n.pool,
		SpilloverThreshold: cfg.SpilloverThreshold,
		InjectedLatency:    cfg.InjectedSchedulerLatency,
		JobWeight:          w.JobWeight,
		Metrics:            w.Metrics,
		Tracer:             w.Tracer,
	}, n.workers, n, n.router)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() types.NodeID { return n.id }

// Config returns the configuration the node was built with (useful for
// cloning a node when scaling the cluster out).
func (n *Node) Config() Config { return n.cfg }

// Store returns the node's object store (used by the cluster's peer resolver
// and by benchmarks).
func (n *Node) Store() *objectstore.Store { return n.store }

// ObjectManager returns the node's object manager.
func (n *Node) ObjectManager() *objectmanager.Manager { return n.objects }

// Workers returns the node's worker pool.
func (n *Node) Workers() *worker.Pool { return n.workers }

// LocalScheduler returns the node's local scheduler.
func (n *Node) LocalScheduler() *scheduler.Local { return n.local }

// Reconstructor returns the node's lineage reconstructor.
func (n *Node) Reconstructor() *lineage.Reconstructor { return n.reconstructor }

// IDs returns the node's ID generator (drivers attached to this node use it).
func (n *Node) IDs() *types.IDGenerator { return n.ids }

// Resources returns the node's resource pool.
func (n *Node) Resources() *resources.Pool { return n.pool }

// Dead reports whether the node has been killed.
func (n *Node) Dead() bool { return n.dead.Load() }

// Start registers the node in the GCS. The cluster's aggregator heartbeats
// for it from then on (HeartbeatTick); a node has no loop of its own.
func (n *Node) Start(ctx context.Context) error {
	if n.started.Swap(true) {
		return nil
	}
	return n.gcs.RegisterNode(ctx, &gcs.NodeEntry{
		ID:                 n.id,
		State:              types.NodeAlive,
		TotalResources:     n.pool.TotalSnapshot(),
		AvailableResources: n.pool.Snapshot(),
	})
}

// HeartbeatTick returns the node's current load for the caller to write —
// the cluster's aggregator batches every node's into one commit per shard,
// SendHeartbeat writes this node's alone. The update includes the object
// store's occupancy so the global scheduler can observe memory pressure.
func (n *Node) HeartbeatTick() gcs.HeartbeatUpdate {
	load := n.local.Load()
	return gcs.HeartbeatUpdate{
		ID:             n.id,
		Available:      load.AvailableResources,
		QueueLength:    load.QueueLength,
		AvgTaskMillis:  load.AvgTaskMillis,
		MemoryUsed:     n.store.Used(),
		MemoryCapacity: n.store.Capacity(),
	}
}

// SendHeartbeat runs one heartbeat tick now and pushes its load to the GCS;
// tests call it to make load information visible without waiting.
func (n *Node) SendHeartbeat(ctx context.Context) error {
	if n.dead.Load() {
		return types.ErrNodeDead
	}
	return n.gcs.Heartbeat(ctx, n.HeartbeatTick())
}

// RetryWithdrawal re-attempts withdrawing this node's location of obj, which
// an eviction (or reclamation) could not withdraw; the cluster's ledger calls
// it every tick. It reports whether the parked entry is settled: the location
// is withdrawn, or obj is resident again — re-fetched since the eviction — so
// the location is valid and the withdrawal stale.
func (n *Node) RetryWithdrawal(ctx context.Context, obj types.ObjectID) bool {
	if n.store.Contains(obj) {
		return true
	}
	return n.gcs.RemoveObjectLocation(ctx, obj, n.id) == nil
}

// Stop gracefully shuts the node down by draining the scheduler. It does not
// simulate failure; use Kill for that.
func (n *Node) Stop() {
	n.local.Drain()
}

// Kill simulates a node failure: the scheduler drains, every object replica
// and actor hosted here disappears, the GCS is told the node is dead, and
// object locations are withdrawn so consumers observe loss and trigger
// lineage reconstruction. It returns the actors that were lost so the cluster
// can reconstruct them elsewhere.
func (n *Node) Kill(ctx context.Context) []types.ActorID {
	if n.dead.Swap(true) {
		return nil
	}
	n.Stop()
	//lint:ignore errdrop Kill simulates abrupt node failure; the cluster's heartbeat timeout is the authoritative detector
	_ = n.gcs.MarkNodeDead(ctx, n.id)
	// Withdraw object locations.
	for _, obj := range n.store.List() {
		//lint:ignore errdrop a crashed node cannot guarantee withdrawals; consumers discover loss via fetch failure and reconstruct
		_ = n.gcs.RemoveObjectLocation(ctx, obj, n.id)
	}
	n.store.DropAll()
	// Kill hosted actors.
	lost := n.workers.DropAllActors()
	for _, actor := range lost {
		n.local.NotifyActorStopped(actor)
		if entry, ok, err := n.gcs.GetActor(ctx, actor); err == nil && ok {
			entry.State = types.ActorReconstructing
			//lint:ignore errdrop best-effort hint; the cluster re-marks lost actors when it processes the returned list
			_ = n.gcs.PutActor(ctx, actor, entry)
		}
	}
	//lint:ignore errdrop the event log is advisory; a dying node cannot guarantee its own obituary
	_ = n.gcs.AppendEvent(ctx, "node_dead", n.id.String())
	return lost
}

// --- Submission paths --------------------------------------------------------

// SubmitSpec implements worker.Runtime: it is the bottom-up submission entry
// point used by drivers and by nested remote calls running on this node.
// Submission roots the ownership references: the submitter gains one
// reference per return object (released when its own context finishes or
// frees them), and the pending task gains one per object argument (released
// by the worker pool when the task completes).
func (n *Node) SubmitSpec(ctx context.Context, spec *task.Spec) error {
	if n.dead.Load() {
		return fmt.Errorf("node %s: %w", n.id, types.ErrNodeDead)
	}
	n.submits.Add(1)
	if n.tracer.Sampled(spec.ID[15]) {
		n.tracer.Record(telemetry.Span{
			Task: spec.ID.String(), Name: spec.Function, Phase: telemetry.PhaseSubmit,
			Node: n.idStr, Job: spec.Job.String(),
			StartUnixNano: time.Now().UnixNano(),
		})
	}
	returns := spec.Returns()
	deps := spec.Dependencies()
	n.gcs.IncObjectRefs(1, returns...)
	n.gcs.IncObjectRefs(1, deps...)
	err := func() error {
		if n.cfg.RecordLineage {
			if err := n.gcs.AddTask(ctx, spec); err != nil {
				return err
			}
		}
		if spec.IsActorTask() && !spec.ActorCreation {
			return n.router.RouteActorTask(ctx, spec)
		}
		return n.local.Submit(ctx, spec)
	}()
	if err != nil {
		// The task never entered the system: take back the references so the
		// failed submission cannot pin its arguments forever.
		n.gcs.DecObjectRefs(ctx, returns...)
		n.gcs.DecObjectRefs(ctx, deps...)
	}
	return err
}

// resubmit re-injects a task during lineage reconstruction. The task's spec
// is already in the GCS task table, so it skips the AddTask step; the
// lineage-replay context marker keeps the replayed execution from releasing
// argument references the original run already released.
func (n *Node) resubmit(ctx context.Context, spec *task.Spec) error {
	ctx = types.WithLineageReplay(ctx)
	if spec.IsActorTask() && !spec.ActorCreation {
		return n.router.RouteActorTask(ctx, spec)
	}
	return n.local.Submit(ctx, spec)
}

// Pull implements scheduler.DependencyPuller with lineage reconstruction on
// loss: if an input has no live replica anywhere, its producing task is
// re-executed before the pull is retried.
func (n *Node) Pull(ctx context.Context, id types.ObjectID) error {
	for attempt := 0; attempt < 3; attempt++ {
		err := n.objects.Pull(ctx, id)
		if err == nil {
			return nil
		}
		if !lineage.IsReconstructable(err) {
			return err
		}
		if rerr := n.reconstructor.ReconstructObject(ctx, id); rerr != nil {
			return rerr
		}
	}
	return fmt.Errorf("node %s: object %s kept disappearing during reconstruction: %w",
		n.id, id, types.ErrObjectLost)
}

// FetchObject implements worker.Runtime: it blocks until the object is local
// (pulling and reconstructing as needed) and returns its payload. The fetch
// holds a transient ownership reference so a concurrent release elsewhere
// cannot reclaim the object out from under the read.
func (n *Node) FetchObject(ctx context.Context, id types.ObjectID) ([]byte, bool, error) {
	n.gcs.IncObjectRefs(1, id)
	defer n.gcs.DecObjectRefs(ctx, id)
	for attempt := 0; attempt < 3; attempt++ {
		if err := n.Pull(ctx, id); err != nil {
			return nil, false, err
		}
		if obj, ok := n.store.Get(id); ok {
			return obj.Data, obj.IsError, nil
		}
		// The copy vanished between pull and read: evicted under pressure,
		// or a spilled copy whose disk file is gone — the failed restore
		// withdrew the location, so the next pull goes remote or through
		// lineage reconstruction instead of blocking on a copy that will
		// never reappear.
	}
	obj, err := n.store.Wait(ctx, id)
	if err != nil {
		return nil, false, err
	}
	return obj.Data, obj.IsError, nil
}

// StoreObject implements worker.Runtime. The putter owns the stored object:
// it holds the reference until its context finishes or frees it.
func (n *Node) StoreObject(ctx context.Context, id types.ObjectID, data []byte, isError bool, creator types.TaskID, job types.JobID) error {
	n.gcs.IncObjectRefs(1, id)
	if err := n.objects.PutOwned(ctx, id, data, isError, creator, job); err != nil {
		n.gcs.DecObjectRefs(ctx, id)
		return err
	}
	return nil
}

// FreeObjects implements worker.Runtime: it releases ownership references,
// reclaiming (via the GCS ledger's reclaimer) any object that reaches zero.
func (n *Node) FreeObjects(ctx context.Context, ids ...types.ObjectID) {
	n.gcs.DecObjectRefs(ctx, ids...)
}

// WaitObjects implements worker.Runtime: it returns once at least k of the
// requested objects exist somewhere in the cluster (not necessarily locally),
// or the timeout expires. timeoutMillis < 0 means no timeout.
func (n *Node) WaitObjects(ctx context.Context, ids []types.ObjectID, k int, timeoutMillis int64) ([]types.ObjectID, error) {
	if k <= 0 || k > len(ids) {
		k = len(ids)
	}
	ready := make([]types.ObjectID, 0, len(ids))
	pending := make(map[types.ObjectID]bool, len(ids))
	for _, id := range ids {
		pending[id] = true
	}
	var notify <-chan struct{}
	var expired <-chan time.Time
	for {
		// Ready = listed in the directory (a local copy not yet registered is not).
		for id := range pending {
			entry, ok, err := n.gcs.GetObject(ctx, id)
			if err != nil {
				return nil, err
			}
			if ok && len(entry.Locations) > 0 {
				ready = append(ready, id)
				delete(pending, id)
			}
		}
		if len(ready) >= k || len(pending) == 0 {
			return ready, nil
		}
		if notify == nil {
			// Watch what is missing, then look again: earlier writes signalled nobody.
			var cancel func()
			notify, cancel = n.gcs.SubscribeObject(slices.Collect(maps.Keys(pending))...)
			defer cancel()
			if timeoutMillis >= 0 {
				timer := time.NewTimer(time.Duration(timeoutMillis) * time.Millisecond)
				defer timer.Stop()
				expired = timer.C
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ready, ctx.Err()
		case <-expired:
			return ready, nil
		case <-notify:
		}
	}
}

// NodeID implements worker.Runtime.
func (n *Node) NodeID() types.NodeID { return n.id }

// Stats summarizes the node's activity.
type Stats struct {
	Submits   int64
	Scheduler scheduler.LocalStats
	Workers   worker.PoolStats
	Objects   objectstore.Stats
	Transfers objectmanager.Stats
	Lineage   lineage.Stats
}

// Stats returns a snapshot of node counters.
func (n *Node) Stats() Stats {
	return Stats{
		Submits:   n.submits.Load(),
		Scheduler: n.local.Stats(),
		Workers:   n.workers.Stats(),
		Objects:   n.store.Stats(),
		Transfers: n.objects.Stats(),
		Lineage:   n.reconstructor.Stats(),
	}
}

// StatsName implements telemetry.Reporter.
func (n *Node) StatsName() string { return n.id.String() }

// StatsSnapshot implements telemetry.Reporter.
func (n *Node) StatsSnapshot() any { return n.Stats() }

// Reporters enumerates this node and its subsystems as telemetry.Reporters,
// each namespaced under the node's ID so a multi-node /statusz stays
// collision-free.
func (n *Node) Reporters() []telemetry.Reporter {
	prefix := n.id.String() + "/"
	return []telemetry.Reporter{
		n,
		telemetry.Prefixed(prefix, n.local),
		telemetry.Prefixed(prefix, n.workers),
		telemetry.Prefixed(prefix, n.store),
		telemetry.Prefixed(prefix, n.objects),
		telemetry.Prefixed(prefix, n.reconstructor),
	}
}
