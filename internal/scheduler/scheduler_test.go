package scheduler

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ray/internal/gcs"
	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
)

// --- fakes -------------------------------------------------------------------

type fakeRunner struct {
	mu       sync.Mutex
	ran      []types.TaskID
	duration time.Duration
	err      error
	running  atomic.Int32
	maxConc  atomic.Int32
}

func (f *fakeRunner) Run(ctx context.Context, spec *task.Spec) error {
	cur := f.running.Add(1)
	for {
		max := f.maxConc.Load()
		if cur <= max || f.maxConc.CompareAndSwap(max, cur) {
			break
		}
	}
	defer f.running.Add(-1)
	if f.duration > 0 {
		time.Sleep(f.duration)
	}
	f.mu.Lock()
	f.ran = append(f.ran, spec.ID)
	f.mu.Unlock()
	return f.err
}

func (f *fakeRunner) Fail(ctx context.Context, spec *task.Spec, cause error) error {
	return nil
}

func (f *fakeRunner) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ran)
}

type fakePuller struct {
	pulled atomic.Int64
	err    error
}

func (f *fakePuller) Pull(ctx context.Context, id types.ObjectID) error {
	f.pulled.Add(1)
	return f.err
}

type fakeForwarder struct {
	mu    sync.Mutex
	specs []*task.Spec
}

func (f *fakeForwarder) ForwardTask(ctx context.Context, spec *task.Spec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.specs = append(f.specs, spec)
	return nil
}

func (f *fakeForwarder) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.specs)
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout waiting for: " + msg)
}

func newLocal(cfg LocalConfig, r TaskRunner, p DependencyPuller, f Forwarder) *Local {
	if cfg.Pool == nil {
		cfg.Pool = resources.NewNodePool(4, 0, 0)
	}
	if cfg.NodeID.IsNil() {
		cfg.NodeID = types.NewNodeID()
	}
	return NewLocal(cfg, r, p, f)
}

func simpleSpec(cpus float64) *task.Spec {
	return &task.Spec{
		ID:         types.NewTaskID(),
		Driver:     types.NewDriverID(),
		Function:   "f",
		NumReturns: 1,
		Resources:  resources.CPUs(cpus),
	}
}

// --- Local scheduler tests ------------------------------------------------------

func TestLocalRunsTaskLocally(t *testing.T) {
	runner := &fakeRunner{}
	puller := &fakePuller{}
	fwd := &fakeForwarder{}
	l := newLocal(LocalConfig{}, runner, puller, fwd)
	spec := simpleSpec(1)
	spec.Args = []task.Arg{task.RefArg(types.NewObjectID()), task.ValueArg([]byte("x"))}
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Completed == 1 }, "task completion")
	if runner.count() != 1 {
		t.Fatal("runner not invoked")
	}
	if puller.pulled.Load() != 1 {
		t.Fatalf("expected 1 dependency pull, got %d", puller.pulled.Load())
	}
	if fwd.count() != 0 {
		t.Fatal("task should not have been forwarded")
	}
	st := l.Stats()
	if st.ScheduledLocally != 1 || st.Queued != 0 || st.Failed != 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if l.NodeID().IsNil() {
		t.Fatal("node id missing")
	}
}

func TestLocalForwardsInfeasibleTask(t *testing.T) {
	runner := &fakeRunner{}
	fwd := &fakeForwarder{}
	l := newLocal(LocalConfig{Pool: resources.NewNodePool(4, 0, 0)}, runner, &fakePuller{}, fwd)
	spec := simpleSpec(1)
	spec.Resources = resources.GPUs(1) // node has no GPU
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if fwd.count() != 1 {
		t.Fatal("GPU task on CPU-only node must be forwarded")
	}
	if l.Stats().Forwarded != 1 {
		t.Fatal("forwarded counter wrong")
	}
}

func TestLocalForwardsWhenOverloaded(t *testing.T) {
	runner := &fakeRunner{duration: 50 * time.Millisecond}
	fwd := &fakeForwarder{}
	l := newLocal(LocalConfig{SpilloverThreshold: 2, Pool: resources.NewNodePool(1, 0, 0)}, runner, &fakePuller{}, fwd)
	ctx := context.Background()
	// First two tasks accepted locally, third exceeds the queue threshold.
	for i := 0; i < 3; i++ {
		if err := l.Submit(ctx, simpleSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	if fwd.count() != 1 {
		t.Fatalf("expected 1 forwarded task, got %d", fwd.count())
	}
	waitFor(t, func() bool { return l.Stats().Completed == 2 }, "local tasks completion")
}

func TestSpilloverIsPerJob(t *testing.T) {
	runner := &fakeRunner{duration: 50 * time.Millisecond}
	fwd := &fakeForwarder{}
	l := newLocal(LocalConfig{SpilloverThreshold: 2, Pool: resources.NewNodePool(1, 0, 0)}, runner, &fakePuller{}, fwd)
	ctx := context.Background()
	greedy := types.NewJobID()
	quiet := types.NewJobID()
	// The greedy job floods past the threshold: its overflow forwards.
	for i := 0; i < 6; i++ {
		spec := simpleSpec(1)
		spec.Job = greedy
		if err := l.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if fwd.count() != 4 {
		t.Fatalf("greedy job should spill its overflow: expected 4 forwards, got %d", fwd.count())
	}
	// The quiet job's task lands while the greedy backlog still queues; it
	// must be accepted locally, not forwarded because of someone else's flood.
	spec := simpleSpec(1)
	spec.Job = quiet
	if err := l.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	fwd.mu.Lock()
	for _, s := range fwd.specs {
		if s.Job == quiet {
			fwd.mu.Unlock()
			t.Fatal("idle job's task forwarded because of another job's backlog")
		}
	}
	fwd.mu.Unlock()
	waitFor(t, func() bool { return l.Stats().Completed == 3 }, "locally accepted tasks complete")
}

func TestLocalRespectsResourceLimits(t *testing.T) {
	runner := &fakeRunner{duration: 30 * time.Millisecond}
	l := newLocal(LocalConfig{Pool: resources.NewNodePool(2, 0, 0), SpilloverThreshold: 100}, runner, &fakePuller{}, &fakeForwarder{})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if err := l.Submit(ctx, simpleSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return l.Stats().Completed == 6 }, "all tasks complete")
	if max := runner.maxConc.Load(); max > 2 {
		t.Fatalf("scheduler over-committed the node: %d concurrent tasks on 2 CPUs", max)
	}
}

func TestSubmitPlacedBypassesSpillover(t *testing.T) {
	runner := &fakeRunner{}
	fwd := &fakeForwarder{}
	l := newLocal(LocalConfig{SpilloverThreshold: 1}, runner, &fakePuller{}, fwd)
	ctx := context.Background()
	// Saturate the queue threshold.
	block := &fakeRunner{duration: 50 * time.Millisecond}
	_ = block
	for i := 0; i < 5; i++ {
		if err := l.SubmitPlaced(ctx, simpleSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	if fwd.count() != 0 {
		t.Fatal("placed tasks must never be forwarded")
	}
	waitFor(t, func() bool { return l.Stats().Completed == 5 }, "placed tasks complete")
}

func TestActorMethodsNeverForwardedAndNeedNoResources(t *testing.T) {
	runner := &fakeRunner{}
	fwd := &fakeForwarder{}
	// Zero-CPU pool: a regular task could never run here, but actor methods
	// use the actor's already-held resources.
	l := newLocal(LocalConfig{Pool: resources.NewNodePool(0, 0, 0), SpilloverThreshold: 1}, runner, &fakePuller{}, fwd)
	ctx := context.Background()
	actor := types.NewActorID()
	for i := 0; i < 4; i++ {
		spec := simpleSpec(1)
		spec.ActorID = actor
		spec.ActorCounter = int64(i)
		if err := l.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if fwd.count() != 0 {
		t.Fatal("actor methods must not be forwarded")
	}
	waitFor(t, func() bool { return l.Stats().Completed == 4 }, "actor methods complete")
}

func TestActorCreationHoldsResources(t *testing.T) {
	runner := &fakeRunner{}
	pool := resources.NewNodePool(2, 1, 0)
	l := newLocal(LocalConfig{Pool: pool}, runner, &fakePuller{}, &fakeForwarder{})
	ctx := context.Background()
	actor := types.NewActorID()
	creation := simpleSpec(1)
	creation.ActorID = actor
	creation.ActorCreation = true
	creation.Resources = resources.GPUs(1)
	if err := l.Submit(ctx, creation); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Completed == 1 }, "actor creation")
	if pool.Available(resources.GPU) != 0 {
		t.Fatal("actor creation must hold its resources after completing")
	}
	l.NotifyActorStopped(actor)
	if pool.Available(resources.GPU) != 1 {
		t.Fatal("actor stop must release held resources")
	}
	// Stopping an unknown actor is a no-op.
	l.NotifyActorStopped(types.NewActorID())
}

func TestFailedDependencyCountsAsFailure(t *testing.T) {
	runner := &fakeRunner{}
	puller := &fakePuller{err: errors.New("pull failed")}
	l := newLocal(LocalConfig{}, runner, puller, &fakeForwarder{})
	spec := simpleSpec(1)
	spec.Args = []task.Arg{task.RefArg(types.NewObjectID())}
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Failed == 1 }, "failure recorded")
	if runner.count() != 0 {
		t.Fatal("runner must not execute a task whose dependencies failed")
	}
}

func TestRunnerErrorCountsAsFailure(t *testing.T) {
	runner := &fakeRunner{err: errors.New("infrastructure failure")}
	l := newLocal(LocalConfig{}, runner, &fakePuller{}, &fakeForwarder{})
	if err := l.Submit(context.Background(), simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Failed == 1 }, "failure recorded")
}

func TestDrainRejectsNewWork(t *testing.T) {
	runner := &fakeRunner{}
	fwd := &fakeForwarder{}
	l := newLocal(LocalConfig{}, runner, &fakePuller{}, fwd)
	l.Drain()
	// Driver-submitted tasks get forwarded elsewhere.
	if err := l.Submit(context.Background(), simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	if fwd.count() != 1 {
		t.Fatal("draining node must forward new tasks")
	}
	// Globally placed tasks are rejected so the global scheduler can retry.
	if err := l.SubmitPlaced(context.Background(), simpleSpec(1)); err == nil {
		t.Fatal("draining node must reject placed tasks")
	}
}

func TestLoadSnapshot(t *testing.T) {
	runner := &fakeRunner{duration: 50 * time.Millisecond}
	l := newLocal(LocalConfig{Pool: resources.NewNodePool(8, 0, 0)}, runner, &fakePuller{}, &fakeForwarder{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		l.Submit(ctx, simpleSpec(1))
	}
	load := l.Load()
	if load.QueueLength == 0 {
		t.Fatal("queue length must reflect in-flight tasks")
	}
	if load.AvailableResources[resources.CPU] > 8 {
		t.Fatal("available resources implausible")
	}
	waitFor(t, func() bool { return l.Stats().Completed == 3 }, "tasks complete")
	load = l.Load()
	if load.QueueLength != 0 || load.AvailableResources[resources.CPU] != 8 {
		t.Fatalf("load must return to idle: %+v", load)
	}
	if load.AvgTaskMillis <= 0 {
		t.Fatal("avg task duration must be positive after running tasks")
	}
}

func TestInjectedLatency(t *testing.T) {
	runner := &fakeRunner{}
	l := newLocal(LocalConfig{InjectedLatency: 30 * time.Millisecond}, runner, &fakePuller{}, &fakeForwarder{})
	start := time.Now()
	if err := l.Submit(context.Background(), simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("injected latency not applied: %v", elapsed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Submit(ctx, simpleSpec(1)); err == nil {
		t.Fatal("cancelled submit with injected latency must fail")
	}
}

// --- Global scheduler tests -----------------------------------------------------

func registerNode(t *testing.T, store *gcs.Store, cpus, gpus float64, queue int, avgMs float64) types.NodeID {
	t.Helper()
	id := types.NewNodeID()
	total := map[string]float64{resources.CPU: cpus}
	if gpus > 0 {
		total[resources.GPU] = gpus
	}
	err := store.RegisterNode(context.Background(), &gcs.NodeEntry{
		ID:                 id,
		State:              types.NodeAlive,
		TotalResources:     total,
		AvailableResources: total,
		QueueLength:        queue,
		AvgTaskMillis:      avgMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestGlobalPicksLeastLoadedNode(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer store.Close()
	busy := registerNode(t, store, 8, 0, 100, 10)
	idle := registerNode(t, store, 8, 0, 1, 10)
	g := NewGlobal(DefaultGlobalConfig(), store)
	node, err := g.Schedule(context.Background(), simpleSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if node != idle {
		t.Fatalf("expected idle node %v, got %v (busy=%v)", idle, node, busy)
	}
	if g.Decisions() != 1 {
		t.Fatal("decision counter wrong")
	}
}

func TestGlobalAvoidsMemoryPressuredNodes(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer store.Close()
	registerMemNode := func(queue int, used, capacity int64) types.NodeID {
		id := types.NewNodeID()
		total := map[string]float64{resources.CPU: 8}
		err := store.RegisterNode(context.Background(), &gcs.NodeEntry{
			ID:                 id,
			State:              types.NodeAlive,
			TotalResources:     total,
			AvailableResources: total,
			QueueLength:        queue,
			AvgTaskMillis:      10,
			MemoryUsed:         used,
			MemoryCapacity:     capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// The idle node is above the 80% watermark; the busier one has headroom.
	pressured := registerMemNode(0, 95, 100)
	healthy := registerMemNode(5, 10, 100)
	g := NewGlobal(DefaultGlobalConfig(), store)
	node, err := g.Schedule(context.Background(), simpleSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if node != healthy {
		t.Fatalf("task must avoid the memory-pressured node: got %v (pressured=%v)", node, pressured)
	}
	// With the watermark disabled the idle pressured node wins again.
	off := NewGlobal(GlobalConfig{LocalityAware: true}, store)
	if node, err = off.Schedule(context.Background(), simpleSpec(1)); err != nil || node != pressured {
		t.Fatalf("watermark disabled: expected %v, got %v (%v)", pressured, node, err)
	}
	// When every node is pressured, scheduling still succeeds (best effort).
	allBad := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer allBad.Close()
	store = allBad
	only := registerMemNode(3, 99, 100)
	g2 := NewGlobal(DefaultGlobalConfig(), allBad)
	if node, err = g2.Schedule(context.Background(), simpleSpec(1)); err != nil || node != only {
		t.Fatalf("fully pressured cluster must still place: got %v (%v)", node, err)
	}
}

func TestGlobalRespectsResourceConstraints(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer store.Close()
	registerNode(t, store, 8, 0, 0, 1) // CPU-only, idle
	gpuNode := registerNode(t, store, 8, 4, 50, 1)
	g := NewGlobal(DefaultGlobalConfig(), store)
	spec := simpleSpec(1)
	spec.Resources = resources.GPUs(2)
	node, err := g.Schedule(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if node != gpuNode {
		t.Fatal("GPU task must go to the GPU node even though it is busier")
	}
	// An impossible request errors.
	spec.Resources = resources.NewRequest(map[string]float64{"TPU": 1})
	if _, err := g.Schedule(context.Background(), spec); !errors.Is(err, types.ErrNoResources) {
		t.Fatalf("expected ErrNoResources, got %v", err)
	}
}

func TestGlobalLocalityAwarePlacement(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer store.Close()
	holder := registerNode(t, store, 8, 0, 3, 5)
	other := registerNode(t, store, 8, 0, 0, 5)
	// A 100 MB object lives on the busier node.
	obj := types.NewObjectID()
	if err := store.AddObjectLocation(context.Background(), obj, holder, 100<<20, types.NilTaskID, types.NilJobID); err != nil {
		t.Fatal(err)
	}
	spec := simpleSpec(1)
	spec.Args = []task.Arg{task.RefArg(obj)}

	aware := NewGlobal(GlobalConfig{LocalityAware: true, BandwidthBytesPerSec: 1e9}, store)
	node, err := aware.Schedule(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if node != holder {
		t.Fatal("locality-aware scheduler must co-locate the task with its 100MB input")
	}

	unaware := NewGlobal(GlobalConfig{LocalityAware: false, BandwidthBytesPerSec: 1e9}, store)
	node, err = unaware.Schedule(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if node != other {
		t.Fatal("locality-unaware scheduler should pick the least-loaded node, ignoring data location")
	}
}

func TestGlobalNoNodes(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 1, ReplicationFactor: 1})
	defer store.Close()
	g := NewGlobal(DefaultGlobalConfig(), store)
	if _, err := g.Schedule(context.Background(), simpleSpec(1)); !errors.Is(err, types.ErrNoResources) {
		t.Fatalf("expected ErrNoResources, got %v", err)
	}
}

func TestGlobalSkipsDeadNodes(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer store.Close()
	dead := registerNode(t, store, 64, 0, 0, 1)
	alive := registerNode(t, store, 2, 0, 10, 1)
	if err := store.MarkNodeDead(context.Background(), dead); err != nil {
		t.Fatal(err)
	}
	g := NewGlobal(DefaultGlobalConfig(), store)
	node, err := g.Schedule(context.Background(), simpleSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if node != alive {
		t.Fatal("dead node selected")
	}
}

func TestGlobalInjectedLatency(t *testing.T) {
	store := gcs.New(gcs.Config{Shards: 1, ReplicationFactor: 1})
	defer store.Close()
	registerNode(t, store, 8, 0, 0, 1)
	g := NewGlobal(GlobalConfig{LocalityAware: true, InjectedLatency: 20 * time.Millisecond}, store)
	start := time.Now()
	if _, err := g.Schedule(context.Background(), simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("injected latency not applied")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Schedule(ctx, simpleSpec(1)); err == nil {
		t.Fatal("cancelled schedule must fail")
	}
}

// TestGlobalCostConstants pins the two estimates the placement cost rests on:
// a node that has reported no task time queues at 5 ms per task, and remote
// bytes cost exactly the configured bandwidth. A node two tasks deep (10 ms)
// loses to an idle node 9 MB away at 1 GB/s (9 ms) and beats one 11 MB away.
func TestGlobalCostConstants(t *testing.T) {
	for _, tc := range []struct {
		remoteBytes int64
		wantHolder  bool
	}{{9e6, false}, {11e6, true}} {
		store := gcs.New(gcs.Config{Shards: 1, ReplicationFactor: 1})
		defer store.Close()
		holder := registerNode(t, store, 8, 0, 2, 0)
		idle := registerNode(t, store, 8, 0, 0, 0)
		obj := types.NewObjectID()
		if err := store.AddObjectLocation(context.Background(), obj, holder, tc.remoteBytes, types.NilTaskID, types.NilJobID); err != nil {
			t.Fatal(err)
		}
		spec := simpleSpec(1)
		spec.Args = []task.Arg{task.RefArg(obj)}
		g := NewGlobal(GlobalConfig{LocalityAware: true, BandwidthBytesPerSec: 1e9}, store)
		want := idle
		if tc.wantHolder {
			want = holder
		}
		if node, err := g.Schedule(context.Background(), spec); err != nil || node != want {
			t.Errorf("input %d B on a node queueing 2 tasks: placed on %v (%v), want %v", tc.remoteBytes, node, err, want)
		}
	}
}

// --- Slot pool tests -------------------------------------------------------------

func TestSlotPoolBoundsConcurrentWorkers(t *testing.T) {
	runner := &fakeRunner{duration: 20 * time.Millisecond}
	// 8 CPUs but only 2 slots: concurrency is slot-bound, not resource-bound.
	l := newLocal(LocalConfig{Pool: resources.NewNodePool(8, 0, 0), WorkerSlots: 2, SpilloverThreshold: 100}, runner, &fakePuller{}, &fakeForwarder{})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := l.Submit(ctx, simpleSpec(1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return l.Stats().Completed == 8 }, "all tasks complete")
	if max := runner.maxConc.Load(); max > 2 {
		t.Fatalf("slot pool over-committed: %d concurrent tasks with 2 slots", max)
	}
	// Idle pool shrinks back to zero workers.
	waitFor(t, func() bool { return l.Stats().SlotWorkers == 0 }, "workers retire when idle")
}

// blockingRunner simulates a task that blocks on a nested Get: the "parent"
// task enters the scheduler's block hooks and waits until the "child" task
// has run. With one slot this only completes if the blocked parent lends its
// slot to the child.
type blockingRunner struct {
	childDone chan struct{}
}

func (r *blockingRunner) Run(ctx context.Context, spec *task.Spec) error {
	if spec.Function == "parent" {
		hooks, ok := types.BlockHooksFrom(ctx)
		if !ok {
			return errors.New("parent task has no block hooks")
		}
		hooks.OnBlock()
		select {
		case <-r.childDone:
		case <-time.After(5 * time.Second):
			return errors.New("child never ran: slot was not lent out")
		}
		hooks.OnUnblock()
		return nil
	}
	close(r.childDone)
	return nil
}

func (r *blockingRunner) Fail(ctx context.Context, spec *task.Spec, cause error) error { return nil }

func TestSlotPoolBlockedTaskLendsSlot(t *testing.T) {
	runner := &blockingRunner{childDone: make(chan struct{})}
	l := newLocal(LocalConfig{Pool: resources.NewNodePool(8, 0, 0), WorkerSlots: 1, SpilloverThreshold: 100}, runner, &fakePuller{}, &fakeForwarder{})
	ctx := context.Background()
	parent := simpleSpec(1)
	parent.Function = "parent"
	if err := l.Submit(ctx, parent); err != nil {
		t.Fatal(err)
	}
	child := simpleSpec(1)
	child.Function = "child"
	if err := l.Submit(ctx, child); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Completed == 2 }, "parent and child complete")
	if l.Stats().Failed != 0 {
		t.Fatal("blocked parent must not fail")
	}
}

// trackingPuller records the maximum number of concurrently in-flight pulls.
type trackingPuller struct {
	running atomic.Int32
	maxConc atomic.Int32
	pulled  atomic.Int64
}

func (p *trackingPuller) Pull(ctx context.Context, id types.ObjectID) error {
	cur := p.running.Add(1)
	for {
		max := p.maxConc.Load()
		if cur <= max || p.maxConc.CompareAndSwap(max, cur) {
			break
		}
	}
	time.Sleep(30 * time.Millisecond)
	p.running.Add(-1)
	p.pulled.Add(1)
	return nil
}

func TestMultiDependencyPullsOverlap(t *testing.T) {
	runner := &fakeRunner{}
	puller := &trackingPuller{}
	l := newLocal(LocalConfig{}, runner, puller, &fakeForwarder{})
	spec := simpleSpec(1)
	spec.Args = []task.Arg{
		task.RefArg(types.NewObjectID()),
		task.RefArg(types.NewObjectID()),
		task.RefArg(types.NewObjectID()),
	}
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Completed == 1 }, "task completion")
	if puller.pulled.Load() != 3 {
		t.Fatalf("expected 3 pulls, got %d", puller.pulled.Load())
	}
	if puller.maxConc.Load() < 2 {
		t.Fatalf("dependency pulls never overlapped (max concurrency %d)", puller.maxConc.Load())
	}
}

func TestPullFanOutBounded(t *testing.T) {
	runner := &fakeRunner{}
	puller := &trackingPuller{}
	l := newLocal(LocalConfig{PullFanOut: 2}, runner, puller, &fakeForwarder{})
	spec := simpleSpec(1)
	args := make([]task.Arg, 8)
	for i := range args {
		args[i] = task.RefArg(types.NewObjectID())
	}
	spec.Args = args
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Completed == 1 }, "task completion")
	if puller.pulled.Load() != 8 {
		t.Fatalf("expected 8 pulls, got %d", puller.pulled.Load())
	}
	if got := puller.maxConc.Load(); got > 2 {
		t.Fatalf("fan-out bound exceeded: max concurrency %d", got)
	}
}

// failingPuller fails one specific object's pull.
type failingPuller struct {
	bad types.ObjectID
}

func (p *failingPuller) Pull(ctx context.Context, id types.ObjectID) error {
	if id == p.bad {
		return types.ErrObjectLost
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(5 * time.Millisecond):
	}
	return nil
}

func TestConcurrentPullFailureFailsTask(t *testing.T) {
	runner := &fakeRunner{}
	bad := types.NewObjectID()
	l := newLocal(LocalConfig{}, runner, &failingPuller{bad: bad}, &fakeForwarder{})
	spec := simpleSpec(1)
	spec.Args = []task.Arg{task.RefArg(types.NewObjectID()), task.RefArg(bad), task.RefArg(types.NewObjectID())}
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().Failed == 1 }, "task failure")
	if runner.count() != 0 {
		t.Fatal("task with unavailable input must not run")
	}
}

// failSinkRunner records the context its Fail method observes, can block
// Run until released, and can be made to fail the failure path itself.
type failSinkRunner struct {
	fakeRunner
	gate        chan struct{} // when non-nil, Run blocks until closed
	failCalls   atomic.Int32
	failCtxDead atomic.Bool
	failErr     error
}

func (f *failSinkRunner) Run(ctx context.Context, spec *task.Spec) error {
	if f.gate != nil {
		<-f.gate
	}
	return f.fakeRunner.Run(ctx, spec)
}

func (f *failSinkRunner) Fail(ctx context.Context, spec *task.Spec, cause error) error {
	f.failCalls.Add(1)
	if ctx.Err() != nil {
		f.failCtxDead.Store(true)
	}
	return f.failErr
}

// Regression test: the failure path runs exactly when the submission context
// is already dead (killed job, abandoned submitter) — which is when the error
// outputs MUST still commit or consumers hang. Fail must therefore receive a
// context detached from the submission context's cancellation, and the
// failure must be counted in Stats.Failed.
func TestFailPathSurvivesCanceledContext(t *testing.T) {
	runner := &failSinkRunner{gate: make(chan struct{})}
	l := newLocal(LocalConfig{WorkerSlots: 1, SpilloverThreshold: 100}, runner, &fakePuller{}, &fakeForwarder{})
	// Occupy the only worker slot so the second task queues.
	if err := l.Submit(context.Background(), simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := l.Submit(ctx, simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	// Kill the submission context while the task is queued, then let the
	// worker reach it: runTask must fail it, and Fail must see a live
	// context despite the cancellation.
	cancel()
	close(runner.gate)
	waitFor(t, func() bool { return runner.failCalls.Load() == 1 }, "Fail invoked")
	if runner.failCtxDead.Load() {
		t.Fatal("Fail received a canceled context; error outputs would never commit")
	}
	if got := l.Stats().Failed; got != 1 {
		t.Fatalf("Failed = %d, want 1", got)
	}
	if got := l.Stats().FailSinkErrors; got != 0 {
		t.Fatalf("FailSinkErrors = %d, want 0", got)
	}
}

// Regression test: an error storing a failed task's error outputs is counted
// in Stats.FailSinkErrors instead of being discarded with _ =.
func TestFailSinkErrorsCounted(t *testing.T) {
	runner := &failSinkRunner{failErr: errors.New("gcs unreachable")}
	runner.err = errors.New("task exploded")
	l := newLocal(LocalConfig{SpilloverThreshold: 100}, runner, &fakePuller{}, &fakeForwarder{})
	if err := l.Submit(context.Background(), simpleSpec(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return l.Stats().FailSinkErrors == 1 }, "fail-sink error counted")
	if got := l.Stats().Failed; got != 1 {
		t.Fatalf("Failed = %d, want 1", got)
	}
}
