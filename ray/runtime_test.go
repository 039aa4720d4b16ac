package ray

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/node"
	"ray/internal/resources"
	"ray/internal/types"
	"ray/internal/worker"
)

// newRuntime builds a small cluster with a set of remote functions that the
// integration tests share.
func newRuntime(t *testing.T, cfg Config) (*Runtime, *Driver) {
	t.Helper()
	rt, err := Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerTestWorkload(t, rt)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rt, d
}

func registerTestWorkload(t *testing.T, rt *Runtime) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.RegisterN("add", "adds two float64 values", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		var a, b float64
		if err := codec.Decode(args[0], &a); err != nil {
			return nil, err
		}
		if err := codec.Decode(args[1], &b); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(a + b)}, nil
	}))
	must(rt.RegisterN("square", "squares a float64", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		var x float64
		if err := codec.Decode(args[0], &x); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(x * x)}, nil
	}))
	must(rt.RegisterN("boom", "always fails", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		return nil, errors.New("boom")
	}))
	must(rt.RegisterN("slow_echo", "sleeps then echoes", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		var ms int
		if err := codec.Decode(args[0], &ms); err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return [][]byte{codec.MustEncode(ms)}, nil
	}))
	must(rt.RegisterN("sum_tree", "recursively sums 1..n with nested tasks", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		var n int
		if err := codec.Decode(args[0], &n); err != nil {
			return nil, err
		}
		if n <= 1 {
			return [][]byte{codec.MustEncode(n)}, nil
		}
		sub, err := ctx.Call1("sum_tree", worker.CallOptions{}, n-1)
		if err != nil {
			return nil, err
		}
		var rest int
		if err := ctx.Get(sub, &rest); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(n + rest)}, nil
	}))
	must(rt.RegisterActorClass("Accumulator", "running sum with checkpoint support", func(ctx *Context, args [][]byte) (any, error) {
		acc := &accumulator{}
		if len(args) > 0 {
			if err := codec.Decode(args[0], &acc.total); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}))
	must(rt.RegisterActorMethod("Accumulator", "add", 1, 1,
		func(ctx *Context, state any, args [][]byte) ([][]byte, error) {
			acc := state.(*accumulator)
			var x float64
			if err := codec.Decode(args[0], &x); err != nil {
				return nil, err
			}
			acc.mu.Lock()
			defer acc.mu.Unlock()
			acc.calls++
			acc.total += x
			return [][]byte{codec.MustEncode(acc.total)}, nil
		}))
	must(rt.RegisterActorMethod("Accumulator", "total", 0, 1,
		func(ctx *Context, state any, args [][]byte) ([][]byte, error) {
			acc := state.(*accumulator)
			acc.mu.Lock()
			defer acc.mu.Unlock()
			acc.calls++
			return [][]byte{codec.MustEncode(acc.total)}, nil
		}))
	must(rt.RegisterActorMethod("Accumulator", "calls", 0, 1,
		func(ctx *Context, state any, args [][]byte) ([][]byte, error) {
			acc := state.(*accumulator)
			acc.mu.Lock()
			defer acc.mu.Unlock()
			acc.calls++
			return [][]byte{codec.MustEncode(acc.calls)}, nil
		}))
}

// accumulator is a checkpointable actor used by the tests; its methods live
// on the class's method table (registerTestWorkload).
type accumulator struct {
	mu    sync.Mutex
	total float64
	calls int
}

func (a *accumulator) Checkpoint() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return codec.Encode(a.total)
}

func (a *accumulator) Restore(data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return codec.Decode(data, &a.total)
}

func TestEndToEndTask(t *testing.T) {
	_, d := newRuntime(t, DefaultConfig())
	fut, err := d.Call1("add", worker.CallOptions{}, 1.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(d, RefAs[float64](fut))
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("add returned %v", got)
	}
}

func TestFutureChaining(t *testing.T) {
	// Futures passed as arguments encode data dependencies without blocking
	// (paper Section 3.1): square(add(1,2)) == 9.
	_, d := newRuntime(t, DefaultConfig())
	sum, err := d.Call1("add", worker.CallOptions{}, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := d.Call1("square", worker.CallOptions{}, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(d, RefAs[float64](sq))
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("square(add(1,2)) = %v, want 9", got)
	}
}

func TestManyParallelTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpilloverThreshold = 4 // force bottom-up spillover to the global scheduler
	_, d := newRuntime(t, cfg)
	const n = 200
	futs := make([]types.ObjectID, n)
	for i := 0; i < n; i++ {
		f, err := d.Call1("add", worker.CallOptions{}, float64(i), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		got, err := Get(d, RefAs[float64](f))
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(i)+1 {
			t.Fatalf("task %d returned %v", i, got)
		}
	}
	// Work should have spread across nodes via spillover + global scheduling.
	stats := d.Runtime().Cluster().Stats()
	if stats.Forwards == 0 {
		t.Fatalf("expected some tasks to be forwarded to the global scheduler: %+v", stats)
	}
}

func TestNestedTasks(t *testing.T) {
	_, d := newRuntime(t, DefaultConfig())
	fut, err := d.Call1("sum_tree", worker.CallOptions{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(d, RefAs[int](fut))
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("sum_tree(10) = %d, want 55", got)
	}
}

func TestWaitReturnsFirstFinishers(t *testing.T) {
	_, d := newRuntime(t, DefaultConfig())
	fast, err := d.Call1("slow_echo", worker.CallOptions{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := d.Call1("slow_echo", worker.CallOptions{}, 400)
	if err != nil {
		t.Fatal(err)
	}
	ready, notReady, err := d.Wait([]types.ObjectID{fast, slow}, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || ready[0] != fast {
		t.Fatalf("wait should return the fast task first: ready=%v", ready)
	}
	if len(notReady) != 1 || notReady[0] != slow {
		t.Fatalf("slow task should still be pending: %v", notReady)
	}
	// Eventually the slow one finishes too.
	if _, err := Get(d, RefAs[int](slow)); err != nil {
		t.Fatal(err)
	}
}

func TestApplicationErrorSurfacesAtGet(t *testing.T) {
	_, d := newRuntime(t, DefaultConfig())
	fut, err := d.Call1("boom", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Get(d, RefAs[float64](fut))
	var te *types.TaskError
	if err == nil || !errors.As(err, &te) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected TaskError mentioning boom, got %v", err)
	}
	// Downstream tasks inherit the failure.
	downstream, err := d.Call1("square", worker.CallOptions{}, fut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Get(d, RefAs[float64](downstream)); err == nil {
		t.Fatal("downstream task of a failed task must fail at Get")
	}
}

func TestPutAndSharedObjects(t *testing.T) {
	_, d := newRuntime(t, DefaultConfig())
	ref, err := d.Put(10.0)
	if err != nil {
		t.Fatal(err)
	}
	fut, err := d.Call1("square", worker.CallOptions{}, ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(d, RefAs[float64](fut))
	if err != nil || got != 100 {
		t.Fatalf("square(put(10)) = %v, %v", got, err)
	}
}

func TestActorEndToEnd(t *testing.T) {
	_, d := newRuntime(t, DefaultConfig())
	acc, err := d.CreateActor("Accumulator", worker.CallOptions{}, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 10; i++ {
		fut, err := d.CallActor1(acc, "add", worker.CallOptions{}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if last, err = Get(d, RefAs[float64](fut)); err != nil {
			t.Fatal(err)
		}
	}
	if last != 15 {
		t.Fatalf("accumulator total = %v, want 15", last)
	}
}

func TestTasksAndActorsCompose(t *testing.T) {
	// The paper's headline: tasks and actors share the same object store, so
	// a stateless task can post-process an actor method's output.
	_, d := newRuntime(t, DefaultConfig())
	acc, err := d.CreateActor("Accumulator", worker.CallOptions{}, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	totalFut, err := d.CallActor1(acc, "total", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	squared, err := d.Call1("square", worker.CallOptions{}, totalFut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(d, RefAs[float64](squared))
	if err != nil || got != 9 {
		t.Fatalf("square(actor.total()) = %v, %v", got, err)
	}
}

func TestResourceAwareScheduling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.GPUs = 0
	rt, err := Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerTestWorkload(t, rt)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A GPU task in a CPU-only cluster can never be placed.
	_, err = d.Call1("add", worker.CallOptions{Resources: resources.GPUs(1)}, 1.0, 2.0)
	if !errors.Is(err, types.ErrNoResources) {
		t.Fatalf("expected ErrNoResources for infeasible GPU task, got %v", err)
	}
}

func TestTaskReconstructionAfterNodeFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.SpilloverThreshold = 1 // spread work across nodes aggressively
	rt, d := func() (*Runtime, *Driver) {
		rt, err := Init(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Shutdown)
		registerTestWorkload(t, rt)
		d, err := rt.NewDriver(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rt, d
	}()

	// Build a chain: v0 = add(1,2); v1 = square(v0). Resolve v1 so both
	// objects exist, then kill every node except the driver's and force the
	// lost intermediate values to be reconstructed from lineage.
	v0, err := d.Call1("add", worker.CallOptions{}, 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := d.Call1("square", worker.CallOptions{}, v0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Get(d, RefAs[float64](v1)); err != nil || got != 9 {
		t.Fatalf("before failure: %v %v", got, err)
	}

	ctx := context.Background()
	for _, n := range rt.Cluster().NodeList() {
		if n.ID() != d.Node.ID() {
			if err := rt.Cluster().KillNode(ctx, n.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Drop the driver node's local copies as well so nothing survives except
	// lineage in the GCS.
	for _, obj := range d.Node.Store().List() {
		if d.Node.Store().Delete(obj) {
			_ = rt.Cluster().GCS().RemoveObjectLocation(ctx, obj, d.Node.ID())
		}
	}

	// Consuming v1 now requires re-executing square (and transitively add).
	again, err := d.Call1("square", worker.CallOptions{}, v1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Get(d, RefAs[float64](again))
	if err != nil {
		t.Fatalf("reconstruction failed: %v", err)
	}
	if got != 81 {
		t.Fatalf("square(square(add(1,2))) = %v, want 81", got)
	}
	// Reconstruction actually happened.
	var reconstructed int64
	for _, n := range rt.Cluster().AliveNodes() {
		reconstructed += n.Stats().Lineage.ReconstructedTasks
	}
	if reconstructed == 0 {
		t.Fatal("expected lineage reconstruction to re-execute tasks")
	}
}

func TestActorReconstructionAfterNodeFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.CheckpointInterval = 5
	rt, err := Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerTestWorkload(t, rt)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	acc, err := d.CreateActor("Accumulator", worker.CallOptions{}, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	// Run 12 adds so a checkpoint exists at 10.
	var total float64
	for i := 0; i < 12; i++ {
		fut, err := d.CallActor1(acc, "add", worker.CallOptions{}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if total, err = Get(d, RefAs[float64](fut)); err != nil {
			t.Fatal(err)
		}
	}
	if total != 12 {
		t.Fatalf("total before failure = %v", total)
	}

	// Find and kill the node hosting the actor.
	ctx := context.Background()
	entry, ok, err := rt.Cluster().GCS().GetActor(ctx, acc.ID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if entry.CheckpointCounter == 0 {
		t.Fatal("expected a checkpoint before the failure")
	}
	if err := rt.Cluster().KillNode(ctx, entry.Node); err != nil {
		t.Fatal(err)
	}
	if d.Node.Dead() {
		// The driver's node happened to host the actor; attach a new driver.
		d2, err := rt.NewDriver(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// Re-issue calls through a fresh context but the same handle state.
		d = d2
	}

	// The next method call transparently reconstructs the actor (replaying
	// from the checkpoint) and sees the full state.
	fut, err := d.CallActor1(acc, "add", worker.CallOptions{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Get(d, RefAs[float64](fut))
	if err != nil {
		t.Fatal(err)
	}
	if after != 13 {
		t.Fatalf("total after reconstruction = %v, want 13", after)
	}
	if rt.Cluster().Stats().ActorsReconstructed == 0 {
		t.Fatal("expected an actor reconstruction")
	}
	newEntry, _, _ := rt.Cluster().GCS().GetActor(ctx, acc.ID)
	if newEntry.Node == entry.Node {
		t.Fatal("actor must have moved to a different node")
	}
}

func TestElasticAddNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	rt, d := newRuntime(t, cfg)
	before := len(rt.Cluster().AliveNodes())
	added, err := rt.Cluster().AddNode(context.Background(), node.Config{CPUs: 4, RecordLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Cluster().AliveNodes()) != before+1 {
		t.Fatal("node count did not grow")
	}
	// The new node is usable: attach a driver to it and run a task.
	d2, err := rt.NewDriverOn(context.Background(), added)
	if err != nil {
		t.Fatal(err)
	}
	fut, err := d2.Call1("add", worker.CallOptions{}, 2.0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Get(d2, RefAs[float64](fut)); err != nil || got != 5 {
		t.Fatalf("task on added node: %v %v", got, err)
	}
	_ = d
}

func TestRuntimeAccessors(t *testing.T) {
	rt, d := newRuntime(t, DefaultConfig())
	if rt.Config().Nodes != DefaultConfig().Nodes {
		t.Fatal("config accessor wrong")
	}
	if rt.Cluster() == nil || d.Runtime() != rt || d.ID.IsNil() || d.Node == nil {
		t.Fatal("accessors wrong")
	}
	if _, err := rt.NewDriverOn(context.Background(), nil); err == nil {
		t.Fatal("driver on nil node must fail")
	}
}
