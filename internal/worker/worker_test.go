package worker

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/gcs"
	"ray/internal/netsim"
	"ray/internal/objectmanager"
	"ray/internal/objectstore"
	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
)

// singleNode implements objectmanager.PeerResolver for a one-node world.
type singleNode struct{}

func (singleNode) ResolveStore(types.NodeID) (*objectstore.Store, bool) { return nil, false }

// testRuntime implements Runtime by executing submitted specs synchronously
// through the pool. That is enough to exercise nested calls in unit tests;
// full asynchronous behaviour is covered by the node/cluster integration tests.
type testRuntime struct {
	pool *Pool
	node types.NodeID
}

func (r *testRuntime) SubmitSpec(ctx context.Context, spec *task.Spec) error {
	if r.pool.cfg.RecordLineage {
		if err := r.pool.gcs.AddTask(ctx, spec); err != nil {
			return err
		}
	}
	return r.pool.Run(ctx, spec)
}

func (r *testRuntime) FetchObject(ctx context.Context, id types.ObjectID) ([]byte, bool, error) {
	obj, err := r.pool.objects.Local().Wait(ctx, id)
	if err != nil {
		return nil, false, err
	}
	return obj.Data, obj.IsError, nil
}

func (r *testRuntime) StoreObject(ctx context.Context, id types.ObjectID, data []byte, isError bool, creator types.TaskID, job types.JobID) error {
	return r.pool.objects.PutOwned(ctx, id, data, isError, creator, job)
}

func (r *testRuntime) WaitObjects(ctx context.Context, ids []types.ObjectID, k int, timeoutMillis int64) ([]types.ObjectID, error) {
	var ready []types.ObjectID
	deadline := time.Now().Add(time.Duration(timeoutMillis) * time.Millisecond)
	for {
		ready = ready[:0]
		for _, id := range ids {
			if r.pool.objects.Local().Contains(id) {
				ready = append(ready, id)
			}
		}
		if len(ready) >= k || (timeoutMillis >= 0 && time.Now().After(deadline)) {
			return append([]types.ObjectID(nil), ready...), nil
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *testRuntime) FreeObjects(ctx context.Context, ids ...types.ObjectID) {
	r.pool.gcs.DecObjectRefs(ctx, ids...)
}

func (r *testRuntime) NodeID() types.NodeID { return r.node }

type testEnv struct {
	pool     *Pool
	registry *Registry
	gcs      *gcs.Store
	node     types.NodeID
	ids      *types.IDGenerator
	rt       *testRuntime
}

func newEnv(t *testing.T, checkpointInterval int64) *testEnv {
	t.Helper()
	node := types.NewNodeID()
	store := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	local := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	om := objectmanager.New(objectmanager.DefaultConfig(), node, local, store, netsim.New(netsim.InstantConfig()), singleNode{})
	registry := NewRegistry()
	ids := types.NewIDGenerator(99)
	pool := NewPool(PoolConfig{
		NodeID:             node,
		CheckpointInterval: checkpointInterval,
		RecordLineage:      true,
	}, registry, om, store, ids)
	rt := &testRuntime{pool: pool, node: node}
	pool.SetRuntime(rt)
	return &testEnv{pool: pool, registry: registry, gcs: store, node: node, ids: ids, rt: rt}
}

func (e *testEnv) ctx() *TaskContext {
	return NewTaskContext(context.Background(), types.NewTaskID(), types.NilJobID, types.NewDriverID(), e.node, e.rt, e.ids)
}

// Counter is a tiny checkpointable actor used across the tests. Its methods
// are registered on the class's method table (registerTestFunctions); the
// type itself only implements the checkpoint hooks.
type Counter struct {
	mu    sync.Mutex
	value int
}

func (c *Counter) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return codec.Encode(c.value)
}

func (c *Counter) Restore(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return codec.Decode(data, &c.value)
}

func registerTestFunctions(t *testing.T, env *testEnv) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(env.registry.Register("double", func(ctx *TaskContext, args [][]byte) ([][]byte, error) {
		var x float64
		if err := codec.Decode(args[0], &x); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(x * 2)}, nil
	}))
	must(env.registry.Register("fail", func(ctx *TaskContext, args [][]byte) ([][]byte, error) {
		return nil, errors.New("application failure")
	}))
	must(env.registry.Register("nested", func(ctx *TaskContext, args [][]byte) ([][]byte, error) {
		// Nested remote call: double the input twice, forwarding the raw
		// serialized argument without re-encoding it.
		id, err := ctx.Call1("double", CallOptions{}, RawValue(args[0]))
		if err != nil {
			return nil, err
		}
		var intermediate float64
		if err := ctx.Get(id, &intermediate); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(intermediate * 2)}, nil
	}))
	must(env.registry.RegisterActorClass("Counter", func(ctx *TaskContext, args [][]byte) (any, error) {
		c := &Counter{}
		if len(args) > 0 {
			if err := codec.Decode(args[0], &c.value); err != nil {
				return nil, err
			}
		}
		return c, nil
	}))
	must(env.registry.RegisterActorMethod("Counter", "add",
		func(ctx *TaskContext, state any, args [][]byte) ([][]byte, error) {
			c := state.(*Counter)
			var delta int
			if err := codec.Decode(args[0], &delta); err != nil {
				return nil, err
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.value += delta
			return [][]byte{codec.MustEncode(c.value)}, nil
		}))
	must(env.registry.RegisterActorMethod("Counter", "value",
		func(ctx *TaskContext, state any, args [][]byte) ([][]byte, error) {
			c := state.(*Counter)
			c.mu.Lock()
			defer c.mu.Unlock()
			return [][]byte{codec.MustEncode(c.value)}, nil
		}))
	must(env.registry.RegisterActorMethod("Counter", "fail",
		func(ctx *TaskContext, state any, args [][]byte) ([][]byte, error) {
			return nil, errors.New("method exploded")
		}))
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("", nil); err == nil {
		t.Fatal("empty registration must fail")
	}
	if err := r.RegisterActorClass("", nil); err == nil {
		t.Fatal("empty actor class registration must fail")
	}
	if _, err := r.FunctionFor(types.NilJobID, "missing"); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatal("missing function must report ErrFunctionNotFound")
	}
	if _, err := r.ActorClassFor(types.NilJobID, "missing"); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatal("missing actor class must report ErrFunctionNotFound")
	}
	if err := r.Register("f", func(*TaskContext, [][]byte) ([][]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterActorClass("A", func(*TaskContext, [][]byte) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if fn, err := r.FunctionFor(types.NilJobID, "f"); err != nil || fn == nil {
		t.Fatalf("registered function not found: %v", err)
	}
	if ctor, err := r.ActorClassFor(types.NilJobID, "A"); err != nil || ctor == nil {
		t.Fatalf("registered actor class not found: %v", err)
	}
	// Functions and classes are separate tables.
	if _, err := r.FunctionFor(types.NilJobID, "A"); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatalf("class resolved as a function: %v", err)
	}
}

// TestRegistryJobNamespaces: a job-scoped registration shadows the
// cluster-wide one for that job only, and two jobs registering the same name
// resolve to their own definitions.
func TestRegistryJobNamespaces(t *testing.T) {
	r := NewRegistry()
	mk := func(tag string) Function {
		return func(*TaskContext, [][]byte) ([][]byte, error) {
			return [][]byte{codec.MustEncode(tag)}, nil
		}
	}
	run := func(fn Function) string {
		outs, err := fn(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var tag string
		if err := codec.Decode(outs[0], &tag); err != nil {
			t.Fatal(err)
		}
		return tag
	}
	jobA, jobB := types.NewJobID(), types.NewJobID()
	if err := r.Register("dup", mk("global")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(QualifiedName(jobA, "dup"), mk("A")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(QualifiedName(jobB, "dup"), mk("B")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		job  types.JobID
		want string
	}{
		{jobA, "A"}, {jobB, "B"}, {types.NewJobID(), "global"}, {types.NilJobID, "global"},
	} {
		fn, err := r.FunctionFor(tc.job, "dup")
		if err != nil {
			t.Fatal(err)
		}
		if got := run(fn); got != tc.want {
			t.Fatalf("FunctionFor(%v) resolved %q, want %q", tc.job, got, tc.want)
		}
	}
	// A job-only name is invisible to other jobs and to the global namespace.
	if err := r.Register(QualifiedName(jobA, "private"), mk("A")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FunctionFor(jobB, "private"); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatalf("cross-job resolution of a private name: %v, want ErrFunctionNotFound", err)
	}
	if _, err := r.FunctionFor(types.NilJobID, "private"); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatalf("global resolution of a private name: %v, want ErrFunctionNotFound", err)
	}
}

func TestRegistryMethodTable(t *testing.T) {
	r := NewRegistry()
	impl := func(*TaskContext, any, [][]byte) ([][]byte, error) { return nil, nil }
	// Methods cannot attach to unknown classes.
	if err := r.RegisterActorMethod("Ghost", "m", impl); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatalf("method on unknown class: %v, want ErrFunctionNotFound", err)
	}
	if err := r.RegisterActorClass("C", func(*TaskContext, [][]byte) (any, error) { return &Counter{}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterActorMethod("C", "", impl); err == nil {
		t.Fatal("empty method name must fail")
	}
	if err := r.RegisterActorMethod("C", "m", nil); err == nil {
		t.Fatal("nil method impl must fail")
	}
	if err := r.RegisterActorMethod("C", "m", impl); err != nil {
		t.Fatal(err)
	}
	// Duplicate declaration is rejected.
	if err := r.RegisterActorMethod("C", "m", impl); !errors.Is(err, types.ErrDuplicateMethod) {
		t.Fatalf("duplicate method: %v, want ErrDuplicateMethod", err)
	}
	if _, err := r.DispatchFor(types.NilJobID, "C", "m", &Counter{}); err != nil {
		t.Fatalf("registered method does not dispatch: %v", err)
	}
	if _, err := r.DispatchFor(types.NilJobID, "C", "other", &Counter{}); !errors.Is(err, types.ErrMethodNotFound) {
		t.Fatalf("unknown method: %v, want ErrMethodNotFound", err)
	}
}

func TestRegistryDispatch(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterActorClass("C", func(*TaskContext, [][]byte) (any, error) { return &Counter{}, nil }); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := r.RegisterActorMethod("C", "m",
		func(ctx *TaskContext, state any, args [][]byte) ([][]byte, error) {
			called = true
			if _, ok := state.(*Counter); !ok {
				t.Errorf("dispatch passed %T, want *Counter", state)
			}
			return [][]byte{codec.MustEncode(true)}, nil
		}); err != nil {
		t.Fatal(err)
	}
	call, err := r.DispatchFor(types.NilJobID, "C", "m", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call(nil, nil); err != nil || !called {
		t.Fatalf("table dispatch failed: %v (called=%v)", err, called)
	}
	// Unknown method on a table class is ErrMethodNotFound — the method table
	// is the only dispatch path, never a fallthrough to the instance.
	if _, err := r.DispatchFor(types.NilJobID, "C", "ghost", &Counter{}); !errors.Is(err, types.ErrMethodNotFound) {
		t.Fatalf("unknown table method: %v, want ErrMethodNotFound", err)
	}
	// Unknown class is ErrFunctionNotFound.
	if _, err := r.DispatchFor(types.NilJobID, "Ghost", "m", &Counter{}); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatalf("unknown class: %v, want ErrFunctionNotFound", err)
	}
	// A job-scoped class shadows the global one of the same name for its own
	// job's actors only.
	job := types.NewJobID()
	if err := r.RegisterActorClass(QualifiedName(job, "C"), func(*TaskContext, [][]byte) (any, error) { return &Counter{}, nil }); err != nil {
		t.Fatal(err)
	}
	jobCalled := false
	if err := r.RegisterActorMethod(QualifiedName(job, "C"), "jobonly",
		func(ctx *TaskContext, state any, args [][]byte) ([][]byte, error) {
			jobCalled = true
			return [][]byte{codec.MustEncode(true)}, nil
		}); err != nil {
		t.Fatal(err)
	}
	call, err = r.DispatchFor(job, "C", "jobonly", &Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call(nil, nil); err != nil || !jobCalled {
		t.Fatalf("job-scoped dispatch failed: %v (called=%v)", err, jobCalled)
	}
	// Other jobs (and the global namespace) cannot reach the job's method.
	if _, err := r.DispatchFor(types.NewJobID(), "C", "jobonly", &Counter{}); !errors.Is(err, types.ErrMethodNotFound) {
		t.Fatalf("cross-job dispatch: %v, want ErrMethodNotFound", err)
	}
}

func TestStatelessTaskExecution(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()

	future, err := ctx.Call1("double", CallOptions{}, 21.0)
	if err != nil {
		t.Fatal(err)
	}
	var result float64
	if err := ctx.Get(future, &result); err != nil {
		t.Fatal(err)
	}
	if result != 42 {
		t.Fatalf("result = %v, want 42", result)
	}
	// Lineage was recorded and marked finished.
	entry, ok, err := env.gcs.GetTask(context.Background(), taskIDOf(future))
	if err != nil || !ok {
		t.Fatalf("lineage missing: %v %v", ok, err)
	}
	if entry.Status != types.TaskFinished {
		t.Fatalf("status = %v", entry.Status)
	}
	if env.pool.Stats().TasksRun != 1 {
		t.Fatal("task counter wrong")
	}
}

// taskIDOf recovers the creating task ID from a return object ID by brute
// force: returns the task whose first return matches. Tests only.
func taskIDOf(obj types.ObjectID) types.TaskID {
	// Return object IDs are derived from the task ID; reverse the derivation
	// used in types.ReturnObjectID for index 0.
	var id types.TaskID
	copy(id[:], obj[:])
	id[0] ^= 0xA5
	v := uint32(id[8])<<24 | uint32(id[9])<<16 | uint32(id[10])<<8 | uint32(id[11])
	v = v ^ 0x80000000 ^ uint32(1)<<16
	id[8], id[9], id[10], id[11] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return id
}

func TestApplicationErrorPropagates(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()

	failed, err := ctx.Call1("fail", CallOptions{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var out float64
	gerr := ctx.Get(failed, &out)
	if gerr == nil {
		t.Fatal("expected application error from Get")
	}
	var te *types.TaskError
	if !errors.As(gerr, &te) || !strings.Contains(te.Message, "application failure") {
		t.Fatalf("unexpected error: %v", gerr)
	}

	// A task consuming the failed output propagates the error without running.
	downstream, err := ctx.Call1("double", CallOptions{}, failed)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Get(downstream, &out); err == nil {
		t.Fatal("downstream of failed task must also fail")
	}
	if env.pool.Stats().AppErrors < 2 {
		t.Fatalf("app error counter: %+v", env.pool.Stats())
	}
}

func TestNestedRemoteCalls(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()
	future, err := ctx.Call1("nested", CallOptions{}, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	var result float64
	if err := ctx.Get(future, &result); err != nil {
		t.Fatal(err)
	}
	if result != 40 {
		t.Fatalf("nested result = %v, want 40", result)
	}
}

func TestUnknownFunctionIsInfrastructureError(t *testing.T) {
	env := newEnv(t, 0)
	spec := &task.Spec{ID: types.NewTaskID(), Function: "nope", NumReturns: 1, Resources: resources.CPUs(1)}
	if err := env.pool.Run(context.Background(), spec); !errors.Is(err, types.ErrFunctionNotFound) {
		t.Fatalf("expected ErrFunctionNotFound, got %v", err)
	}
}

func TestPutAndGet(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()
	id, err := ctx.Put([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	if err := ctx.Get(id, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[2] != 3 {
		t.Fatalf("put/get mismatch: %v", out)
	}
	// Put IDs are distinct across calls.
	id2, _ := ctx.Put("second")
	if id == id2 {
		t.Fatal("put ids must differ")
	}
	// GetRaw returns payload bytes.
	raw, err := ctx.GetRaw(id2)
	if err != nil || len(raw) == 0 {
		t.Fatalf("GetRaw: %v %v", raw, err)
	}
}

func TestWaitSemantics(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()
	ready1, _ := ctx.Put(1)
	ready2, _ := ctx.Put(2)
	pending := types.NewObjectID() // never created
	ready, notReady, err := ctx.Wait([]types.ObjectID{ready1, pending, ready2}, 2, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 2 || len(notReady) != 1 || notReady[0] != pending {
		t.Fatalf("wait sets wrong: ready=%v notReady=%v", ready, notReady)
	}
	// k defaults to all; timeout expires with partial results.
	start := time.Now()
	ready, notReady, err = ctx.Wait([]types.ObjectID{ready1, pending}, 0, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || len(notReady) != 1 {
		t.Fatal("timeout wait sets wrong")
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("wait returned before timeout despite missing objects")
	}
}

func TestActorLifecycle(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()

	h, err := ctx.CreateActor("Counter", CallOptions{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !env.pool.HasActor(h.ID) {
		t.Fatal("actor not hosted after creation")
	}
	// Sequential method calls mutate private state.
	var value int
	for i := 1; i <= 5; i++ {
		fut, err := ctx.CallActor1(h, "add", CallOptions{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Get(fut, &value); err != nil {
			t.Fatal(err)
		}
	}
	if value != 150 {
		t.Fatalf("counter value = %d, want 150", value)
	}
	// Actor table reflects progress.
	entry, ok, err := env.gcs.GetActor(context.Background(), h.ID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if entry.State != types.ActorAlive || entry.ExecutedCounter != 5 || entry.Node != env.node {
		t.Fatalf("actor entry wrong: %+v", entry)
	}
	// Method-level application errors propagate like task errors.
	fut, _ := ctx.CallActor1(h, "fail", CallOptions{})
	if err := ctx.Get(fut, &value); err == nil {
		t.Fatal("expected method error")
	}
	// Stats.
	st := env.pool.Stats()
	if st.ActorsHosted != 1 || st.MethodsRun != 6 || st.MethodsByActor[h.ID.String()] != 6 {
		t.Fatalf("pool stats wrong: %+v", st)
	}
	if ids := env.pool.ActorIDs(); len(ids) != 1 || ids[0] != h.ID {
		t.Fatal("ActorIDs wrong")
	}
	// An unknown method on a table-registered class resolves to an error
	// object (the caller sees it at Get), never a crashed task and never a
	// fallthrough into user dispatch code.
	unknown, err := ctx.CallActor1(h, "nope", CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Get(unknown, &value); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unknown method error wrong: %v", err)
	}
	// Stop the actor; further methods fail as infrastructure errors.
	if !env.pool.StopActor(h.ID) {
		t.Fatal("stop failed")
	}
	if env.pool.StopActor(h.ID) {
		t.Fatal("double stop must report false")
	}
	spec := &task.Spec{ID: types.NewTaskID(), Function: "value", NumReturns: 1, ActorID: h.ID, ActorCounter: 7}
	if err := env.pool.Run(context.Background(), spec); !errors.Is(err, types.ErrActorNotFound) {
		t.Fatalf("expected ErrActorNotFound, got %v", err)
	}
}

func TestActorMethodOrderingFromOneHandle(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()
	h, err := ctx.CreateActor("Counter", CallOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Build method specs in order but run them out of order; the stateful
	// edge gating must still execute them in program order.
	specs := make([]*task.Spec, 0, 3)
	h.mu.Lock()
	for i := 0; i < 3; i++ {
		h.counter++
		spec := &task.Spec{
			ID:                env.ids.NextTaskID(),
			Function:          "add",
			Args:              []task.Arg{task.ValueArg(codec.MustEncode(1))},
			NumReturns:        1,
			ActorID:           h.ID,
			ActorCounter:      h.counter,
			PreviousActorTask: h.lastTask,
		}
		h.lastTask = spec.ID
		specs = append(specs, spec)
	}
	h.mu.Unlock()

	var wg sync.WaitGroup
	// Launch the later methods first; they must wait for their predecessors.
	for i := len(specs) - 1; i >= 0; i-- {
		wg.Add(1)
		go func(s *task.Spec) {
			defer wg.Done()
			if err := env.gcs.AddTask(context.Background(), s); err != nil {
				t.Error(err)
				return
			}
			if err := env.pool.Run(context.Background(), s); err != nil {
				t.Error(err)
			}
		}(specs[i])
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	// The value after each add is its position in program order; check the
	// third call observed value 3.
	var v int
	if err := ctx.Get(specs[2].Returns()[0], &v); err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("program order violated: third add returned %d", v)
	}
}

func TestActorCheckpointing(t *testing.T) {
	env := newEnv(t, 3) // checkpoint every 3 methods
	registerTestFunctions(t, env)
	ctx := env.ctx()
	h, err := ctx.CreateActor("Counter", CallOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v int
	for i := 0; i < 7; i++ {
		fut, err := ctx.CallActor1(h, "add", CallOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Get(fut, &v); err != nil {
			t.Fatal(err)
		}
	}
	entry, ok, err := env.gcs.GetActor(context.Background(), h.ID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(entry.CheckpointData) == 0 {
		t.Fatal("no checkpoint recorded")
	}
	if entry.CheckpointCounter != 6 {
		t.Fatalf("checkpoint counter = %d, want 6", entry.CheckpointCounter)
	}
	// The checkpoint data holds the state at that point.
	var saved int
	if err := codec.Decode(entry.CheckpointData, &saved); err != nil || saved != 6 {
		t.Fatalf("checkpoint contents wrong: %d %v", saved, err)
	}
	// Restore into a fresh instance.
	if err := env.pool.RestoreActorCheckpoint(h.ID, entry.CheckpointData, entry.CheckpointCounter); err != nil {
		t.Fatal(err)
	}
	if err := env.pool.RestoreActorCheckpoint(types.NewActorID(), entry.CheckpointData, 1); !errors.Is(err, types.ErrActorNotFound) {
		t.Fatal("restore of unknown actor must fail")
	}
}

func TestActorHandleExportImport(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()
	h, err := ctx.CreateActor("Counter", CallOptions{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Register a function that receives the handle and calls a method on it.
	err = env.registry.Register("use_handle", func(tc *TaskContext, args [][]byte) ([][]byte, error) {
		handle, err := DecodeActorHandle(args[0])
		if err != nil {
			return nil, err
		}
		fut, err := tc.CallActor1(handle, "value", CallOptions{})
		if err != nil {
			return nil, err
		}
		var v int
		if err := tc.Get(fut, &v); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(v)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := ctx.Call1("use_handle", CallOptions{}, h)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	if err := ctx.Get(fut, &got); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("handle round trip returned %d, want 7", got)
	}
	if _, err := DecodeActorHandle([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage handle must fail to decode")
	}
}

func TestDropAllActors(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := env.ctx()
	for i := 0; i < 4; i++ {
		if _, err := ctx.CreateActor("Counter", CallOptions{}, i); err != nil {
			t.Fatal(err)
		}
	}
	dropped := env.pool.DropAllActors()
	if len(dropped) != 4 || env.pool.Stats().ActorsHosted != 0 {
		t.Fatalf("drop all actors: %d dropped, %d hosted", len(dropped), env.pool.Stats().ActorsHosted)
	}
}

func TestGetAllAndCallMultiReturn(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	if err := env.registry.Register("split", func(ctx *TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(1.0), codec.MustEncode(2.0)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := env.ctx()
	futs, err := ctx.Call("split", CallOptions{NumReturns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(futs) != 2 {
		t.Fatalf("expected 2 futures, got %d", len(futs))
	}
	var a, b float64
	if err := ctx.GetAll(futs, []any{&a, &b}); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 {
		t.Fatalf("multi-return wrong: %v %v", a, b)
	}
	if err := ctx.GetAll(futs, []any{&a}); err == nil {
		t.Fatal("mismatched GetAll lengths must fail")
	}
	// Declared returns exceeding produced outputs are filled with empties.
	futs, err = ctx.Call("split", CallOptions{NumReturns: 3})
	if err != nil {
		t.Fatal(err)
	}
	var empty []byte
	if err := ctx.Get(futs[2], &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatal("missing output must decode as empty")
	}
}

// TestRunningTaskInputsPinned verifies the objectstore's promise that a
// running task's inputs cannot be evicted (or deleted) underneath it: the
// worker pool pins resolved inputs for the duration of execution.
func TestRunningTaskInputsPinned(t *testing.T) {
	env := newEnv(t, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	if err := env.registry.Register("block", func(ctx *TaskContext, args [][]byte) ([][]byte, error) {
		close(started)
		<-release
		return [][]byte{codec.MustEncode(len(args[0]))}, nil
	}); err != nil {
		t.Fatal(err)
	}

	input := types.NewObjectID()
	if err := env.pool.objects.Put(context.Background(), input, []byte("task input"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	spec := &task.Spec{
		ID:         types.NewTaskID(),
		Driver:     types.NewDriverID(),
		Function:   "block",
		NumReturns: 1,
		Args:       []task.Arg{task.RefArg(input)},
	}
	if err := env.gcs.AddTask(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- env.pool.Run(context.Background(), spec) }()
	<-started

	store := env.pool.objects.Local()
	// While the task runs, its input is pinned: undeletable and unevictable.
	if store.Delete(input) {
		t.Fatal("running task's input was deleted")
	}
	if dropped := store.DropAll(); len(dropped) != 0 {
		t.Fatalf("running task's input was droppable: %v", dropped)
	}
	close(release)
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	// After execution the pin is released.
	if !store.Delete(input) {
		t.Fatal("input still pinned after task finished")
	}
}

// TestErrorInputUnpinnedAfterPropagation ensures the early-return path for
// error-object inputs also releases its pins.
func TestErrorInputUnpinnedAfterPropagation(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	errInput := types.NewObjectID()
	if err := env.pool.objects.Put(context.Background(), errInput, codec.MustEncode("boom"), true, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	spec := &task.Spec{
		ID:         types.NewTaskID(),
		Driver:     types.NewDriverID(),
		Function:   "double",
		NumReturns: 1,
		Args:       []task.Arg{task.RefArg(errInput)},
	}
	if err := env.gcs.AddTask(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := env.pool.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if !env.pool.objects.Local().Delete(errInput) {
		t.Fatal("error input still pinned after propagation")
	}
}

// A task's inputs are unpinned before its outputs become visible, so that
// whoever sees the result can release an input and have it reclaimed. The
// sharpest case is the task's own pending-task reference, released inside Run
// after the outputs are published: when it is the last one, the reclaimer
// runs right there and must find the replica deletable. (With the unpin
// deferred to Run's return it bounced off the finished task's own pin, and
// the replica leaked until job exit.)
func TestInputsUnpinnedBeforeOutputsPublished(t *testing.T) {
	env := newEnv(t, 0)
	registerTestFunctions(t, env)
	ctx := context.Background()
	store := env.pool.objects.Local()

	input := types.NewObjectID()
	if err := env.pool.objects.Put(ctx, input, codec.MustEncode(21.0), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	spec := &task.Spec{
		ID:         types.NewTaskID(),
		Driver:     types.NewDriverID(),
		Function:   "double",
		NumReturns: 1,
		Args:       []task.Arg{task.RefArg(input)},
	}
	if err := env.gcs.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// The pending task holds the input's only reference, as after a submit
	// whose submitter has already freed its own.
	env.gcs.IncObjectRefs(1, input)
	var outputVisible, deleted bool
	env.gcs.SetReclaimer(func(_ context.Context, id types.ObjectID, _ bool) {
		if id == input {
			outputVisible = store.Contains(spec.Returns()[0])
			deleted = store.Delete(id)
		}
	})

	if err := env.pool.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if !outputVisible {
		t.Fatal("input's last reference was released before the output was published (or never)")
	}
	if !deleted || store.Contains(input) {
		t.Fatal("the finished task's pin kept its input from being reclaimed")
	}
}

// The owner references a context holds form a set: Free releases exactly the
// tracked ones, once, and TakeCreated hands over what is left.
func TestFreeAndTakeCreated(t *testing.T) {
	env := newEnv(t, 0)
	c := env.ctx()
	ids := make([]types.ObjectID, 5)
	for i := range ids {
		ids[i] = types.NewObjectID()
	}
	env.gcs.IncObjectRefs(1, ids...)
	c.trackCreated(ids...)

	stranger := types.NewObjectID()
	env.gcs.IncObjectRefs(1, stranger)
	c.Free(ids[0], ids[0], stranger, ids[3])
	if got := env.gcs.ObjectRefCount(stranger); got != 1 {
		t.Fatalf("Free released a reference the context never held (count %d)", got)
	}
	for i, id := range ids {
		want := int64(1)
		if i == 0 || i == 3 {
			want = 0
		}
		if got := env.gcs.ObjectRefCount(id); got != want {
			t.Fatalf("ref count of id %d = %d, want %d", i, got, want)
		}
	}
	rest := c.TakeCreated()
	sort.Slice(rest, func(i, j int) bool { return bytes.Compare(rest[i][:], rest[j][:]) < 0 })
	want := []types.ObjectID{ids[1], ids[2], ids[4]}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i][:], want[j][:]) < 0 })
	if !reflect.DeepEqual(rest, want) {
		t.Fatalf("TakeCreated = %v, want %v", rest, want)
	}
	if again := c.TakeCreated(); len(again) != 0 {
		t.Fatalf("second TakeCreated returned %v", again)
	}
	c.Free(ids[1]) // no longer tracked: a no-op
	if got := env.gcs.ObjectRefCount(ids[1]); got != 1 {
		t.Fatalf("Free after TakeCreated released a reference (count %d)", got)
	}
}

// Free(one ref) costs the same whether the context tracks a dozen references
// or tens of thousands — a driver's window of in-flight futures must not make
// every release slower.
func TestFreeCostIndependentOfTracked(t *testing.T) {
	env := newEnv(t, 0)
	perFree := func(tracked int) (time.Duration, float64) {
		c := env.ctx()
		ids := make([]types.ObjectID, tracked)
		for i := range ids {
			ids[i] = types.NewObjectID()
		}
		c.trackCreated(ids...)
		cycle := func() {
			c.Free(ids[0])
			c.trackCreated(ids[0])
		}
		best := time.Duration(math.MaxInt64)
		for round := 0; round < 5; round++ {
			const n = 2000
			start := time.Now()
			for i := 0; i < n; i++ {
				cycle()
			}
			best = min(best, time.Since(start)/n)
		}
		return best, testing.AllocsPerRun(100, cycle)
	}
	smallNs, smallAllocs := perFree(16)
	bigNs, bigAllocs := perFree(1 << 15)
	if bigAllocs != smallAllocs || bigAllocs > 1 {
		t.Errorf("Free allocates %v times with 32768 tracked, %v with 16; want equal and at most 1", bigAllocs, smallAllocs)
	}
	// A scan of the tracked set would be ~2000x slower at 32768 than at 16.
	if bigNs > 8*smallNs+time.Microsecond {
		t.Errorf("Free took %v with 32768 tracked vs %v with 16", bigNs, smallNs)
	}
}
