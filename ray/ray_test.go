package ray_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/gcs"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// newTestRuntime starts a small cluster and returns a connected driver.
func newTestRuntime(t *testing.T) (*ray.Runtime, *ray.Driver) {
	t.Helper()
	cfg := ray.DefaultConfig()
	cfg.Nodes = 3
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rt, d
}

// TestTypedFutureChain is the quickstart-equivalent e2e: typed futures are
// passed as arguments, so square(square(square(2))) builds a three-task
// chain whose dependencies flow through the task graph.
func TestTypedFutureChain(t *testing.T) {
	rt, d := newTestRuntime(t)
	square, err := ray.Register1(rt, "square", "squares a float64",
		func(ctx *ray.Context, x float64) (float64, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	fut, err := square.Remote(d, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		fut, err = square.RemoteRef(d, fut)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := ray.Get(d, fut)
	if err != nil {
		t.Fatal(err)
	}
	if got != 256 {
		t.Fatalf("square chain = %v, want 256", got)
	}
}

// TestValueRefMixesConstantsIntoRefCalls covers the inline-future bridge:
// RemoteRef calls whose other arguments are constants wrap them in ValueRef
// with no object-store round trip.
func TestValueRefMixesConstantsIntoRefCalls(t *testing.T) {
	rt, d := newTestRuntime(t)
	add, err := ray.Register2(rt, "add", "adds two ints",
		func(ctx *ray.Context, a, b int) (int, error) { return a + b, nil })
	if err != nil {
		t.Fatal(err)
	}
	base, err := ray.Put(d, 40)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := add.RemoteRef(d, base, ray.ValueRef(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ray.Get(d, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("add = %d, want 42", got)
	}
	// Get on an inline ref decodes locally.
	inline, err := ray.Get(d, ray.ValueRef(7))
	if err != nil || inline != 7 {
		t.Fatalf("inline Get = %d, %v", inline, err)
	}
}

// registerCounterClass registers the test counter class through the
// method-table API and returns the class plus its method handles.
func registerCounterClass(t *testing.T, rt *ray.Runtime) (ray.Class1[testCounter, int], ray.ClassMethod1[testCounter, int, int], ray.ClassMethod0[testCounter, int]) {
	t.Helper()
	Counter, err := ray.RegisterActorClass1(rt, "Counter", "counter with start value",
		func(ctx *ray.Context, start int) (*testCounter, error) {
			return &testCounter{value: start}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	add, err := ray.ActorMethod1(Counter, "add",
		func(ctx *ray.Context, c *testCounter, delta int) (int, error) {
			c.value += delta
			return c.value, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	value, err := ray.ActorMethod0(Counter, "value",
		func(ctx *ray.Context, c *testCounter) (int, error) { return c.value, nil })
	if err != nil {
		t.Fatal(err)
	}
	return Counter, add, value
}

// TestActorRoundTrip covers typed actor classes and method handles: a
// constructor argument, a typed mutating method declared on the class's
// method table, and a typed accessor, plus the untyped escape hatch reaching
// the same table.
func TestActorRoundTrip(t *testing.T) {
	rt, d := newTestRuntime(t)
	Counter, addM, valueM := registerCounterClass(t, rt)
	counter, err := Counter.New(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	add := addM.Bind(counter)
	for i := 1; i <= 5; i++ {
		if _, err := add.Remote(d, i); err != nil {
			t.Fatal(err)
		}
	}
	// ClassMethod handles also invoke directly, given the actor.
	ref, err := valueM.Remote(d, counter)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ray.Get(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got != 115 {
		t.Fatalf("counter = %d, want 115", got)
	}
	// An unknown method arriving over the wire (here forged through the
	// worker-layer handle, since the typed API makes it a compile error) is an
	// error object the caller observes at Get — never a fallthrough into user
	// code.
	badRef, err := d.CallActor1(counter.Handle(), "nope", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ignored int
	if err := ray.GetInto(d, badRef, &ignored); err == nil {
		t.Fatal("unknown method must surface as an error at Get")
	}
}

// TestDuplicateMethodRegistrationFails: each method name may be declared only
// once per class registration.
func TestDuplicateMethodRegistrationFails(t *testing.T) {
	rt, _ := newTestRuntime(t)
	Counter, _, _ := registerCounterClass(t, rt)
	_, err := ray.ActorMethod0(Counter, "value",
		func(ctx *ray.Context, c *testCounter) (int, error) { return 0, nil })
	if !errors.Is(err, types.ErrDuplicateMethod) {
		t.Fatalf("duplicate method declaration: got %v, want ErrDuplicateMethod", err)
	}
}

// TestMethodTableRecordedInGCS: declaring methods threads their per-method
// arity and return counts into the class's GCS function entry.
func TestMethodTableRecordedInGCS(t *testing.T) {
	rt, _ := newTestRuntime(t)
	registerCounterClass(t, rt)
	entry, ok, err := rt.Cluster().GCS().GetFunction(context.Background(), "Counter")
	if err != nil || !ok {
		t.Fatalf("GetFunction(Counter): ok=%v err=%v", ok, err)
	}
	if !entry.IsActorClass {
		t.Fatal("Counter entry not marked as actor class")
	}
	byName := make(map[string]gcs.MethodInfo, len(entry.Methods))
	for _, m := range entry.Methods {
		byName[m.Name] = m
	}
	if m, ok := byName["add"]; !ok || m.NumArgs != 1 || m.NumReturns != 1 {
		t.Fatalf("add method info wrong: %+v (present=%v)", m, ok)
	}
	if m, ok := byName["value"]; !ok || m.NumArgs != 0 || m.NumReturns != 1 {
		t.Fatalf("value method info wrong: %+v (present=%v)", m, ok)
	}
}

// TestConcurrentMethodRegistrationsAllLand: methods registered on one class
// at once each land in the class's GCS function entry; none is lost to a
// concurrent registration's read-modify-write.
func TestConcurrentMethodRegistrationsAllLand(t *testing.T) {
	rt, _ := newTestRuntime(t)
	const classes, n = 8, 32
	for c := range classes {
		class := fmt.Sprintf("Many%d", c)
		if err := rt.RegisterActorClass(class, "many methods", func(ctx *ray.Context, args [][]byte) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var start atomic.Bool
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !start.Load() {
					runtime.Gosched()
				}
				impl := func(ctx *ray.Context, state any, args [][]byte) ([][]byte, error) { return nil, nil }
				if err := rt.RegisterActorMethod(class, fmt.Sprintf("m%d", i), i%4, 1, impl); err != nil {
					t.Error(err)
				}
			}()
		}
		start.Store(true)
		wg.Wait()
		entry, ok, err := rt.Cluster().GCS().GetFunction(context.Background(), class)
		if err != nil || !ok {
			t.Fatalf("GetFunction(%s): ok=%v err=%v", class, ok, err)
		}
		if len(entry.Methods) != n {
			t.Fatalf("%s: %d of %d concurrently registered methods in the GCS entry", class, len(entry.Methods), n)
		}
		for i := range n {
			name := fmt.Sprintf("m%d", i)
			if !slices.ContainsFunc(entry.Methods, func(m gcs.MethodInfo) bool { return m.Name == name && m.NumArgs == i%4 }) {
				t.Fatalf("%s: method %s missing from %+v", class, name, entry.Methods)
			}
		}
	}
}

// TestWaitTimeout covers ray.Wait semantics: k satisfied early, and the
// timeout expiring with work still outstanding.
func TestWaitTimeout(t *testing.T) {
	rt, d := newTestRuntime(t)
	sleepEcho, err := ray.Register1(rt, "sleep_echo", "sleeps its argument in ms, returns it",
		func(ctx *ray.Context, ms int) (int, error) {
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return ms, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sleepEcho.Remote(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := sleepEcho.Remote(d, 2000)
	if err != nil {
		t.Fatal(err)
	}
	refs := []ray.ObjectRef[int]{fast, slow}
	ready, notReady, err := ray.Wait(d, refs, 2, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || len(notReady) != 1 {
		t.Fatalf("Wait(k=2, 150ms) = %d ready, %d notReady; want 1/1", len(ready), len(notReady))
	}
	if ready[0].ID != fast.ID {
		t.Fatalf("ready ref is not the fast task")
	}
	// k=1 returns as soon as the fast task is done, well under the timeout.
	start := time.Now()
	ready, _, err = ray.Wait(d, refs, 1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) < 1 {
		t.Fatal("Wait(k=1) returned nothing")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Wait(k=1) blocked %v despite a ready task", elapsed)
	}
	// Inline refs are ready by construction.
	ready, notReady, err = ray.Wait(d, []ray.ObjectRef[int]{ray.ValueRef(1), slow}, 1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ready) != 1 || len(notReady) != 1 {
		t.Fatalf("inline Wait = %d ready, %d notReady; want 1/1", len(ready), len(notReady))
	}
}

// refEnvelope is a value type carrying a typed future, as applications might
// embed in messages.
type refEnvelope struct {
	Ref   ray.ObjectRef[float64]
	Label string
}

// TestObjectRefSurvivesEncodeDecodeAsTaskArg: a typed future embedded in a
// struct argument re-encodes as its object ID through the codec, and the
// receiving task can resolve it with ray.Get.
func TestObjectRefSurvivesEncodeDecodeAsTaskArg(t *testing.T) {
	rt, d := newTestRuntime(t)
	produce, err := ray.Register0(rt, "produce", "produces a float64",
		func(ctx *ray.Context) (float64, error) { return 6.5, nil })
	if err != nil {
		t.Fatal(err)
	}
	resolve, err := ray.Register1(rt, "resolve", "resolves an embedded future",
		func(ctx *ray.Context, env refEnvelope) (float64, error) {
			return ray.Get(ctx, env.Ref)
		})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := produce.Remote(d)
	if err != nil {
		t.Fatal(err)
	}

	// Pure codec round trip preserves the identity.
	data, err := codec.Encode(refEnvelope{Ref: ref, Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var decoded refEnvelope
	if err := codec.Decode(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Ref.ID != ref.ID || decoded.Label != "x" {
		t.Fatalf("codec round trip lost the reference: %+v", decoded)
	}

	// End to end: the embedded future crosses a task boundary and resolves.
	out, err := resolve.Remote(d, refEnvelope{Ref: ref, Label: "x"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ray.Get(d, out)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6.5 {
		t.Fatalf("resolved embedded future = %v, want 6.5", got)
	}
}

// TestRegisteredArityRecorded covers the function-table fix: the declared
// return count of a registration lands in the GCS instead of a hardcoded 1.
func TestRegisteredArityRecorded(t *testing.T) {
	rt, d := newTestRuntime(t)
	ctx := context.Background()
	if _, err := ray.Register1(rt, "one_return", "",
		func(c *ray.Context, x int) (int, error) { return x, nil }); err != nil {
		t.Fatal(err)
	}
	splitter, err := ray.RegisterFuncN(rt, "two_returns", "splits a pair", 2,
		func(c *ray.Context, args [][]byte) ([][]byte, error) {
			return [][]byte{codec.MustEncode(1), codec.MustEncode(2)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"one_return": 1, "two_returns": 2} {
		entry, ok, err := rt.Cluster().GCS().GetFunction(ctx, name)
		if err != nil || !ok {
			t.Fatalf("GetFunction(%s): ok=%v err=%v", name, ok, err)
		}
		if entry.NumReturns != want {
			t.Fatalf("function table records %d returns for %s, want %d", entry.NumReturns, name, want)
		}
	}
	// The FuncN handle pre-binds its arity, so both outputs materialize.
	refs, err := splitter.Remote(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("FuncN returned %d refs, want 2", len(refs))
	}
	var a, b int
	if err := ray.GetInto(d, refs[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := ray.GetInto(d, refs[1], &b); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 {
		t.Fatalf("multi-return = (%d, %d), want (1, 2)", a, b)
	}
}

// TestOptionsCompose covers fluent options: resource demands accumulate and
// pinning places work on the labelled node.
func TestOptionsCompose(t *testing.T) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 2
	cfg.LabelNodes = true
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	whereAmI, err := ray.Register0(rt, "where", "reports the executing node",
		func(ctx *ray.Context) (string, error) { return ctx.Node.String(), nil })
	if err != nil {
		t.Fatal(err)
	}
	target := rt.Cluster().NodeList()[1]
	ref, err := whereAmI.Remote(d, ray.OnNode(1), ray.WithCPUs(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ray.Get(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got != target.ID().String() {
		t.Fatalf("OnNode(1) ran on %s, want %s", got, target.ID())
	}
}

// TestRefAsRetypesRawRefs covers the escape-hatch bridge back into the typed
// world.
func TestRefAsRetypesRawRefs(t *testing.T) {
	rt, d := newTestRuntime(t)
	echo, err := ray.RegisterFuncN(rt, "echo_raw", "echoes its argument", 1,
		func(c *ray.Context, args [][]byte) ([][]byte, error) {
			return [][]byte{args[0]}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	refs, err := echo.Remote(d, 13)
	if err != nil {
		t.Fatal(err)
	}
	typed := ray.RefAs[int](refs[0])
	got, err := ray.Get(d, typed)
	if err != nil {
		t.Fatal(err)
	}
	if got != 13 {
		t.Fatalf("RefAs round trip = %d, want 13", got)
	}
	if typed.Ref() != refs[0] {
		t.Fatal("Ref() does not expose the raw ID")
	}
	var nilRef ray.ObjectRef[int]
	if !nilRef.IsNil() {
		t.Fatal("zero ObjectRef must be nil")
	}
	if nilRef.Ref() != types.NilObjectID {
		t.Fatal("zero ObjectRef must expose the nil ID")
	}
}

// testCounter is a minimal stateful actor for the round-trip tests: plain
// state, no dispatch code — its methods are declared on the class's method
// table at registration.
type testCounter struct{ value int }

// checkpointCounter is testCounter plus the Checkpointable hooks, for the
// reconstruction-replay test.
type checkpointCounter struct{ value int }

func (c *checkpointCounter) Checkpoint() ([]byte, error) { return codec.Encode(c.value) }
func (c *checkpointCounter) Restore(data []byte) error   { return codec.Decode(data, &c.value) }

// TestTypedMultiReturn covers the Func1R2 pair handles: both outputs come
// back as independent typed futures, registration records arity 2 in the GCS
// function table, and each half chains into further typed calls.
func TestTypedMultiReturn(t *testing.T) {
	rt, d := newTestRuntime(t)
	divmod, err := ray.Register1R2(rt, "divmod7", "quotient and remainder by 7",
		func(ctx *ray.Context, a int) (int, int, error) { return a / 7, a % 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	square, err := ray.Register1(rt, "square_int", "squares an int",
		func(ctx *ray.Context, x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	quotRef, remRef, err := divmod.Remote(d, 45)
	if err != nil {
		t.Fatal(err)
	}
	quot, err := ray.Get(d, quotRef)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := ray.Get(d, remRef)
	if err != nil {
		t.Fatal(err)
	}
	if quot != 6 || rem != 3 {
		t.Fatalf("divmod7(45) = (%d, %d), want (6, 3)", quot, rem)
	}
	// Each half is a first-class future: chain one through another task.
	sq, err := square.RemoteRef(d, remRef)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ray.Get(d, sq); err != nil || got != 9 {
		t.Fatalf("square(rem) = %d, %v; want 9", got, err)
	}
	// Registration recorded the two-object arity.
	entry, ok, err := rt.Cluster().GCS().GetFunction(context.Background(), "divmod7")
	if err != nil || !ok || entry.NumReturns != 2 {
		t.Fatalf("function table: ok=%v err=%v entry=%+v; want NumReturns=2", ok, err, entry)
	}
}

// TestNumReturnsMisuseRejected is the regression test for the silent-arity
// bug: applying NumReturns(n>1) through call options on a single-return typed
// handle used to produce a typed ref to output 0 of an n-output task; it must
// now fail at call time. Pair handles likewise reject a conflicting arity.
func TestNumReturnsMisuseRejected(t *testing.T) {
	rt, d := newTestRuntime(t)
	echo, err := ray.Register1(rt, "echo_int", "echoes an int",
		func(ctx *ray.Context, x int) (int, error) { return x, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echo.Remote(d, 1, ray.NumReturns(2)); err == nil {
		t.Fatal("NumReturns(2) on a Func1 must be rejected at call time")
	}
	// NumReturns(1) stays legal.
	if _, err := echo.Remote(d, 1, ray.NumReturns(1)); err != nil {
		t.Fatalf("NumReturns(1) on a Func1 must stay legal: %v", err)
	}
	pair, err := ray.Register0R2(rt, "pair", "constant pair",
		func(ctx *ray.Context) (int, int, error) { return 1, 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pair.Remote(d, ray.NumReturns(3)); err == nil {
		t.Fatal("NumReturns(3) on a two-return handle must be rejected")
	}
	if _, _, err := pair.Remote(d, ray.NumReturns(2)); err != nil {
		t.Fatalf("NumReturns(2) on a two-return handle must stay legal: %v", err)
	}
	// Typed actor method handles reject it too.
	Counter, addM, _ := registerCounterClass(t, rt)
	counter, err := Counter.New(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := addM.Remote(d, counter, 1, ray.NumReturns(2)); err == nil {
		t.Fatal("NumReturns(2) on a typed method handle must be rejected at call time")
	}
}

// TestCheckpointRestoreThroughMethodTable exercises Checkpointable actors
// registered through the method-table API end to end: checkpoints are taken
// on the configured interval, and after the hosting node is killed the next
// method call transparently reconstructs the actor (restoring the checkpoint
// and replaying only the suffix) with no state loss.
func TestCheckpointRestoreThroughMethodTable(t *testing.T) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 3
	cfg.CheckpointInterval = 5
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	Tally, err := ray.RegisterActorClass0(rt, "CkptTally", "checkpointable tally",
		func(ctx *ray.Context) (*checkpointCounter, error) { return &checkpointCounter{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	bump, err := ray.ActorMethod1(Tally, "bump",
		func(ctx *ray.Context, c *checkpointCounter, by int) (int, error) {
			c.value += by
			return c.value, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	actor, err := Tally.New(d)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < 12; i++ {
		ref, err := bump.Remote(d, actor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if total, err = ray.Get(d, ref); err != nil {
			t.Fatal(err)
		}
	}
	if total != 12 {
		t.Fatalf("total before failure = %d, want 12", total)
	}

	// A checkpoint must exist (interval 5, 12 methods run).
	ctx := context.Background()
	entry, ok, err := rt.Cluster().GCS().GetActor(ctx, actor.Handle().ID)
	if err != nil || !ok {
		t.Fatalf("actor entry: ok=%v err=%v", ok, err)
	}
	if entry.CheckpointCounter == 0 || len(entry.CheckpointData) == 0 {
		t.Fatalf("no checkpoint before failure: %+v", entry)
	}
	if err := rt.Cluster().KillNode(ctx, entry.Node); err != nil {
		t.Fatal(err)
	}
	if d.Node.Dead() {
		// The driver's node hosted the actor; attach a fresh driver and keep
		// using the same handle state.
		if d, err = rt.NewDriver(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The next call reconstructs from the checkpoint and replays the suffix:
	// the restored state must include all 12 bumps.
	ref, err := bump.Remote(d, actor, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ray.Get(d, ref)
	if err != nil {
		t.Fatal(err)
	}
	if after != 13 {
		t.Fatalf("total after reconstruction = %d, want 13", after)
	}
	if rt.Cluster().Stats().ActorsReconstructed == 0 {
		t.Fatal("expected an actor reconstruction")
	}
	newEntry, _, _ := rt.Cluster().GCS().GetActor(ctx, actor.Handle().ID)
	if newEntry == nil || newEntry.Node == entry.Node {
		t.Fatal("actor must have moved to a different node")
	}
}
