package ray

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/types"
	"ray/internal/worker"
)

// tagFn is a remote function returning a fixed tag, for namespace tests.
func tagFn(tag string) func(ctx *Context, args [][]byte) ([][]byte, error) {
	return func(ctx *Context, args [][]byte) ([][]byte, error) {
		return [][]byte{codec.MustEncode(tag)}, nil
	}
}

// getString fetches and decodes a single string future.
func getString(t *testing.T, d *Driver, ref types.ObjectID) string {
	t.Helper()
	var out string
	if err := d.Get(ref, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCrossJobFunctionIsolation: two drivers registering the same function
// name get their own definitions; a driver without its own registration
// falls back to the cluster-wide one.
func TestCrossJobFunctionIsolation(t *testing.T) {
	rt, err := Init(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	if err := rt.RegisterN("dup", "cluster-wide fallback", 1, tagFn("global")); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	dA, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dC, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dA.Job == dB.Job || dA.Job.IsNil() {
		t.Fatalf("drivers share a job: %v vs %v", dA.Job, dB.Job)
	}
	if err := dA.RegisterFunction("dup", "A's dup", 1, tagFn("A")); err != nil {
		t.Fatal(err)
	}
	if err := dB.RegisterFunction("dup", "B's dup", 1, tagFn("B")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		d    *Driver
		want string
	}{{dA, "A"}, {dB, "B"}, {dC, "global"}} {
		ref, err := tc.d.Call1("dup", worker.CallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := getString(t, tc.d, ref); got != tc.want {
			t.Fatalf("driver %v resolved %q, want %q", tc.d.Job, got, tc.want)
		}
	}
	// Nested tasks inherit the job, so A's nested call also resolves A's dup.
	if err := dA.RegisterFunction("nested_dup", "calls dup from inside a task", 1,
		func(ctx *Context, args [][]byte) ([][]byte, error) {
			ref, err := ctx.Call1("dup", worker.CallOptions{})
			if err != nil {
				return nil, err
			}
			var inner string
			if err := ctx.Get(ref, &inner); err != nil {
				return nil, err
			}
			return [][]byte{codec.MustEncode("nested:" + inner)}, nil
		}); err != nil {
		t.Fatal(err)
	}
	ref, err := dA.Call1("nested_dup", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := getString(t, dA, ref); got != "nested:A" {
		t.Fatalf("nested resolution = %q, want nested:A", got)
	}
}

// TestCrossJobActorIsolation: two drivers registering the same actor class
// name instantiate their own classes, dispatched through their own method
// tables.
func TestCrossJobActorIsolation(t *testing.T) {
	rt, err := Init(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	ctx := context.Background()
	dA, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}

	registerStepCounter := func(d *Driver, step int) {
		t.Helper()
		if err := d.RegisterActorClass("Counter", "per-job counter", func(ctx *Context, args [][]byte) (any, error) {
			v := 0
			return &v, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.RegisterActorMethod("Counter", "bump", 0, 1,
			func(ctx *Context, state any, args [][]byte) ([][]byte, error) {
				v := state.(*int)
				*v += step
				return [][]byte{codec.MustEncode(*v)}, nil
			}); err != nil {
			t.Fatal(err)
		}
	}
	registerStepCounter(dA, 1)
	registerStepCounter(dB, 100)

	actorA, err := dA.CreateActor("Counter", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	actorB, err := dB.CreateActor("Counter", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := dA.CallActor1(actorA, "bump", worker.CallOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := dB.CallActor1(actorB, "bump", worker.CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	refA, err := dA.CallActor1(actorA, "bump", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refB, err := dB.CallActor1(actorB, "bump", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	if err := dA.Get(refA, &a); err != nil {
		t.Fatal(err)
	}
	if err := dB.Get(refB, &b); err != nil {
		t.Fatal(err)
	}
	if a != 4 || b != 400 {
		t.Fatalf("counters = (%d, %d), want (4, 400): classes collided across jobs", a, b)
	}
}

// TestJobKillCleansUpAndSparesOthers is the job-exit GC contract: killing
// job A cancels its queued tasks, stops its actors, and releases its
// objects, while job B's objects, actors, and results are untouched.
func TestJobKillCleansUpAndSparesOthers(t *testing.T) {
	cfg := DefaultConfig()
	rt, err := Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerTestWorkload(t, rt)
	if err := rt.RegisterActorClass("KCounter", "counter", func(ctx *Context, args [][]byte) (any, error) {
		v := 0
		return &v, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterActorMethod("KCounter", "bump", 0, 1,
		func(ctx *Context, state any, args [][]byte) ([][]byte, error) {
			v := state.(*int)
			*v++
			return [][]byte{codec.MustEncode(*v)}, nil
		}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	victim, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The victim creates an actor, puts objects, and runs tasks.
	vActor, err := victim.CreateActor("KCounter", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref, err := victim.CallActor1(vActor, "bump", worker.CallOptions{}); err != nil {
		t.Fatal(err)
	} else {
		var v int
		if err := victim.Get(ref, &v); err != nil || v != 1 {
			t.Fatalf("victim actor bump = %d, %v", v, err)
		}
	}
	vPut, err := victim.Put([]byte("victim-data"))
	if err != nil {
		t.Fatal(err)
	}
	vTask, err := victim.Call1("square", worker.CallOptions{}, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	var sq float64
	if err := victim.Get(vTask, &sq); err != nil || sq != 9 {
		t.Fatalf("victim task = %v, %v", sq, err)
	}

	// The survivor does the same kind of work.
	sPut, err := survivor.Put([]byte("survivor-data"))
	if err != nil {
		t.Fatal(err)
	}
	sTask, err := survivor.Call1("square", worker.CallOptions{}, 4.0)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim mid-life.
	report, err := victim.Kill(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.ActorsStopped != 1 {
		t.Fatalf("expected 1 actor stopped, got %+v", report)
	}
	if report.ObjectsReleased == 0 {
		t.Fatalf("expected objects released, got %+v", report)
	}

	// The victim's context is cancelled...
	select {
	case <-victim.Ctx.Done():
	default:
		t.Fatal("victim context not cancelled by Kill")
	}
	// ...its actor is dead in the GCS and refuses new calls...
	entry, ok, err := rt.Cluster().GCS().GetActor(ctx, vActor.ID)
	if err != nil || !ok || entry.State != types.ActorDead {
		t.Fatalf("victim actor entry: %+v ok=%v err=%v, want DEAD", entry, ok, err)
	}
	for _, n := range rt.Cluster().AliveNodes() {
		if n.Workers().HasActor(vActor.ID) {
			t.Fatal("victim actor still hosted after kill")
		}
	}
	// ...and its objects have no replicas left.
	for _, id := range []types.ObjectID{vPut, vTask} {
		oe, ok, err := rt.Cluster().GCS().GetObject(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if ok && len(oe.Locations) > 0 {
			t.Fatalf("victim object %s still has replicas %v", id, oe.Locations)
		}
	}
	// The victim's lineage is not replayable: a surviving consumer of its
	// references observes termination, not resurrection.
	if err := survivor.Get(vTask, &sq); err == nil {
		t.Fatal("getting a killed job's object should fail")
	}

	// The survivor is untouched: its object is present and its task result
	// correct.
	var data []byte
	if err := survivor.Get(sPut, &data); err != nil || string(data) != "survivor-data" {
		t.Fatalf("survivor put after kill: %q, %v", data, err)
	}
	if err := survivor.Get(sTask, &sq); err != nil || sq != 16 {
		t.Fatalf("survivor task after kill: %v, %v", sq, err)
	}
	// And the survivor can keep submitting work.
	after, err := survivor.Call1("square", worker.CallOptions{}, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Get(after, &sq); err != nil || sq != 25 {
		t.Fatalf("survivor new task after kill: %v, %v", sq, err)
	}
}

// jobEntries counts the committed object entries and normal-task entries
// that belong to job, reading every shard's tail.
func jobEntries(t *testing.T, rt *Runtime, job types.JobID) (objects, tasks int) {
	t.Helper()
	ctx, g := context.Background(), rt.Cluster().GCS()
	if err := g.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumShards(); i++ {
		reps := g.Shard(i).Replicas()
		tail := reps[len(reps)-1].Store()
		for _, key := range tail.Keys("obj/") {
			entry, ok, err := g.GetObject(ctx, types.ObjectID([]byte(key[len("obj/"):])))
			if err != nil {
				t.Fatal(err)
			}
			if ok && entry.Job == job {
				objects++
			}
		}
		for _, key := range tail.Keys("task/") {
			entry, ok, err := g.GetTask(ctx, types.TaskID([]byte(key[len("task/"):])))
			if err != nil {
				t.Fatal(err)
			}
			if ok && entry.Spec.Job == job && !entry.Spec.IsActorTask() {
				tasks++
			}
		}
	}
	return objects, tasks
}

// TestJobKillLeavesNoEntryOfTheJob: job exit deletes every object entry and
// every normal-task entry of the job — those of references its driver never
// freed and of a task still running at the kill included, whose completion
// after the kill must not fail — and leaves another job's entries as they
// were.
func TestJobKillLeavesNoEntryOfTheJob(t *testing.T) {
	rt, err := Init(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerTestWorkload(t, rt)
	started, gate := make(chan struct{}, 1), make(chan struct{})
	if err := rt.RegisterN("gated", "returns once released", 1, func(*Context, [][]byte) ([][]byte, error) {
		started <- struct{}{}
		<-gate
		return [][]byte{codec.MustEncode(1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	work := func(d *Driver) []types.ObjectID {
		t.Helper()
		p, err := d.Put(2.0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.Call1("add", worker.CallOptions{}, p, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Call1("square", worker.CallOptions{}, a)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Get(d, RefAs[float64](b)); err != nil || got != 9 {
			t.Fatalf("square(add(2, 1)) = %v, %v", got, err)
		}
		return []types.ObjectID{p, a, b}
	}
	victim, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	work(victim)
	if _, err := victim.Call1("gated", worker.CallOptions{}); err != nil {
		t.Fatal(err)
	}
	<-started
	kept := work(survivor)
	sObjects, sTasks := jobEntries(t, rt, survivor.Job)
	if sObjects != len(kept) || sTasks != 2 {
		t.Fatalf("survivor holds %d object and %d task entries, want %d and 2", sObjects, sTasks, len(kept))
	}

	if _, err := victim.Kill(ctx); err != nil {
		t.Fatal(err)
	}
	close(gate) // the running task finishes after its job's cleanup
	deadline := time.Now().Add(5 * time.Second)
	for {
		var queued int
		for _, n := range rt.Cluster().NodeList() {
			queued += n.Stats().Scheduler.Queued
		}
		objects, tasks := jobEntries(t, rt, victim.Job)
		if queued == 0 && objects == 0 && tasks == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed job left %d object and %d normal-task entries (%d tasks queued)", objects, tasks, queued)
		}
		time.Sleep(time.Millisecond)
	}
	for _, n := range rt.Cluster().NodeList() {
		if st := n.Stats().Scheduler; st.FailSinkErrors != 0 {
			t.Fatalf("%d task completions failed after their job's cleanup", st.FailSinkErrors)
		}
	}
	if objects, tasks := jobEntries(t, rt, survivor.Job); objects != sObjects || tasks != sTasks {
		t.Fatalf("survivor's entries went from %d objects, %d tasks to %d, %d", sObjects, sTasks, objects, tasks)
	}
	var sq float64
	if err := survivor.Get(kept[2], &sq); err != nil || sq != 9 {
		t.Fatalf("survivor result after the kill: %v, %v", sq, err)
	}
}

// TestJobFinishDurableAndIdempotent: Finish reports cleanup once, is durable
// (job table terminal on the chain), and a second Finish/Kill is a no-op.
func TestJobFinishDurableAndIdempotent(t *testing.T) {
	rt, err := Init(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	ctx := context.Background()
	d, err := rt.NewDriver(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := rt.Cluster().GCS().GetJob(ctx, d.Job)
	if err != nil || !ok || entry.State != types.JobFinished {
		t.Fatalf("job entry after Finish: %+v ok=%v err=%v", entry, ok, err)
	}
	if _, err := d.Kill(ctx); err != nil {
		t.Fatal(err)
	}
	entry, _, _ = rt.Cluster().GCS().GetJob(ctx, d.Job)
	if entry.State != types.JobFinished {
		t.Fatalf("terminal state flipped to %v", entry.State)
	}
}

// TestLineageReplayScopedToJob: after a node failure that loses both jobs'
// objects, reconstructing job A's object replays only job A's tasks, and a
// killed job's lineage is refused outright.
func TestLineageReplayScopedToJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	rt, err := Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerTestWorkload(t, rt)

	ctx := context.Background()
	nodes := rt.Cluster().AliveNodes()
	victimNode := nodes[2]
	// Both producer drivers attach to the victim node: their tasks run there
	// bottom-up, so the produced objects' only replicas live on that node.
	prodA, err := rt.NewDriverOn(ctx, victimNode)
	if err != nil {
		t.Fatal(err)
	}
	prodB, err := rt.NewDriverOn(ctx, victimNode)
	if err != nil {
		t.Fatal(err)
	}
	// The consumer lives elsewhere and survives the failure.
	consumer, err := rt.NewDriverOn(ctx, nodes[0])
	if err != nil {
		t.Fatal(err)
	}

	refA, err := prodA.Call1("square", worker.CallOptions{}, 6.0)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := prodB.Call1("square", worker.CallOptions{}, 7.0)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for both to exist without pulling replicas anywhere else.
	if _, _, err := prodA.Wait([]types.ObjectID{refA}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prodB.Wait([]types.ObjectID{refB}, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Kill the node: both objects lose their only replica.
	if err := rt.Cluster().KillNode(ctx, victimNode.ID()); err != nil {
		t.Fatal(err)
	}

	// Fetching job A's object reconstructs it; job B asks for nothing, so
	// nothing of job B's may replay.
	var got float64
	if err := consumer.Get(refA, &got); err != nil || got != 36 {
		t.Fatalf("A's reconstructed object = %v, %v", got, err)
	}
	var replayedA, replayedB int64
	for _, n := range rt.Cluster().NodeList() {
		replayedA += n.Reconstructor().ReconstructedTasksForJob(prodA.Job)
		replayedB += n.Reconstructor().ReconstructedTasksForJob(prodB.Job)
	}
	if replayedA == 0 {
		t.Fatal("A's lineage was not replayed")
	}
	if replayedB != 0 {
		t.Fatalf("reconstruction for job A replayed %d of job B's tasks", replayedB)
	}

	// Kill job B, then ask for its lost object: reconstruction must refuse
	// to replay a terminated job's lineage.
	if _, err := prodB.Kill(ctx); err != nil {
		t.Fatal(err)
	}
	var ignored float64
	if err := consumer.Get(refB, &ignored); err == nil {
		t.Fatal("killed job's lineage must not be replayed")
	} else if !errors.Is(err, types.ErrJobTerminated) {
		t.Logf("note: refusal surfaced as %v", err)
	}
}

// TestJobLifecycleConcurrentDrivers is the race-enabled job-lifecycle test:
// many drivers attach, register their own (identically named) functions, run
// tasks, and detach concurrently. Every driver must see only its own
// definition and every job must end finished.
func TestJobLifecycleConcurrentDrivers(t *testing.T) {
	rt, err := Init(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	ctx := context.Background()

	const drivers = 12
	var wg sync.WaitGroup
	errs := make(chan error, drivers)
	for i := 0; i < drivers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := rt.NewDriverWithOptions(ctx, rt.Cluster().HeadNode(), JobOptions{
				Name:   fmt.Sprintf("driver-%d", i),
				Weight: 1 + i%3,
			})
			if err != nil {
				errs <- err
				return
			}
			tag := fmt.Sprintf("tag-%d", i)
			if err := d.RegisterFunction("who", "per-driver identity", 1, tagFn(tag)); err != nil {
				errs <- err
				return
			}
			for round := 0; round < 5; round++ {
				ref, err := d.Call1("who", worker.CallOptions{})
				if err != nil {
					errs <- err
					return
				}
				var got string
				if err := d.Get(ref, &got); err != nil {
					errs <- err
					return
				}
				if got != tag {
					errs <- fmt.Errorf("driver %d resolved %q, want %q", i, got, tag)
					return
				}
			}
			if _, err := d.Finish(ctx); err != nil {
				errs <- err
				return
			}
			// The job context must be dead once Finish returns.
			select {
			case <-d.Ctx.Done():
			case <-time.After(time.Second):
				errs <- fmt.Errorf("driver %d context alive after Finish", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	jobs, err := rt.Cluster().GCS().Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	for _, j := range jobs {
		if j.State == types.JobFinished {
			finished++
		}
	}
	if finished < drivers {
		t.Fatalf("only %d of %d jobs finished", finished, drivers)
	}
}
