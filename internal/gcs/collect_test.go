package gcs

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ray/internal/chain"
	"ray/internal/netsim"
	"ray/internal/task"
	"ray/internal/types"
)

// A delete is readable at once: the tombstone in the pending overlay reads
// as absent while the chain still holds the committed value, and the next
// commit deletes it there too.
func TestTombstoneReadsAbsentThroughOverlay(t *testing.T) {
	s := slowBatchStore()
	defer s.Close()
	ctx := context.Background()
	id, job := types.NewObjectID(), types.NewJobID()
	if err := s.AddObjectLocation(ctx, id, types.NewNodeID(), 1, types.NilTaskID, job); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteObject(ctx, id, job); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetObject(ctx, id); err != nil || ok {
		t.Fatalf("deleted entry still reads through the overlay: ok=%v err=%v", ok, err)
	}
	if got := s.Entries(); got != 1 {
		t.Fatalf("the chain holds %d entries before the delete commits, want 1", got)
	}
	if got := s.ObjectsForJob(job); len(got) != 0 {
		t.Fatalf("the job still owns %v", got)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Entries(); got != 0 {
		t.Fatalf("%d chain entries after the delete committed, want 0", got)
	}
}

// A delete that lands while the key's previous write is mid-commit must not
// be dropped when that commit lands: the overlay keeps the tombstone (it is
// newer than what was committed) and the next flush deletes the key.
func TestDeleteLandingMidCommit(t *testing.T) {
	ctx := context.Background()
	net := netsim.New(netsim.Config{LatencyPerMessage: 20 * time.Millisecond, TimeScale: 1, MaxParallelStreams: 1})
	ch := chain.New(chain.Config{ReplicationFactor: 2, Network: net})
	b := newShardBatcher(ch, time.Hour, 1<<20, nil)
	defer b.close()

	b.enqueue("k", []byte("v"), false)
	flushed := make(chan error, 1)
	go func() { flushed <- b.flush(ctx) }()
	for {
		b.mu.Lock()
		inFlight := !b.pending["k"].queued
		b.mu.Unlock()
		if inFlight {
			break
		}
		runtime.Gosched()
	}
	b.enqueue("k", nil, true)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if v, ok, err := ch.Get(ctx, "k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("the in-flight commit should land the put: %q ok=%v err=%v", v, ok, err)
	}
	if _, present, pending := b.lookup("k"); present || !pending {
		t.Fatalf("tombstone lost when the older commit landed: present=%v pending=%v", present, pending)
	}
	if err := b.flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ch.Get(ctx, "k"); err != nil || ok {
		t.Fatalf("the key survived its delete's commit: ok=%v err=%v", ok, err)
	}
	if _, _, pending := b.lookup("k"); pending {
		t.Fatal("a committed tombstone stayed in the overlay")
	}
}

// A flush that fails re-queues its tombstones like any write: the entry keeps
// reading as absent, and the next flush deletes it from the chain.
func TestFailedFlushRequeuesTombstone(t *testing.T) {
	s := slowBatchStore()
	defer s.Close()
	ctx := context.Background()
	spec := &task.Spec{ID: types.NewTaskID(), Function: "f", NumReturns: 1}
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	ref := idRef(s, spec.ID, taskKey(spec.ID))
	if err := s.remove(ctx, ref, nil); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := s.batchers[ref.shard].flush(cancelled); err == nil {
		t.Fatal("a flush under a cancelled context should fail")
	}
	if _, ok, err := s.GetTask(ctx, spec.ID); err != nil || ok {
		t.Fatalf("a failed flush resurrected the deleted entry: ok=%v err=%v", ok, err)
	}
	if got := s.Entries(); got != 1 {
		t.Fatalf("%d chain entries after the failed flush, want 1", got)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Entries(); got != 0 {
		t.Fatalf("%d chain entries after the retried delete, want 0", got)
	}
}

// The batched store and the synchronous reference agree on every read and
// on the committed chain state through a run of puts, read-modify-writes and
// deletes, a key deleted and written again included.
func TestBatchedAndSyncStoresAgreeOnDeletes(t *testing.T) {
	ctx := context.Background()
	objs := []types.ObjectID{types.NewObjectID(), types.NewObjectID()}
	specs := []*task.Spec{
		{ID: types.NewTaskID(), Function: "f", NumReturns: 1},
		{ID: types.NewTaskID(), Function: "g", NumReturns: 1},
	}
	node, job := types.NewNodeID(), types.NewJobID()
	type state struct {
		Objects, Tasks []bool
		Locations      int
		Entries        int
	}
	run := func(sync bool) state {
		s := New(Config{Shards: 2, ReplicationFactor: 2, SyncWrites: sync, BatchFlushInterval: time.Hour})
		defer s.Close()
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range objs {
			must(s.AddObjectLocation(ctx, id, node, 1, types.NilTaskID, job))
		}
		for _, spec := range specs {
			must(s.AddTask(ctx, spec))
		}
		must(s.DeleteObject(ctx, objs[0], job))
		must(s.remove(ctx, idRef(s, specs[0].ID, taskKey(specs[0].ID)), nil))
		must(s.DeleteObject(ctx, objs[1], job))
		must(s.AddObjectLocation(ctx, objs[1], node, 2, types.NilTaskID, job))
		must(s.UpdateTaskStatus(ctx, specs[1].ID, types.TaskFinished, node))
		must(s.Sync(ctx))
		var st state
		for _, id := range objs {
			e, ok, err := s.GetObject(ctx, id)
			must(err)
			st.Objects = append(st.Objects, ok)
			if ok {
				st.Locations += len(e.Locations)
			}
		}
		for _, spec := range specs {
			_, ok, err := s.GetTask(ctx, spec.ID)
			must(err)
			st.Tasks = append(st.Tasks, ok)
		}
		st.Entries = s.Entries()
		return st
	}
	batched, reference := run(false), run(true)
	if !reflect.DeepEqual(batched, reference) {
		t.Fatalf("batched store %+v, synchronous store %+v", batched, reference)
	}
	if want := (state{Objects: []bool{false, true}, Tasks: []bool{false, true}, Locations: 1, Entries: 2}); !reflect.DeepEqual(reference, want) {
		t.Fatalf("stores agree on %+v, want %+v", reference, want)
	}
}

// deleteUnreachable installs a reclaimer that does what the cluster's does
// to a GCS with no stores: it deletes the entry of every object nothing can
// reach.
func deleteUnreachable(t *testing.T, s *Store) {
	s.SetReclaimer(func(ctx context.Context, id types.ObjectID, unreachable bool) {
		if !unreachable {
			return
		}
		entry, ok, err := s.GetObject(ctx, id)
		if err == nil && ok {
			err = s.DeleteObject(ctx, id, entry.Job)
		}
		if err != nil {
			t.Errorf("reclaim %s: %v", id, err)
		}
	})
}

// Collection is what bounds the GCS's memory while tasks stream: each
// task's entry and its return's entry go once the return is freed, so peak
// resident bytes stay under a constant however many tasks run, and nothing
// is left once the last write commits. A reclaimer that skipped DeleteObject
// would leave every object entry resident, several times the bound.
func TestCollectionBoundsMemory(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		deleteUnreachable(t, s)
		ctx := context.Background()
		node, job := types.NewNodeID(), types.NewJobID()
		const tasks, bound = 3000, 16 << 10
		var peak int64
		for i := 0; i < tasks; i++ {
			spec := &task.Spec{ID: types.NewTaskID(), Job: job, Function: "noop", NumReturns: 1}
			ret := types.ReturnObjectID(spec.ID, 0)
			s.TrackTask(spec, true)
			if err := s.AddTask(ctx, spec); err != nil {
				t.Fatal(err)
			}
			if err := s.AddObjectLocation(ctx, ret, node, 1, spec.ID, job); err != nil {
				t.Fatal(err)
			}
			if err := s.CompleteTask(ctx, spec, types.TaskFinished, node, true); err != nil {
				t.Fatal(err)
			}
			s.DecObjectRefs(ctx, ret)
			peak = max(peak, s.Bytes())
		}
		if peak > bound {
			t.Fatalf("peak resident %d bytes over %d tasks, want at most %d", peak, tasks, bound)
		}
		if err := s.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		if got := s.Entries(); got != 0 {
			t.Fatalf("%d entries after every return was freed, want 0", got)
		}
	})
}

// A return freed after it is stored but before its task's status write is
// collected at once, but the task's entry waits for that write: deleting it
// first would make the write fail.
func TestReturnFreedBeforeStatusWriteKeepsEntry(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		deleteUnreachable(t, s)
		ctx := context.Background()
		node, job := types.NewNodeID(), types.NewJobID()
		spec := &task.Spec{ID: types.NewTaskID(), Job: job, Function: "f", NumReturns: 1}
		ret := types.ReturnObjectID(spec.ID, 0)
		s.TrackTask(spec, true)
		if err := s.AddTask(ctx, spec); err != nil {
			t.Fatal(err)
		}
		// The worker stores the return (and so publishes it), and the
		// submitter frees it before the worker writes the status.
		if err := s.AddObjectLocation(ctx, ret, node, 1, spec.ID, job); err != nil {
			t.Fatal(err)
		}
		s.DecObjectRefs(ctx, ret)
		if _, ok, _ := s.GetObject(ctx, ret); ok {
			t.Fatal("the freed return's entry outlived its last reference")
		}
		if _, ok, _ := s.GetTask(ctx, spec.ID); !ok {
			t.Fatal("the task's entry went before its final status was written")
		}
		if err := s.CompleteTask(ctx, spec, types.TaskFinished, node, true); err != nil {
			t.Fatalf("status write after the free: %v", err)
		}
		if _, ok, _ := s.GetTask(ctx, spec.ID); ok {
			t.Fatal("the task's entry outlived its completion and its last return")
		}
		if s.ObjectTracked(ret) {
			t.Fatal("the ledger still tracks the freed return")
		}
	})
}

// Freeing the tip of a long lineage chain retires the whole chain in one
// iterative cascade: while the tip is referenced every upstream entry stays
// (pinned by the entry downstream of it, for replay); once it goes, every
// task and object entry goes.
func TestLineageCascadeRetiresChain(t *testing.T) {
	s := New(Config{Shards: 4, ReplicationFactor: 2})
	defer s.Close()
	deleteUnreachable(t, s)
	ctx := context.Background()
	node, job := types.NewNodeID(), types.NewJobID()
	const depth = 5000
	var prev types.ObjectID
	var outs []types.ObjectID
	for i := 0; i < depth; i++ {
		spec := &task.Spec{ID: types.NewTaskID(), Job: job, Function: "f", NumReturns: 1}
		if i > 0 {
			spec.Args = []task.Arg{task.RefArg(prev)}
		}
		s.TrackTask(spec, true)
		if err := s.AddTask(ctx, spec); err != nil {
			t.Fatal(err)
		}
		prev = types.ReturnObjectID(spec.ID, 0)
		if err := s.AddObjectLocation(ctx, prev, node, 1, spec.ID, job); err != nil {
			t.Fatal(err)
		}
		if err := s.CompleteTask(ctx, spec, types.TaskFinished, node, true); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, prev)
	}
	s.DecObjectRefs(ctx, outs[:depth-1]...)
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Entries(); got != 2*depth {
		t.Fatalf("%d entries while the tip is referenced, want %d: pinned lineage must stay", got, 2*depth)
	}
	s.DecObjectRefs(ctx, outs[depth-1])
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Entries(); got != 0 {
		t.Fatalf("%d entries after the tip was freed, want 0", got)
	}
	if got := s.ObjectsForJob(job); len(got) != 0 {
		t.Fatalf("the job still owns %d objects", len(got))
	}
}

// A submission that fails after TrackTask and AddTask takes everything back:
// its entry is deleted and its argument is left with exactly the reference
// it had, and no pin, so freeing that reference collects the argument.
func TestUntrackTaskTakesBackEverything(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 2})
	defer s.Close()
	deleteUnreachable(t, s)
	ctx := context.Background()
	node, job := types.NewNodeID(), types.NewJobID()
	arg := types.NewObjectID()
	s.IncObjectRefs(1, arg)
	if err := s.AddObjectLocation(ctx, arg, node, 1, types.NilTaskID, job); err != nil {
		t.Fatal(err)
	}
	spec := &task.Spec{ID: types.NewTaskID(), Job: job, Function: "f", NumReturns: 2, Args: []task.Arg{task.RefArg(arg)}}
	s.TrackTask(spec, true)
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	s.UntrackTask(ctx, spec)
	if _, ok, _ := s.GetTask(ctx, spec.ID); ok {
		t.Fatal("the failed submission's entry stayed")
	}
	if got := s.ObjectRefCount(arg); got != 1 {
		t.Fatalf("argument holds %d references after the untrack, want 1", got)
	}
	s.DecObjectRefs(ctx, arg)
	if _, ok, _ := s.GetObject(ctx, arg); ok || s.ObjectTracked(arg) {
		t.Fatal("the argument outlived its last reference: the failed submission still pins it")
	}
}

// Job exit reads only the exiting job's own entries, found through the
// ownership index: another job's live state, however large, costs it no read
// and is left as it was.
func TestJobExitReadsOnlyItsOwnEntries(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 2})
	defer s.Close()
	deleteUnreachable(t, s)
	ctx := context.Background()
	node, live, exiting := types.NewNodeID(), types.NewJobID(), types.NewJobID()
	// run submits n tasks of job and finishes them; the submitter keeps its
	// reference on every return, so every entry stays live.
	run := func(job types.JobID, n int) []types.ObjectID {
		var outs []types.ObjectID
		for i := 0; i < n; i++ {
			spec := &task.Spec{ID: types.NewTaskID(), Job: job, Function: "f", NumReturns: 1}
			s.TrackTask(spec, true)
			if err := s.AddTask(ctx, spec); err != nil {
				t.Fatal(err)
			}
			out := types.ReturnObjectID(spec.ID, 0)
			if err := s.AddObjectLocation(ctx, out, node, 1, spec.ID, job); err != nil {
				t.Fatal(err)
			}
			if err := s.CompleteTask(ctx, spec, types.TaskFinished, node, true); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs
	}
	const liveTasks, exitingTasks = 1000, 3
	liveOuts := run(live, liveTasks)
	run(exiting, exitingTasks)

	gets := s.Stats().Gets
	owned := s.ObjectsForJob(exiting)
	for _, id := range owned {
		entry, ok, err := s.GetObject(ctx, id)
		if err != nil || !ok {
			t.Fatalf("indexed object %s: ok=%v err=%v", id, ok, err)
		}
		if err := s.DeleteObject(ctx, id, entry.Job); err != nil {
			t.Fatal(err)
		}
	}
	s.ForgetJob(ctx, exiting, owned)
	if got := s.Stats().Gets - gets; len(owned) != exitingTasks || got != exitingTasks {
		t.Fatalf("job exit found %d objects with %d reads, want %d with one read each", len(owned), got, exitingTasks)
	}

	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Entries(); got != 2*liveTasks {
		t.Fatalf("%d entries after the job exit, want the live job's %d", got, 2*liveTasks)
	}
	if got := len(s.ObjectsForJob(live)); got != liveTasks {
		t.Fatalf("the live job owns %d objects after another job's exit, want %d", got, liveTasks)
	}
	if got := s.ObjectRefCount(liveOuts[0]); got != 1 {
		t.Fatalf("a live object holds %d references after another job's exit, want 1", got)
	}
	// The live job's state still collects as usual.
	s.DecObjectRefs(ctx, liveOuts...)
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got, owned := s.Entries(), s.ObjectsForJob(live); got != 0 || len(owned) != 0 {
		t.Fatalf("%d entries and %d indexed objects after the live job freed everything, want none", got, len(owned))
	}
}

// A task run without lineage has no entry, but its completion still collects
// a return freed before it was stored.
func TestFinishTaskWithoutLineageCollectsFreedReturn(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 2})
	defer s.Close()
	deleteUnreachable(t, s)
	ctx := context.Background()
	node, job := types.NewNodeID(), types.NewJobID()
	spec := &task.Spec{ID: types.NewTaskID(), Job: job, Function: "f", NumReturns: 1}
	ret := types.ReturnObjectID(spec.ID, 0)
	s.TrackTask(spec, false)
	s.DecObjectRefs(ctx, ret)
	if err := s.AddObjectLocation(ctx, ret, node, 1, spec.ID, job); err != nil {
		t.Fatal(err)
	}
	s.FinishTask(ctx, spec, true)
	if _, ok, _ := s.GetObject(ctx, ret); ok {
		t.Fatal("the freed return's entry outlived its task's completion")
	}
	if got := s.ObjectsForJob(job); len(got) != 0 {
		t.Fatalf("the job still owns %v", got)
	}
}
