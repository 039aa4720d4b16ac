package gcs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/testutil/roundtrip"
	"ray/internal/types"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := New(Config{Shards: 4, ReplicationFactor: 2})
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestObjectTable(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	obj := types.NewObjectID()
	n1, n2 := types.NewNodeID(), types.NewNodeID()
	creator := types.NewTaskID()

	if _, ok, err := s.GetObject(ctx, obj); err != nil || ok {
		t.Fatalf("object should not exist yet: %v %v", ok, err)
	}
	if err := s.AddObjectLocation(ctx, obj, n1, 1024, creator, types.NilJobID); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObjectLocation(ctx, obj, n2, 0, types.NilTaskID, types.NilJobID); err != nil {
		t.Fatal(err)
	}
	// Adding the same location twice must not duplicate it.
	if err := s.AddObjectLocation(ctx, obj, n1, 1024, creator, types.NilJobID); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := s.GetObject(ctx, obj)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(entry.Locations) != 2 || !entry.HasLocation(n1) || !entry.HasLocation(n2) {
		t.Fatalf("locations wrong: %v", entry.Locations)
	}
	if entry.Size != 1024 || entry.Creator != creator {
		t.Fatalf("size/creator wrong: %+v", entry)
	}
	if err := s.RemoveObjectLocation(ctx, obj, n1); err != nil {
		t.Fatal(err)
	}
	entry, _, _ = s.GetObject(ctx, obj)
	if len(entry.Locations) != 1 || entry.HasLocation(n1) {
		t.Fatalf("location not removed: %v", entry.Locations)
	}
	// Removing a location of an unknown object is a no-op.
	if err := s.RemoveObjectLocation(ctx, types.NewObjectID(), n1); err != nil {
		t.Fatal(err)
	}
}

func TestObjectSubscription(t *testing.T) {
	// The three ways a write becomes readable: the batching overlay, the
	// synchronous chain write, and the chain write a closed batcher falls
	// back to. One channel watches two objects, as ray.wait does.
	for name, open := range map[string]func() *Store{
		"batched": func() *Store { return New(Config{Shards: 4, ReplicationFactor: 2}) },
		"sync":    func() *Store { return New(Config{Shards: 4, ReplicationFactor: 2, SyncWrites: true}) },
		"closed": func() *Store {
			s := New(Config{Shards: 4, ReplicationFactor: 2})
			_ = s.Close()
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := open()
			defer s.Close()
			ctx := context.Background()
			objs := []types.ObjectID{types.NewObjectID(), types.NewObjectID()}
			ch, cancel := s.SubscribeObject(objs...)
			defer cancel()
			if s.SubscriberCount() != 2 {
				t.Fatalf("subscriber count %d", s.SubscriberCount())
			}
			node := types.NewNodeID()
			for _, obj := range objs {
				if err := s.AddObjectLocation(ctx, obj, node, 64, types.NilTaskID, types.NilJobID); err != nil {
					t.Fatal(err)
				}
				select {
				case <-ch:
					// The signal carries nothing: the subscriber re-reads.
					entry, ok, err := s.GetObject(ctx, obj)
					if err != nil || !ok || !entry.HasLocation(node) || entry.Size != 64 {
						t.Fatalf("re-read after the signal: %+v ok=%v err=%v", entry, ok, err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("no notification received")
				}
			}
			// The subscription kept its own copy of the ids: what the caller
			// does to its slice meanwhile does not strand a registration.
			objs[1] = types.NewObjectID()
			cancel()
			if s.SubscriberCount() != 0 {
				t.Fatal("cancel must remove the subscription")
			}
			// Double cancel must be safe, and a write after it signals nobody.
			cancel()
			if err := s.AddObjectLocation(ctx, objs[0], types.NewNodeID(), 64, types.NilTaskID, types.NilJobID); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ch:
				t.Fatal("signalled after cancel")
			default:
			}
		})
	}
}

func TestSubscriptionOnlyMatchingKey(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	obj, other := types.NewObjectID(), types.NewObjectID()
	ch, cancel := s.SubscribeObject(obj)
	defer cancel()
	if err := s.AddObjectLocation(ctx, other, types.NewNodeID(), 1, types.NilTaskID, types.NilJobID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("unexpected notification for unrelated object")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestTaskTable(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	spec := &task.Spec{
		ID:         types.NewTaskID(),
		Driver:     types.NewDriverID(),
		Function:   "rollout",
		NumReturns: 1,
		Args:       []task.Arg{task.RefArg(types.NewObjectID())},
		Resources:  resources.CPUs(1),
	}
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := s.GetTask(ctx, spec.ID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if entry.Status != types.TaskPending || entry.Spec.Function != "rollout" {
		t.Fatalf("entry wrong: %+v", entry)
	}
	node := types.NewNodeID()
	if err := s.UpdateTaskStatus(ctx, spec.ID, types.TaskRunning, node); err != nil {
		t.Fatal(err)
	}
	entry, _, _ = s.GetTask(ctx, spec.ID)
	if entry.Status != types.TaskRunning || entry.Node != node {
		t.Fatalf("status update lost: %+v", entry)
	}
	// Updating an unknown task is an error.
	if err := s.UpdateTaskStatus(ctx, types.NewTaskID(), types.TaskRunning, node); err == nil {
		t.Fatal("expected error for unknown task")
	}
	if _, ok, _ := s.GetTask(ctx, types.NewTaskID()); ok {
		t.Fatal("unknown task reported present")
	}
}

func TestActorTable(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	actor := types.NewActorID()
	entry := &ActorEntry{
		State:           types.ActorAlive,
		Node:            types.NewNodeID(),
		CreationTask:    types.NewTaskID(),
		ExecutedCounter: 7,
	}
	if err := s.PutActor(ctx, actor, entry); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetActor(ctx, actor)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got.State != types.ActorAlive || got.ExecutedCounter != 7 || got.Node != entry.Node || got.CreationTask != entry.CreationTask {
		t.Fatalf("actor entry wrong: %+v", got)
	}
	got.State = types.ActorReconstructing
	got.CheckpointData = []byte("checkpoint-state")
	got.CheckpointCounter = 5
	got.LastTask = types.NewTaskID()
	if err := s.PutActor(ctx, actor, got); err != nil {
		t.Fatal(err)
	}
	again, _, _ := s.GetActor(ctx, actor)
	if again.State != types.ActorReconstructing || again.CheckpointCounter != 5 ||
		string(again.CheckpointData) != "checkpoint-state" || again.LastTask != got.LastTask {
		t.Fatalf("actor update lost: %+v", again)
	}
	if _, ok, _ := s.GetActor(ctx, types.NewActorID()); ok {
		t.Fatal("unknown actor reported present")
	}
}

func TestFunctionTable(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	if err := s.RegisterFunction(ctx, &FunctionEntry{Name: "add", Doc: "adds two values", NumReturns: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFunction(ctx, &FunctionEntry{Name: "Simulator", IsActorClass: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterFunction(ctx, &FunctionEntry{Name: ""}); err == nil {
		t.Fatal("empty function name must be rejected")
	}
	fn, ok, err := s.GetFunction(ctx, "add")
	if err != nil || !ok || fn.Doc != "adds two values" || fn.IsActorClass {
		t.Fatalf("function entry wrong: %+v", fn)
	}
	cls, ok, _ := s.GetFunction(ctx, "Simulator")
	if !ok || !cls.IsActorClass {
		t.Fatal("actor class entry wrong")
	}
	if _, ok, _ := s.GetFunction(ctx, "missing"); ok {
		t.Fatal("missing function reported present")
	}
	// Actor method tables round-trip: per-method arity and return counts are
	// part of the class entry.
	if err := s.RegisterFunction(ctx, &FunctionEntry{
		Name: "Counter", IsActorClass: true,
		Methods: []MethodInfo{
			{Name: "add", NumArgs: 1, NumReturns: 1},
			{Name: "split", NumArgs: 2, NumReturns: 2},
		},
	}); err != nil {
		t.Fatal(err)
	}
	counter, ok, err := s.GetFunction(ctx, "Counter")
	if err != nil || !ok || len(counter.Methods) != 2 {
		t.Fatalf("method table lost: %+v (ok=%v err=%v)", counter, ok, err)
	}
	if m := counter.Methods[1]; m.Name != "split" || m.NumArgs != 2 || m.NumReturns != 2 {
		t.Fatalf("method info wrong: %+v", m)
	}
}

func TestNodeTableAndHeartbeats(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	var ids []types.NodeID
	for i := 0; i < 5; i++ {
		id := types.NewNodeID()
		ids = append(ids, id)
		err := s.RegisterNode(ctx, &NodeEntry{
			ID:                 id,
			State:              types.NodeAlive,
			TotalResources:     map[string]float64{"CPU": 8},
			AvailableResources: map[string]float64{"CPU": 8},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := s.Nodes(ctx)
	if err != nil || len(nodes) != 5 {
		t.Fatalf("nodes: %d %v", len(nodes), err)
	}
	// A heartbeat updates load info, including object-store occupancy.
	err = s.HeartbeatBatch(ctx, []HeartbeatUpdate{{
		ID: ids[0], Available: map[string]float64{"CPU": 3}, QueueLength: 12,
		AvgTaskMillis: 4.5, MemoryUsed: 800, MemoryCapacity: 1000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	n0, ok, _ := s.GetNode(ctx, ids[0])
	if !ok || n0.AvailableResources["CPU"] != 3 || n0.QueueLength != 12 || n0.AvgTaskMillis != 4.5 {
		t.Fatalf("heartbeat lost: %+v", n0)
	}
	if n0.MemoryUsed != 800 || n0.MemoryCapacity != 1000 || n0.MemoryPressure() != 0.8 {
		t.Fatalf("memory occupancy lost: %+v", n0)
	}
	if n0.HeartbeatAge(time.Now()) > time.Minute {
		t.Fatal("heartbeat age implausible")
	}
	stranger := types.NewNodeID()
	if err := s.HeartbeatBatch(ctx, []HeartbeatUpdate{{ID: stranger}}); err != nil {
		t.Fatalf("heartbeat from unregistered node: %v", err)
	}
	if _, ok, _ := s.GetNode(ctx, stranger); ok {
		t.Fatal("heartbeat from unregistered node registered it")
	}
	// Mark one dead.
	if err := s.MarkNodeDead(ctx, ids[1]); err != nil {
		t.Fatal(err)
	}
	alive, err := s.AliveNodes(ctx)
	if err != nil || len(alive) != 4 {
		t.Fatalf("alive nodes: %d %v", len(alive), err)
	}
	for _, n := range alive {
		if n.ID == ids[1] {
			t.Fatal("dead node listed as alive")
		}
	}
	if err := s.MarkNodeDead(ctx, types.NewNodeID()); err == nil {
		t.Fatal("marking unknown node dead must fail")
	}
}

// Events and task spans share one log: Spans returns both in append order,
// each event an instant of PhaseEvent naming its subject in the field that
// fits it.
func TestSpanLog(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	node, job := types.NewNodeID(), types.NewJobID()
	for i := 0; i < 10; i++ {
		if err := s.AppendSpans(ctx, []telemetry.Span{{Phase: telemetry.PhaseExec, Task: fmt.Sprint("task ", i), DurationNanos: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, subject := range []any{node, job, "actor:1"} {
		if err := s.AppendEvent(ctx, "test", subject); err != nil {
			t.Fatal(err)
		}
	}
	spans, err := s.Spans(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 13 {
		t.Fatalf("expected 13 spans, got %d", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Seq <= spans[i-1].Seq {
			t.Fatal("spans not ordered by sequence")
		}
	}
	want := []telemetry.Span{{Node: node.String()}, {Job: job.String()}, {Task: "actor:1"}}
	for i, e := range spans[10:] {
		if e.Phase != telemetry.PhaseEvent || e.Name != "test" || e.StartUnixNano == 0 || e.DurationNanos != 0 ||
			e.Node != want[i].Node || e.Job != want[i].Job || e.Task != want[i].Task {
			t.Fatalf("event %d fields wrong: %+v", i, e)
		}
	}
	// The store holds nothing but the log, so the log is all of its bytes.
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if s.LogBytes() != s.Bytes() {
		t.Fatalf("LogBytes %d, want the store's %d", s.LogBytes(), s.Bytes())
	}
}

func TestGCSSurvivesShardReplicaFailure(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 2})
	defer s.Close()
	ctx := context.Background()
	obj := types.NewObjectID()
	node := types.NewNodeID()
	if err := s.AddObjectLocation(ctx, obj, node, 99, types.NilTaskID, types.NilJobID); err != nil {
		t.Fatal(err)
	}
	// Kill the tail replica of every shard; reads and writes must still work.
	for i := 0; i < s.NumShards(); i++ {
		s.Shard(i).KillReplica(1)
	}
	entry, ok, err := s.GetObject(ctx, obj)
	if err != nil || !ok || entry.Size != 99 {
		t.Fatalf("read after replica failure: %+v %v %v", entry, ok, err)
	}
	if err := s.AddObjectLocation(ctx, types.NewObjectID(), node, 1, types.NilTaskID, types.NilJobID); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				obj := types.NewObjectID()
				node := types.NewNodeID()
				if err := s.AddObjectLocation(ctx, obj, node, int64(i), types.NilTaskID, types.NilJobID); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := s.GetObject(ctx, obj); err != nil || !ok {
					t.Errorf("lost object: %v", err)
					return
				}
				spec := &task.Spec{ID: types.NewTaskID(), Function: "f", NumReturns: 1}
				if err := s.AddTask(ctx, spec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Stats().Puts == 0 || s.Stats().Gets == 0 {
		t.Fatal("stats not recorded")
	}
}

// Property: entry encodings round-trip.
func TestEntryEncodingRoundTrips(t *testing.T) {
	f := func(size int64, nLoc uint8, status uint8, queue uint16, avg uint16) bool {
		if size < 0 {
			size = -size
		}
		oe := &ObjectEntry{Size: size, Creator: types.NewTaskID()}
		for i := 0; i < int(nLoc%5); i++ {
			oe.Locations = append(oe.Locations, types.NewNodeID())
		}
		back, err := unmarshalObjectEntry(oe.marshal())
		if err != nil || back.Size != oe.Size || len(back.Locations) != len(oe.Locations) || back.Creator != oe.Creator {
			return false
		}
		ne := &NodeEntry{
			ID:                 types.NewNodeID(),
			State:              types.NodeState(status % 2),
			TotalResources:     map[string]float64{"CPU": float64(queue % 64)},
			AvailableResources: map[string]float64{"CPU": float64(queue % 32), "GPU": 2},
			QueueLength:        int(queue),
			AvgTaskMillis:      float64(avg) / 8,
			HeartbeatUnixNano:  time.Now().UnixNano(),
		}
		nback, err := unmarshalNodeEntry(ne.marshal())
		if err != nil || nback.ID != ne.ID || nback.QueueLength != ne.QueueLength ||
			nback.AvailableResources["CPU"] != ne.AvailableResources["CPU"] ||
			nback.AvailableResources["GPU"] != 2 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Every field of every table entry, nested spec included, survives its
// codec: a field one side forgets, or neither side knows, comes back wrong.
func TestEntriesRoundTripEveryField(t *testing.T) {
	args := []task.Arg{task.ValueArg([]byte("v")), task.RefArg(types.NewObjectID())}
	res := resources.NewRequest(map[string]float64{resources.CPU: 2.25})
	roundtrip.Check(t, (*ObjectEntry).marshal, unmarshalObjectEntry)
	roundtrip.Check(t, (*TaskEntry).marshal, unmarshalTaskEntry, args, res)
	roundtrip.Check(t, (*ActorEntry).marshal, unmarshalActorEntry)
	roundtrip.Check(t, (*NodeEntry).marshal, unmarshalNodeEntry)
	roundtrip.Check(t, (*FunctionEntry).marshal, unmarshalFunctionEntry)
	roundtrip.Check(t, (*JobEntry).marshal, unmarshalJobEntry)
	roundtrip.Check(t, func(sp *telemetry.Span) []byte { return telemetry.MarshalSpans([]telemetry.Span{*sp}) },
		func(b []byte) (*telemetry.Span, error) {
			spans, err := telemetry.UnmarshalSpans(b)
			if err != nil || len(spans) != 1 {
				return nil, fmt.Errorf("decoded %d spans: %v", len(spans), err)
			}
			return &spans[0], nil
		})
}

func TestEntryDecodersRejectGarbage(t *testing.T) {
	if _, err := unmarshalObjectEntry([]byte{1}); err == nil {
		t.Fatal("object entry decoder accepted garbage")
	}
	if _, err := unmarshalTaskEntry([]byte{1, 2}); err == nil {
		t.Fatal("task entry decoder accepted garbage")
	}
	if _, err := unmarshalActorEntry([]byte{0}); err == nil {
		t.Fatal("actor entry decoder accepted garbage")
	}
	if _, err := unmarshalNodeEntry([]byte{0, 1}); err == nil {
		t.Fatal("node entry decoder accepted garbage")
	}
	if _, err := unmarshalFunctionEntry([]byte{9}); err == nil {
		t.Fatal("function entry decoder accepted garbage")
	}
	if _, err := telemetry.UnmarshalSpans([]byte{3}); err == nil {
		t.Fatal("span entry decoder accepted garbage")
	}
}

// --- Batching write path ------------------------------------------------------

// slowBatchStore returns a batched store whose flusher will not run for a
// minute, so tests can observe the pending-overlay state deterministically.
func slowBatchStore() *Store {
	return New(Config{
		Shards:             4,
		ReplicationFactor:  2,
		BatchFlushInterval: time.Minute,
		BatchMaxEntries:    1 << 20,
	})
}

func TestBatchedWritesAreReadYourWrites(t *testing.T) {
	s := slowBatchStore()
	defer s.Close()
	ctx := context.Background()
	spec := &task.Spec{ID: types.NewTaskID(), Driver: types.NewDriverID(), Function: "f", NumReturns: 1}
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Visible through the overlay before any chain commit.
	if s.Entries() != 0 {
		t.Fatal("write should still be pending, not chain-committed")
	}
	entry, ok, err := s.GetTask(ctx, spec.ID)
	if err != nil || !ok || entry.Spec.Function != "f" {
		t.Fatalf("pending write not readable: %v %v", ok, err)
	}
	// Sync commits it to the chain.
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Entries() != 1 {
		t.Fatalf("after sync: %d chain entries, want 1", s.Entries())
	}
	if _, ok, _ := s.GetTask(ctx, spec.ID); !ok {
		t.Fatal("entry lost after sync")
	}
}

func TestBatchedWritesCoalescePerKey(t *testing.T) {
	s := slowBatchStore()
	defer s.Close()
	ctx := context.Background()
	spec := &task.Spec{ID: types.NewTaskID(), Driver: types.NewDriverID(), Function: "f", NumReturns: 1}
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for _, status := range []types.TaskStatus{types.TaskWaiting, types.TaskRunning, types.TaskFinished} {
		if err := s.UpdateTaskStatus(ctx, spec.ID, status, types.NilNodeID); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BatchedWrites != 4 {
		t.Fatalf("batched writes = %d, want 4", st.BatchedWrites)
	}
	if st.BatchCoalesced != 3 {
		t.Fatalf("coalesced = %d, want 3 (status updates absorbed)", st.BatchCoalesced)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := s.GetTask(ctx, spec.ID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if entry.Status != types.TaskFinished {
		t.Fatalf("status %v, want last-writer-wins TaskFinished", entry.Status)
	}
}

func TestBatchedNodeScanSeesPendingRegistration(t *testing.T) {
	s := slowBatchStore()
	defer s.Close()
	ctx := context.Background()
	id := types.NewNodeID()
	err := s.RegisterNode(ctx, &NodeEntry{
		ID: id, State: types.NodeAlive,
		TotalResources:     map[string]float64{resources.CPU: 4},
		AvailableResources: map[string]float64{resources.CPU: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := s.AliveNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].ID != id {
		t.Fatalf("pending registration invisible to Nodes scan: %v", nodes)
	}
}

// TestBatchedSubscriberSignalledWhenReadable: pub-sub follows the pending
// overlay, not the chain commit. With a flush that never comes by itself, a
// subscriber is still signalled by every location write, and its re-read
// returns that write.
func TestBatchedSubscriberSignalledWhenReadable(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 1, BatchFlushInterval: time.Hour})
	defer s.Close()
	ctx := context.Background()
	obj, node := types.NewObjectID(), types.NewNodeID()
	notify, cancel := s.SubscribeObject(obj)
	defer cancel()
	for _, step := range []struct {
		name  string
		write func() error
		want  bool
	}{
		{"AddObjectLocation", func() error { return s.AddObjectLocation(ctx, obj, node, 10, types.NilTaskID, types.NilJobID) }, true},
		{"RemoveObjectLocation", func() error { return s.RemoveObjectLocation(ctx, obj, node) }, false},
	} {
		if err := step.write(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-notify:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: subscriber not signalled before the commit", step.name)
		}
		entry, ok, err := s.GetObject(ctx, obj)
		if err != nil || !ok || entry.HasLocation(node) != step.want {
			t.Fatalf("%s: re-read after the signal: %+v ok=%v err=%v", step.name, entry, ok, err)
		}
	}
	if n := s.Stats().BatchCommits; n != 0 {
		t.Fatalf("%d commits happened; the signals must not have needed one", n)
	}
}

// TestSubscribeThenReadLosesNoWakeup is the invariant every waiter relies on:
// a goroutine that subscribes, reads, and waits only if the read found nothing
// always returns, with no re-poll, because the overlay insert happens before
// publish and the registration before the first read. Run under -race.
func TestSubscribeThenReadLosesNoWakeup(t *testing.T) {
	s := New(Config{Shards: 4, ReplicationFactor: 1, BatchFlushInterval: time.Hour})
	defer s.Close()
	ctx := context.Background()
	const waiters, rounds = 8, 200
	ids := make([][]types.ObjectID, waiters)
	var wg sync.WaitGroup
	for w := range ids {
		ids[w] = make([]types.ObjectID, rounds)
		for r := range ids[w] {
			ids[w][r] = types.NewObjectID()
		}
		wg.Add(2)
		start := make(chan struct{})     // lines the writer of an id up with its waiter
		go func(mine []types.ObjectID) { // waiter
			defer wg.Done()
			for _, id := range mine {
				start <- struct{}{}
				notify, cancel := s.SubscribeObject(id)
				for {
					entry, ok, err := s.GetObject(ctx, id)
					if err != nil {
						t.Error(err)
					}
					if ok && len(entry.Locations) > 0 {
						break
					}
					<-notify
				}
				cancel()
			}
		}(ids[w])
		go func(mine []types.ObjectID) { // writer, racing the waiter on each id
			defer wg.Done()
			node := types.NewNodeID()
			for _, id := range mine {
				<-start
				if err := s.AddObjectLocation(ctx, id, node, 1, types.NilTaskID, types.NilJobID); err != nil {
					t.Error(err)
				}
			}
		}(ids[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a waiter never returned: a wake-up was lost")
	}
	if n := s.SubscriberCount(); n != 0 {
		t.Fatalf("%d subscriptions left registered", n)
	}
}

func TestBatchedSizeCapTriggersEarlyFlush(t *testing.T) {
	s := New(Config{Shards: 1, ReplicationFactor: 1, BatchFlushInterval: time.Minute, BatchMaxEntries: 8})
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		spec := &task.Spec{ID: types.NewTaskID(), Driver: types.NewDriverID(), Function: "f", NumReturns: 1}
		if err := s.AddTask(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	// Entries turns non-zero inside PutBatch, before the flusher counts the
	// commit: wait for both.
	deadline := time.Now().Add(5 * time.Second)
	for s.Entries() == 0 || s.Stats().BatchCommits == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("size cap did not trigger a flush: %d entries, %d batch commits", s.Entries(), s.Stats().BatchCommits)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatchedCloseIsIdempotentAndDrains(t *testing.T) {
	s := slowBatchStore()
	ctx := context.Background()
	spec := &task.Spec{ID: types.NewTaskID(), Driver: types.NewDriverID(), Function: "f", NumReturns: 1}
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Entries() != 1 {
		t.Fatal("close must drain pending writes to the chain")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Synchronous stores accept Sync/Close as no-ops.
	plain := New(Config{Shards: 4, ReplicationFactor: 2, SyncWrites: true})
	if err := plain.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatBatchBothModes(t *testing.T) {
	for _, batched := range []bool{false, true} {
		cfg := Config{Shards: 4, ReplicationFactor: 2}
		if batched {
			cfg.BatchFlushInterval = time.Minute
			cfg.BatchMaxEntries = 1 << 20
		} else {
			cfg.SyncWrites = true
		}
		s := New(cfg)
		ctx := context.Background()
		ids := make([]types.NodeID, 3)
		for i := range ids {
			ids[i] = types.NewNodeID()
			err := s.RegisterNode(ctx, &NodeEntry{
				ID: ids[i], State: types.NodeAlive,
				TotalResources:     map[string]float64{resources.CPU: 4},
				AvailableResources: map[string]float64{resources.CPU: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		updates := make([]HeartbeatUpdate, 0, len(ids)+1)
		for i, id := range ids {
			updates = append(updates, HeartbeatUpdate{
				ID:            id,
				Available:     map[string]float64{resources.CPU: float64(i)},
				QueueLength:   10 + i,
				AvgTaskMillis: 2,
			})
		}
		// An unregistered node must be skipped, not fail the batch.
		updates = append(updates, HeartbeatUpdate{ID: types.NewNodeID(), QueueLength: 99})
		if err := s.HeartbeatBatch(ctx, updates); err != nil {
			t.Fatalf("batched=%v: %v", batched, err)
		}
		for i, id := range ids {
			entry, ok, err := s.GetNode(ctx, id)
			if err != nil || !ok {
				t.Fatalf("batched=%v: node %d missing: %v", batched, i, err)
			}
			if entry.QueueLength != 10+i {
				t.Fatalf("batched=%v: queue length %d, want %d", batched, entry.QueueLength, 10+i)
			}
			if entry.AvailableResources[resources.CPU] != float64(i) {
				t.Fatalf("batched=%v: available CPU %v", batched, entry.AvailableResources)
			}
		}
		if err := s.HeartbeatBatch(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBatchedConcurrentMixedOperations(t *testing.T) {
	s := New(Config{Shards: 4, ReplicationFactor: 2, BatchFlushInterval: time.Millisecond, BatchMaxEntries: 32})
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				spec := &task.Spec{ID: types.NewTaskID(), Driver: types.NewDriverID(), Function: "f", NumReturns: 1}
				if err := s.AddTask(ctx, spec); err != nil {
					errs <- err
					return
				}
				if err := s.UpdateTaskStatus(ctx, spec.ID, types.TaskFinished, types.NilNodeID); err != nil {
					errs <- err
					return
				}
				if _, ok, err := s.GetTask(ctx, spec.ID); err != nil || !ok {
					errs <- fmt.Errorf("task invisible after write: %v %v", ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Entries() != 8*50 {
		t.Fatalf("entries=%d want %d", s.Entries(), 8*50)
	}
}

func TestHeartbeatBatchNeverResurrectsDeadNode(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	id := types.NewNodeID()
	err := s.RegisterNode(ctx, &NodeEntry{
		ID: id, State: types.NodeAlive,
		TotalResources:     map[string]float64{resources.CPU: 4},
		AvailableResources: map[string]float64{resources.CPU: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.MarkNodeDead(ctx, id); err != nil {
		t.Fatal(err)
	}
	// A heartbeat for the dead node (a coalesced aggregator racing the kill)
	// must not write its stale alive state back.
	err = s.HeartbeatBatch(ctx, []HeartbeatUpdate{{ID: id, Available: map[string]float64{resources.CPU: 4}, QueueLength: 1}})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok, err := s.GetNode(ctx, id)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if entry.State != types.NodeDead {
		t.Fatal("heartbeat batch resurrected a dead node")
	}
}

func TestBatchedPutAfterCloseFallsBackToChain(t *testing.T) {
	s := slowBatchStore()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := &task.Spec{ID: types.NewTaskID(), Driver: types.NewDriverID(), Function: "f", NumReturns: 1}
	if err := s.AddTask(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// The write must land in the chain directly, not in an orphaned buffer.
	if s.Entries() != 1 {
		t.Fatalf("post-close write not chain-committed: %d entries", s.Entries())
	}
	if _, ok, _ := s.GetTask(ctx, spec.ID); !ok {
		t.Fatal("post-close write unreadable")
	}
}
