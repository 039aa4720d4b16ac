package gcs

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
)

// bothWritePaths runs fn against a batching store and a synchronous one: the
// read-modify-writes under test take different routes to the chain in each.
func bothWritePaths(t *testing.T, fn func(t *testing.T, s *Store)) {
	for name, sync := range map[string]bool{"batched": false, "sync": true} {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Shards: 4, ReplicationFactor: 2, SyncWrites: sync})
			t.Cleanup(func() { _ = s.Close() })
			fn(t, s)
		})
	}
}

func sortedLocations(t *testing.T, s *Store, obj types.ObjectID) []types.NodeID {
	t.Helper()
	entry, ok, err := s.GetObject(context.Background(), obj)
	if err != nil || !ok {
		t.Fatalf("GetObject: ok=%v err=%v", ok, err)
	}
	slices.SortFunc(entry.Locations, func(a, b types.NodeID) int { return bytes.Compare(a[:], b[:]) })
	return entry.Locations
}

// Two nodes registering replicas of one object at once must both end up in
// the directory: a lost location is a replica reclamation never finds.
func TestConcurrentLocationAddsAllLand(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		obj, creator, job := types.NewObjectID(), types.NewTaskID(), types.NewJobID()
		nodes := make([]types.NodeID, 32)
		for i := range nodes {
			nodes[i] = types.NewNodeID()
		}
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.AddObjectLocation(ctx, obj, n, 64, creator, job); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := sortedLocations(t, s, obj); !slices.Equal(got, nodes) {
			t.Fatalf("%d of %d concurrent location adds survived", len(got), len(nodes))
		}
	})
}

// Adds and removes of different nodes interleave on one entry; exactly the
// nodes that were not removed remain.
func TestInterleavedLocationAddRemove(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		obj := types.NewObjectID()
		nodes := make([]types.NodeID, 32)
		for i := range nodes {
			nodes[i] = types.NewNodeID()
		}
		var wg sync.WaitGroup
		var want []types.NodeID
		for i, n := range nodes {
			if i%2 == 0 {
				want = append(want, n)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.AddObjectLocation(ctx, obj, n, 64, types.NilTaskID, types.NilJobID); err != nil {
					t.Error(err)
				}
				if i%2 == 1 {
					if err := s.RemoveObjectLocation(ctx, obj, n); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		if got := sortedLocations(t, s, obj); !slices.Equal(got, want) {
			t.Fatalf("surviving locations: got %d, want %d (%v vs %v)", len(got), len(want), got, want)
		}
		// One call withdraws several locations at once.
		if err := s.RemoveObjectLocation(ctx, obj, want[1:]...); err != nil {
			t.Fatal(err)
		}
		if got := sortedLocations(t, s, obj); !slices.Equal(got, want[:1]) {
			t.Fatalf("after batched removal: %v, want %v", got, want[:1])
		}
	})
}

func hotSpec() *task.Spec {
	return &task.Spec{
		ID: types.NewTaskID(), Job: types.NewJobID(), Driver: types.NewDriverID(), ParentTask: types.NewTaskID(),
		Function: "noop", NumReturns: 1, Resources: resources.CPUs(1),
		Args: []task.Arg{task.ValueArg([]byte{6, 1, 2, 3}), task.RefArg(types.NewObjectID())},
	}
}

// The per-task entries encode into one buffer of exactly their size.
func TestEntryEncodersAllocateOnce(t *testing.T) {
	te := &TaskEntry{Spec: hotSpec(), Status: types.TaskPending, Node: types.NewNodeID()}
	oe := &ObjectEntry{Size: 9, Creator: types.NewTaskID(), Job: types.NewJobID(),
		Locations: []types.NodeID{types.NewNodeID(), types.NewNodeID()}}
	var out []byte
	for name, marshal := range map[string]func() []byte{"TaskEntry": te.marshal, "ObjectEntry": oe.marshal, "Spec": te.Spec.Marshal} {
		if n := testing.AllocsPerRun(100, func() { out = marshal() }); n != 1 {
			t.Errorf("%s encode allocates %v times, want 1", name, n)
		}
		if len(out) != cap(out) {
			t.Errorf("%s encode: len %d, cap %d", name, len(out), cap(out))
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = objectKey(types.ObjectID(te.Spec.ID)) }); n > 1 {
		t.Errorf("table key allocates %v times, want at most 1", n)
	}
}

// The patched header is what a full decode, assign, re-encode produces, for
// every status and with or without a node, and the table decoder reads the
// patched status and node back.
func TestPatchedTaskEntryMatchesReencode(t *testing.T) {
	spec := hotSpec()
	placed := types.NewNodeID()
	for _, start := range []types.NodeID{types.NilNodeID, placed} {
		raw := (&TaskEntry{Spec: spec, Status: types.TaskPending, Node: start}).marshal()
		stored := bytes.Clone(raw)
		for _, status := range []types.TaskStatus{types.TaskPending, types.TaskRunning, types.TaskFinished, types.TaskLost, types.TaskFailed} {
			for _, node := range []types.NodeID{types.NilNodeID, types.NewNodeID()} {
				patched, err := patchTaskEntry(raw, status, node)
				if err != nil {
					t.Fatal(err)
				}
				entry, err := unmarshalTaskEntry(raw)
				if err != nil {
					t.Fatal(err)
				}
				entry.Status = status
				if !node.IsNil() {
					entry.Node = node
				}
				if want := entry.marshal(); !bytes.Equal(patched, want) {
					t.Fatalf("status %v node %v: patched entry differs from re-encode", status, node)
				}
				got, err := unmarshalTaskEntry(patched)
				if err != nil {
					t.Fatal(err)
				}
				if got.Status != entry.Status || got.Node != entry.Node || got.Spec.ID != spec.ID {
					t.Fatalf("patched to %v on %v, decodes as status %v node %v spec %v", status, node, got.Status, got.Node, got.Spec.ID)
				}
			}
		}
		if !bytes.Equal(raw, stored) {
			t.Fatal("patching modified the stored entry in place")
		}
	}
	if _, err := patchTaskEntry([]byte{1, 2, 3}, types.TaskFinished, placed); err == nil {
		t.Fatal("truncated entry patched without error")
	}
}

// UpdateTaskStatus carries the spec over as bytes: it succeeds on an entry
// whose spec would not decode, leaves those bytes alone, and its cost does
// not depend on the spec.
func TestUpdateTaskStatusDoesNotDecodeSpec(t *testing.T) {
	s := newTestStore(t)
	ctx := context.Background()
	id, node := types.NewTaskID(), types.NewNodeID()
	raw := (&TaskEntry{Spec: hotSpec(), Status: types.TaskPending}).marshal()
	for i := taskEntryFixedLen; i < len(raw); i++ {
		raw[i] = 0xEE // no longer a spec
	}
	if err := s.put(ctx, s.shardFor(types.UniqueID(id)), taskKey(id), raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateTaskStatus(ctx, id, types.TaskFinished, node); err != nil {
		t.Fatalf("UpdateTaskStatus decoded the spec: %v", err)
	}
	got, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), taskKey(id))
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	want, _ := patchTaskEntry(raw, types.TaskFinished, node)
	if !bytes.Equal(got, want) {
		t.Fatal("stored entry is not the original with status and node replaced")
	}
	if err := s.UpdateTaskStatus(ctx, types.NewTaskID(), types.TaskFinished, node); err == nil {
		t.Fatal("update of an unknown task succeeded")
	}
	// Key and patched copy (the batcher stores its pending record by value);
	// a decode would add the spec, its arguments and its resource request.
	if n := testing.AllocsPerRun(100, func() {
		if err := s.UpdateTaskStatus(ctx, id, types.TaskRunning, node); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("UpdateTaskStatus allocates %v times, want at most 4", n)
	}
}
