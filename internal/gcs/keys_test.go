package gcs

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ray/internal/kv"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// hostileIDs are IDs whose raw bytes, which follow the table prefix in a
// key, hold a '/', NUL bytes, or another table's prefix.
func hostileIDs() []types.UniqueID {
	var ids []types.UniqueID
	for _, spell := range []string{"/", "\x00\x00\x00\x00", keyPrefixTask, keyPrefixEvent, keyPrefixSpan, keyPrefixObject, "node/\x00/"} {
		var id types.UniqueID
		copy(id[:], spell)
		id[types.IDSize-1] = byte(len(ids) + 1) // distinct, and never the nil ID
		ids = append(ids, id)
	}
	return ids
}

// Every table read and scan finds exactly what was written under hostile
// IDs: node membership, the event and span scans over shardKeys, and the
// entries themselves.
func TestHostileIDTables(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		ids := hostileIDs()
		for _, id := range ids {
			if err := s.RegisterNode(ctx, &NodeEntry{ID: types.NodeID(id), State: types.NodeAlive}); err != nil {
				t.Fatal(err)
			}
			if err := s.AddObjectLocation(ctx, types.ObjectID(id), types.NodeID(id), 8, types.TaskID(id), types.NilJobID); err != nil {
				t.Fatal(err)
			}
			if err := s.AddTask(ctx, &task.Spec{ID: types.TaskID(id), Function: "f", NumReturns: 1}); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendEvent(ctx, "k", types.NodeID(id).Hex()); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendSpans(ctx, []telemetry.Span{{Task: types.TaskID(id).Hex()}}); err != nil {
				t.Fatal(err)
			}
		}
		nodes, err := s.Nodes(ctx)
		if err != nil || len(nodes) != len(ids) {
			t.Fatalf("Nodes: %d entries, err %v; want %d", len(nodes), err, len(ids))
		}
		for _, n := range nodes {
			if !slices.Contains(ids, types.UniqueID(n.ID)) {
				t.Fatalf("Nodes returned an unregistered node %s", n.ID)
			}
		}
		for _, id := range ids {
			if e, ok, err := s.GetObject(ctx, types.ObjectID(id)); err != nil || !ok || e.Creator != types.TaskID(id) {
				t.Fatalf("object %x: %+v ok=%v err=%v", id, e, ok, err)
			}
			if e, ok, err := s.GetTask(ctx, types.TaskID(id)); err != nil || !ok || e.Spec.ID != types.TaskID(id) {
				t.Fatalf("task %x: ok=%v err=%v", id, ok, err)
			}
		}
		events, err := s.Events(ctx)
		if err != nil || len(events) != len(ids) {
			t.Fatalf("Events: %d entries, err %v; want %d", len(events), err, len(ids))
		}
		spans, err := s.Spans(ctx)
		if err != nil || len(spans) != len(ids) {
			t.Fatalf("Spans: %d entries, err %v; want %d", len(spans), err, len(ids))
		}
	})
}

// flushableKey judges a key by its own table alone, and FlushNow writes
// hostile raw keys that kv.ReadFlushed reads back byte for byte.
func TestHostileIDFlushRoundTrip(t *testing.T) {
	ctx := context.Background()
	var sink bytes.Buffer
	s := New(Config{Shards: 4, ReplicationFactor: 2, FlushWriter: &sink})
	defer s.Close()
	finished := &TaskEntry{Spec: &task.Spec{Function: "f"}, Status: types.TaskFinished}
	want := map[string]bool{}
	for _, id := range hostileIDs() {
		if !flushableKey(taskKey(types.TaskID(id)), finished.marshal()) {
			t.Fatalf("finished task %x is not flushable", id)
		}
		for _, key := range []string{objectKey(types.ObjectID(id)), nodeKey(types.NodeID(id)), actorKey(types.ActorID(id)), jobKey(types.JobID(id))} {
			if flushableKey(key, finished.marshal()) {
				t.Fatalf("%s is flushable", displayKey(key))
			}
		}
		if err := s.AddTask(ctx, &task.Spec{ID: types.TaskID(id), Function: "f", NumReturns: 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateTaskStatus(ctx, types.TaskID(id), types.TaskFinished, types.NilNodeID); err != nil {
			t.Fatal(err)
		}
		if err := s.AddObjectLocation(ctx, types.ObjectID(id), types.NewNodeID(), 8, types.TaskID(id), types.NilJobID); err != nil {
			t.Fatal(err)
		}
		want[taskKey(types.TaskID(id))] = true
	}
	n, _, err := s.FlushNow(ctx)
	if err != nil || n != len(want) {
		t.Fatalf("FlushNow flushed %d entries, err %v; want %d", n, err, len(want))
	}
	entries, err := kv.ReadFlushed(&sink)
	if err != nil || len(entries) != len(want) {
		t.Fatalf("ReadFlushed: %d entries, err %v; want %d", len(entries), err, len(want))
	}
	for _, e := range entries {
		if !want[e.Key] || !taskEntryTerminal(e.Value) {
			t.Fatalf("flush log holds %s, which was not a finished task", displayKey(e.Key))
		}
	}
	for _, id := range hostileIDs() {
		if _, ok, _ := s.GetObject(ctx, types.ObjectID(id)); !ok {
			t.Fatalf("object %x was flushed", id)
		}
	}
}

// A subscription on a hostile ID wakes for a write to that object only.
func TestHostileIDSubscriptions(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		ids := hostileIDs()
		for i, id := range ids {
			ch, cancel := s.SubscribeObject(types.ObjectID(id))
			other := types.ObjectID(ids[(i+1)%len(ids)])
			if err := s.AddObjectLocation(ctx, other, types.NewNodeID(), 8, types.NilTaskID, types.NilJobID); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ch:
				t.Fatalf("a write to %x woke the subscriber of %x", other, id)
			default:
			}
			if err := s.AddObjectLocation(ctx, types.ObjectID(id), types.NewNodeID(), 8, types.NilTaskID, types.NilJobID); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ch:
			default:
				t.Fatalf("a readable write to %x signalled nobody", id)
			}
			cancel()
		}
	})
}

// IDs that differ only in their hostile first half share a keyLock stripe,
// and concurrent location adds to them all still land.
func TestHostileIDKeyLockStripes(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		var objs []types.ObjectID
		for _, id := range hostileIDs() {
			copy(id[8:], "stripe/\x00")
			objs = append(objs, types.ObjectID(id))
		}
		for _, obj := range objs[1:] {
			if s.keyLock(types.UniqueID(obj)) != s.keyLock(types.UniqueID(objs[0])) {
				t.Fatal("IDs with equal second halves map to different stripes")
			}
		}
		nodes := []types.NodeID{types.NewNodeID(), types.NewNodeID(), types.NewNodeID(), types.NewNodeID()}
		slices.SortFunc(nodes, func(a, b types.NodeID) int { return bytes.Compare(a[:], b[:]) })
		var wg sync.WaitGroup
		for _, obj := range objs {
			for _, n := range nodes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := s.AddObjectLocation(ctx, obj, n, 8, types.NilTaskID, types.NilJobID); err != nil {
						t.Error(err)
					}
				}()
			}
		}
		wg.Wait()
		for _, obj := range objs {
			if got := sortedLocations(t, s, obj); !slices.Equal(got, nodes) {
				t.Fatalf("object %x: %d of %d concurrent location adds survived", obj, len(got), len(nodes))
			}
		}
	})
}

// A write or read that fails on a dead chain names the entry by its table
// prefix and the ID in hex, not by the key's raw bytes.
func TestFailedWriteReportsIDInHex(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Shards: 1, ReplicationFactor: 2, SyncWrites: true})
	defer s.Close()
	s.Shard(0).KillReplica(0)
	s.Shard(0).KillReplica(1)
	id := types.TaskID(hostileIDs()[1])
	putErr := s.AddTask(ctx, &task.Spec{ID: id, Function: "f", NumReturns: 1})
	_, _, getErr := s.GetTask(ctx, id)
	for op, err := range map[string]error{"put": putErr, "get": getErr} {
		want := fmt.Sprintf("gcs: %s %s%s: ", op, keyPrefixTask, id.Hex())
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%s on a dead chain: %v; want an error starting %q", op, err, want)
		}
	}
	if got := displayKey(functionKey("f")); got != "fn/f" {
		t.Fatalf("a function key renders as %q", got)
	}
}

// Nodes and Jobs (the latter among jobs that started at the same instant)
// list IDs in raw byte order, which is also their hex order, both for IDs
// that differ only in their first byte and for IDs that differ only in their
// last.
func TestNodesAndJobsSortByRawID(t *testing.T) {
	spell := func(pos int, b byte) types.NodeID {
		var id types.NodeID
		for i := range id {
			id[i] = 0x80
		}
		id[pos] = b
		return id
	}
	const last = types.IDSize - 1
	want := []types.NodeID{
		spell(0, 0x01), spell(0, 0x0f), spell(0, 0x10),
		spell(last, 0x01), spell(last, 0x0f), spell(last, 0x10), spell(last, 0xf0),
		spell(0, 0xf0),
	}
	for i := 1; i < len(want); i++ {
		if want[i-1].Hex() >= want[i].Hex() {
			t.Fatalf("hex order disagrees with byte order at %d: %s >= %s", i, want[i-1].Hex(), want[i].Hex())
		}
	}
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		for i := len(want) - 1; i >= 0; i-- {
			if err := s.RegisterNode(ctx, &NodeEntry{ID: want[i], State: types.NodeAlive}); err != nil {
				t.Fatal(err)
			}
			if err := s.RegisterJob(ctx, &JobEntry{ID: types.JobID(want[i]), StartUnixNano: 1}); err != nil {
				t.Fatal(err)
			}
		}
		nodes, err := s.Nodes(ctx)
		if err != nil || len(nodes) != len(want) {
			t.Fatalf("Nodes: %d entries, err %v; want %d", len(nodes), err, len(want))
		}
		jobs, err := s.Jobs(ctx)
		if err != nil || len(jobs) != len(want) {
			t.Fatalf("Jobs: %d entries, err %v; want %d", len(jobs), err, len(want))
		}
		for i, id := range want {
			if got := nodes[i].ID; got != id {
				t.Errorf("Nodes()[%d] = %s, want %s", i, got.Hex(), id.Hex())
			}
			if got := types.NodeID(jobs[i].ID); got != id {
				t.Errorf("Jobs()[%d] = %s, want %s", i, got.Hex(), id.Hex())
			}
		}
	})
}
