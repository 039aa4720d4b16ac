package gcs

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ray/internal/types"
)

// A heartbeat racing the node's death never writes the node back alive: the
// heartbeat's read-modify-write and MarkNodeDead's share the entry's stripe.
func TestHeartbeatRacingMarkNodeDeadNeverResurrects(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		for round := 0; round < 100; round++ {
			id := types.NewNodeID()
			if err := s.RegisterNode(ctx, &NodeEntry{ID: id, State: types.NodeAlive}); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var started, wg sync.WaitGroup
			for range 2 {
				started.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						if err := s.HeartbeatBatch(ctx, []HeartbeatUpdate{{ID: id, QueueLength: i}}); err != nil {
							t.Error(err)
						}
						if i == 0 {
							started.Done()
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			started.Wait()
			if err := s.MarkNodeDead(ctx, id); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			if entry, ok, err := s.GetNode(ctx, id); err != nil || !ok || entry.State != types.NodeDead {
				t.Fatalf("round %d: node after a heartbeat raced its death: %+v ok=%v err=%v", round, entry, ok, err)
			}
		}
	})
}

// Of N concurrent terminal transitions of one job exactly one reports that it
// made the transition, so exactly one caller runs the job's cleanup.
func TestConcurrentTerminalJobStateChangesOnce(t *testing.T) {
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		for round := 0; round < 200; round++ {
			id := types.NewJobID()
			if err := s.RegisterJob(ctx, &JobEntry{ID: id, State: types.JobRunning}); err != nil {
				t.Fatal(err)
			}
			const n = 8
			var wg sync.WaitGroup
			var mu sync.Mutex
			changed := 0
			var start atomic.Bool
			for i := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !start.Load() {
						runtime.Gosched()
					}
					state := types.JobFinished
					if i%2 == 1 {
						state = types.JobKilled
					}
					_, ok, err := s.UpdateJobState(ctx, id, state)
					if err != nil {
						t.Error(err)
					}
					if ok {
						mu.Lock()
						changed++
						mu.Unlock()
					}
				}()
			}
			start.Store(true)
			wg.Wait()
			if changed != 1 {
				t.Fatalf("round %d: %d of %d concurrent terminal transitions reported changed, want 1", round, changed, n)
			}
		}
	})
}

// Every read-modify-write refuses an entry it cannot decode: it returns the
// error and leaves the stored bytes as they were.
func TestReadModifyWritesRefuseUndecodableEntries(t *testing.T) {
	garbage := []byte{1, 2, 3}
	obj, task, node, job := types.NewObjectID(), types.NewTaskID(), types.NewNodeID(), types.NewJobID()
	cases := []struct {
		name string
		ref  func(*Store) entryRef
		call func(context.Context, *Store) error
	}{
		{"AddObjectLocation", func(s *Store) entryRef { return idRef(s, obj, objectKey(obj)) }, func(ctx context.Context, s *Store) error {
			return s.AddObjectLocation(ctx, obj, node, 8, task, job)
		}},
		{"RemoveObjectLocation", func(s *Store) entryRef { return idRef(s, obj, objectKey(obj)) }, func(ctx context.Context, s *Store) error {
			return s.RemoveObjectLocation(ctx, obj, node)
		}},
		{"UpdateTaskStatus", func(s *Store) entryRef { return idRef(s, task, taskKey(task)) }, func(ctx context.Context, s *Store) error {
			return s.UpdateTaskStatus(ctx, task, types.TaskFinished, node)
		}},
		{"HeartbeatBatch", func(s *Store) entryRef { return idRef(s, node, nodeKey(node)) }, func(ctx context.Context, s *Store) error {
			return s.HeartbeatBatch(ctx, []HeartbeatUpdate{{ID: node, QueueLength: 1}})
		}},
		{"MarkNodeDead", func(s *Store) entryRef { return idRef(s, node, nodeKey(node)) }, func(ctx context.Context, s *Store) error {
			return s.MarkNodeDead(ctx, node)
		}},
		{"UpdateJobState", func(s *Store) entryRef { return idRef(s, job, jobKey(job)) }, func(ctx context.Context, s *Store) error {
			_, _, err := s.UpdateJobState(ctx, job, types.JobKilled)
			return err
		}},
		{"AddActorMethod", func(s *Store) entryRef { return s.nameRef("Class", functionKey("Class")) }, func(ctx context.Context, s *Store) error {
			return s.AddActorMethod(ctx, "Class", MethodInfo{Name: "m", NumArgs: 1, NumReturns: 1})
		}},
	}
	bothWritePaths(t, func(t *testing.T, s *Store) {
		ctx := context.Background()
		for _, c := range cases {
			r := c.ref(s)
			if err := s.put(ctx, r.shard, r.key, garbage); err != nil {
				t.Fatal(err)
			}
			if err := c.call(ctx, s); err == nil {
				t.Errorf("%s on an undecodable entry: no error", c.name)
			}
			if got, ok, err := s.get(ctx, r.shard, r.key); err != nil || !ok || !bytes.Equal(got, garbage) {
				t.Errorf("%s changed an undecodable entry to %x (ok=%v err=%v)", c.name, got, ok, err)
			}
		}
	})
}

// A failing flush records its error while a reader asks for it: the
// failure-path write and err's read are ordered by errMu (run with -race).
func TestBatcherErrRacesFailingFlush(t *testing.T) {
	s := New(Config{Shards: 1, ReplicationFactor: 1, BatchFlushInterval: time.Hour})
	defer s.Close()
	ctx := context.Background()
	s.Shard(0).KillReplica(0)
	if err := s.AppendEvent(ctx, "k", "m"); err != nil {
		t.Fatal(err)
	}
	b := s.batchers[0]
	flushed := make(chan error, 1)
	go func() { flushed <- b.flush(ctx) }()
	for {
		select {
		case err := <-flushed:
			if err == nil || b.err() == nil {
				t.Fatalf("a flush to a dead chain returned %v and recorded %v", err, b.err())
			}
			return
		default:
			_ = b.err()
			runtime.Gosched()
		}
	}
}
