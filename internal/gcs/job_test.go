package gcs

import (
	"context"
	"testing"
	"time"

	"ray/internal/types"
)

// TestJobTableLifecycle covers register/get/list and the state machine of the
// job table, including first-terminal-state-wins semantics.
func TestJobTableLifecycle(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 1, SyncWrites: true})
	defer s.Close()
	ctx := context.Background()

	jobA := types.NewJobID()
	jobB := types.NewJobID()
	if err := s.RegisterJob(ctx, &JobEntry{ID: jobA, Name: "alpha", Weight: 0}); err != nil {
		t.Fatalf("RegisterJob: %v", err)
	}
	if err := s.RegisterJob(ctx, &JobEntry{ID: jobB, Name: "beta", Weight: 3}); err != nil {
		t.Fatalf("RegisterJob: %v", err)
	}

	entry, ok, err := s.GetJob(ctx, jobA)
	if err != nil || !ok {
		t.Fatalf("GetJob: ok=%v err=%v", ok, err)
	}
	if entry.Name != "alpha" || entry.State != types.JobRunning {
		t.Fatalf("unexpected entry %+v", entry)
	}
	if entry.Weight != 1 {
		t.Fatalf("weight 0 should normalize to 1, got %d", entry.Weight)
	}
	if entry.StartUnixNano == 0 {
		t.Fatal("StartUnixNano not stamped")
	}

	jobs, err := s.Jobs(ctx)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d", len(jobs))
	}

	// Finish wins over a later kill: the first terminal state sticks, and
	// only the winning call reports that it performed the transition (that
	// caller owns cleanup).
	got, changed, err := s.UpdateJobState(ctx, jobA, types.JobFinished)
	if err != nil {
		t.Fatalf("UpdateJobState: %v", err)
	}
	if !changed || got.State != types.JobFinished || got.FinishUnixNano == 0 {
		t.Fatalf("unexpected terminal entry %+v (changed=%v)", got, changed)
	}
	got, changed, err = s.UpdateJobState(ctx, jobA, types.JobKilled)
	if err != nil {
		t.Fatalf("UpdateJobState second: %v", err)
	}
	if changed || got.State != types.JobFinished {
		t.Fatalf("terminal state should stick without re-transition, got %v (changed=%v)", got.State, changed)
	}

	if _, _, err := s.UpdateJobState(ctx, types.NewJobID(), types.JobKilled); err == nil {
		t.Fatal("updating an unknown job should fail")
	}
}

// TestJobEntryRoundTrip exercises the binary codec of the job record.
func TestJobEntryRoundTrip(t *testing.T) {
	in := &JobEntry{
		ID:             types.NewJobID(),
		Name:           "round-trip",
		State:          types.JobKilled,
		Driver:         types.NewDriverID(),
		Node:           types.NewNodeID(),
		Weight:         7,
		StartUnixNano:  123456789,
		FinishUnixNano: 987654321,
	}
	out, err := unmarshalJobEntry(in.marshal())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if *out != *in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	if _, err := unmarshalJobEntry(in.marshal()[:10]); err == nil {
		t.Fatal("truncated entry should fail to decode")
	}
}

// TestObjectEntryJobOwner verifies the owning job is recorded at location
// registration, preserved by pulls that register with a nil job, and carried
// through the codec.
func TestObjectEntryJobOwner(t *testing.T) {
	s := New(Config{Shards: 2, ReplicationFactor: 1, SyncWrites: true})
	defer s.Close()
	ctx := context.Background()
	obj := types.NewObjectID()
	job := types.NewJobID()
	n1, n2 := types.NewNodeID(), types.NewNodeID()

	if err := s.AddObjectLocation(ctx, obj, n1, 32, types.NewTaskID(), job); err != nil {
		t.Fatalf("AddObjectLocation: %v", err)
	}
	// A pull-made replica registers with a nil job; the owner must survive.
	if err := s.AddObjectLocation(ctx, obj, n2, 0, types.NilTaskID, types.NilJobID); err != nil {
		t.Fatalf("AddObjectLocation replica: %v", err)
	}
	entry, ok, err := s.GetObject(ctx, obj)
	if err != nil || !ok {
		t.Fatalf("GetObject: ok=%v err=%v", ok, err)
	}
	if entry.Job != job {
		t.Fatalf("owner job lost: got %v want %v", entry.Job, job)
	}
	if len(entry.Locations) != 2 {
		t.Fatalf("want 2 locations, got %d", len(entry.Locations))
	}
	// ObjectsForJob lists exactly the job's objects and none once their
	// entries are deleted (job-exit cleanup reads through it).
	if got := s.ObjectsForJob(job); len(got) != 1 || got[0] != obj {
		t.Fatalf("ObjectsForJob = %v, want [%v]", got, obj)
	}
	if got := s.ObjectsForJob(types.NewJobID()); len(got) != 0 {
		t.Fatalf("foreign job owns %v", got)
	}
	if err := s.DeleteObject(ctx, obj, job); err != nil {
		t.Fatal(err)
	}
	if got := s.ObjectsForJob(job); len(got) != 0 {
		t.Fatalf("a deleted entry is still listed: %v", got)
	}
}

// TestCommitFutureResolvesOnFlush is the flush-on-ack contract: a batched
// write's commit future resolves only once the pending batch containing the
// write has been chain-committed, and the committed value is then readable
// from the chain itself (not just the overlay).
func TestCommitFutureResolvesOnFlush(t *testing.T) {
	s := New(Config{
		Shards:             1,
		ReplicationFactor:  1,
		BatchFlushInterval: time.Hour, // only explicit kicks flush
	})
	defer s.Close()
	ctx := context.Background()

	job := types.NewJobID()
	if err := s.RegisterJob(ctx, &JobEntry{ID: job, Name: "durable"}); err != nil {
		t.Fatalf("RegisterJob: %v", err)
	}
	f := s.CommitFuture(types.UniqueID(job))
	if err := f.Wait(ctx); err != nil {
		t.Fatalf("commit future: %v", err)
	}
	// After the future resolves the write must be on the chain, not only in
	// the batcher's overlay.
	raw, ok, err := s.Shard(0).Get(ctx, jobKey(job))
	if err != nil || !ok {
		t.Fatalf("chain read after ack: ok=%v err=%v", ok, err)
	}
	entry, err := unmarshalJobEntry(raw)
	if err != nil || entry.Name != "durable" {
		t.Fatalf("chain holds wrong value: %+v err=%v", entry, err)
	}
}

// TestCommitFutureAlreadyDurable: a future taken with nothing pending (sync
// store, or batched store after a drain) is resolved immediately.
func TestCommitFutureAlreadyDurable(t *testing.T) {
	id := types.NewJobID()
	sync := New(Config{Shards: 1, ReplicationFactor: 1, SyncWrites: true})
	defer sync.Close()
	select {
	case <-sync.CommitFuture(types.UniqueID(id)).Done():
	default:
		t.Fatal("sync store future should be pre-resolved")
	}

	batched := New(Config{Shards: 1, ReplicationFactor: 1})
	defer batched.Close()
	ctx := context.Background()
	if err := batched.RegisterJob(ctx, &JobEntry{ID: id, Name: "durable"}); err != nil {
		t.Fatalf("RegisterJob: %v", err)
	}
	if err := batched.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	select {
	case <-batched.CommitFuture(types.UniqueID(id)).Done():
	case <-time.After(time.Second):
		t.Fatal("future after drain should resolve without another flush")
	}
}

// TestCommitFutureResolvedAtClose: futures outstanding when the store closes
// are released by the close-time drain rather than hanging forever.
func TestCommitFutureResolvedAtClose(t *testing.T) {
	s := New(Config{Shards: 1, ReplicationFactor: 1, BatchFlushInterval: time.Hour})
	ctx := context.Background()
	if err := s.AppendEvent(ctx, "k", "v"); err != nil {
		t.Fatalf("AppendEvent: %v", err)
	}
	// Reach into the batcher directly so no kick is sent (CommitFuture kicks
	// an early flush; here we want the close path to do the resolving).
	f := newCommitFuture()
	b := s.batchers[0]
	b.mu.Lock()
	b.waiters = append(b.waiters, ackWaiter{seq: b.seq, f: f})
	b.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-f.Done():
		if f.Err() != nil {
			t.Fatalf("close-time drain committed the write; want nil err, got %v", f.Err())
		}
	case <-time.After(time.Second):
		t.Fatal("future not resolved by Close")
	}
}
