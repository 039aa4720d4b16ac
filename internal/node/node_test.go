package node

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ray/internal/gcs"
	"ray/internal/netsim"
	"ray/internal/objectstore"
	"ray/internal/scheduler"
	"ray/internal/task"
	"ray/internal/types"
	"ray/internal/worker"
)

type noopResolver struct{}

func (noopResolver) ResolveStore(types.NodeID) (*objectstore.Store, bool) { return nil, false }

type noopRouter struct{}

func (noopRouter) ForwardTask(context.Context, *task.Spec) error    { return nil }
func (noopRouter) RouteActorTask(context.Context, *task.Spec) error { return nil }

var _ Router = noopRouter{}
var _ scheduler.Forwarder = noopRouter{}

func newTestNode(t *testing.T) (*Node, *gcs.Store) {
	t.Helper()
	store := gcs.New(gcs.Config{Shards: 1, ReplicationFactor: 1})
	t.Cleanup(func() {
		//lint:ignore errdrop test teardown of an in-memory store
		_ = store.Close()
	})
	n := New(DefaultConfig(), store, netsim.New(netsim.InstantConfig()), worker.NewRegistry(), noopResolver{}, noopRouter{})
	return n, store
}

// Regression test for eviction-time location withdrawals: a withdrawal the
// GCS rejected must be parked and retried on the next heartbeat, not
// dropped — a phantom location would make fetchers dial this node for an
// object it no longer holds.
func TestWithdrawalRetry(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()

	obj := types.NewObjectID()
	if err := store.AddObjectLocation(ctx, obj, n.ID(), 4, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	n.noteFailedWithdrawal(obj)
	if got := n.PendingWithdrawals(); got != 1 {
		t.Fatalf("PendingWithdrawals = %d, want 1", got)
	}

	n.retryWithdrawals(ctx)

	if got := n.PendingWithdrawals(); got != 0 {
		t.Fatalf("PendingWithdrawals after retry = %d, want 0", got)
	}
	if entry, ok, err := store.GetObject(ctx, obj); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("stale location survived retry: %v", entry.Locations)
	}
}

// A parked withdrawal is stale once the object is resident again (re-fetched
// after the eviction): the retry must drop it without touching the GCS.
func TestWithdrawalRetrySkipsResidentObject(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()

	obj := types.NewObjectID()
	if err := n.Store().Put(obj, []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	if err := store.AddObjectLocation(ctx, obj, n.ID(), 7, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	n.noteFailedWithdrawal(obj)

	n.retryWithdrawals(ctx)

	if got := n.PendingWithdrawals(); got != 0 {
		t.Fatalf("stale withdrawal not cleared: PendingWithdrawals = %d", got)
	}
	entry, ok, err := store.GetObject(ctx, obj)
	if err != nil || !ok {
		t.Fatalf("object entry missing: ok=%v err=%v", ok, err)
	}
	if len(entry.Locations) != 1 || entry.Locations[0] != n.ID() {
		t.Fatalf("valid location withdrawn for resident object: %v", entry.Locations)
	}
}

// The cluster's aggregator makes one call per node per tick, HeartbeatTick, and
// no node has a loop of its own: that call must retry the parked withdrawals,
// or an eviction whose withdrawal failed leaves a phantom location forever.
// Both retry outcomes go through it: an evicted object's location is
// withdrawn, a re-fetched (resident) object's stays.
func TestHeartbeatTickRetriesWithdrawals(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()

	evicted, resident := types.NewObjectID(), types.NewObjectID()
	if err := n.Store().Put(resident, []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	for _, obj := range []types.ObjectID{evicted, resident} {
		if err := store.AddObjectLocation(ctx, obj, n.ID(), 7, types.NewTaskID(), types.NilJobID); err != nil {
			t.Fatal(err)
		}
		n.noteFailedWithdrawal(obj)
	}

	if update := n.HeartbeatTick(ctx); update.ID != n.ID() {
		t.Fatalf("HeartbeatTick reported node %v, want %v", update.ID, n.ID())
	}

	if got := n.PendingWithdrawals(); got != 0 {
		t.Fatalf("PendingWithdrawals after a tick = %d, want 0", got)
	}
	if entry, ok, err := store.GetObject(ctx, evicted); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("phantom location survived the tick: %v", entry.Locations)
	}
	entry, ok, err := store.GetObject(ctx, resident)
	if err != nil || !ok {
		t.Fatalf("resident object's entry missing: ok=%v err=%v", ok, err)
	}
	if len(entry.Locations) != 1 || entry.Locations[0] != n.ID() {
		t.Fatalf("valid location withdrawn for resident object: %v", entry.Locations)
	}
}

// ray.Wait calls an object ready once the directory lists a location for it —
// not when a copy has merely reached the local store, which happens before the
// producer registers it (a caller that frees it then would leak copy and
// location) — and it is woken by that write, watching only the ids it still
// misses.
func TestWaitObjectsReadyMeansRegistered(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()
	stored, listed := types.NewObjectID(), types.NewObjectID()
	if err := n.Store().Put(stored, []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	if err := store.AddObjectLocation(ctx, listed, types.NewNodeID(), 7, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	// Everything ready on the first look: no subscription, no timer, no wait.
	if ready, err := n.WaitObjects(ctx, []types.ObjectID{listed}, 1, -1); err != nil || len(ready) != 1 {
		t.Fatalf("WaitObjects(listed) = %v, %v", ready, err)
	}

	ids := []types.ObjectID{stored, listed}
	done := make(chan []types.ObjectID, 1)
	go func() {
		ready, err := n.WaitObjects(ctx, ids, 2, -1)
		if err != nil {
			t.Error(err)
		}
		done <- ready
	}()
	const early = "WaitObjects returned %v while the stored copy had no location in the directory"
	for store.SubscriberCount() == 0 {
		select {
		case ready := <-done:
			t.Fatalf(early, ready)
		default:
			runtime.Gosched()
		}
	}
	if got := store.SubscriberCount(); got != 1 {
		t.Fatalf("waiting on %d keys, want 1: only the unregistered object is still missing", got)
	}
	select {
	case ready := <-done:
		t.Fatalf(early, ready)
	case <-time.After(30 * time.Millisecond):
	}
	if err := store.AddObjectLocation(ctx, stored, n.ID(), 7, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	if ready := <-done; len(ready) != 2 {
		t.Fatalf("ready = %v, want both objects", ready)
	}

	// A timeout returns what is ready and leaves no registration behind.
	start := time.Now()
	ready, err := n.WaitObjects(ctx, []types.ObjectID{types.NewObjectID(), listed}, 2, 20)
	if err != nil || len(ready) != 1 || ready[0] != listed {
		t.Fatalf("WaitObjects with timeout = %v, %v; want [listed]", ready, err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("returned after %v, before the 20ms timeout", waited)
	}
	if got := store.SubscriberCount(); got != 0 {
		t.Fatalf("%d subscriptions left behind", got)
	}
}
