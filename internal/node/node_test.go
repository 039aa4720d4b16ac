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
func (noopRouter) ParkWithdrawal(types.ObjectID, types.NodeID)      {}

var _ Router = noopRouter{}
var _ scheduler.Forwarder = noopRouter{}

// parkRouter records the withdrawals a node hands to the cluster's ledger.
type parkRouter struct {
	noopRouter
	parked []types.ObjectID
	nodes  []types.NodeID
}

func (r *parkRouter) ParkWithdrawal(obj types.ObjectID, node types.NodeID) {
	r.parked = append(r.parked, obj)
	r.nodes = append(r.nodes, node)
}

func newTestNode(t *testing.T) (*Node, *gcs.Store) {
	t.Helper()
	return newTestNodeWith(t, Config{}, gcs.Config{Shards: 1, ReplicationFactor: 1}, noopRouter{})
}

func newTestNodeWith(t *testing.T, cfg Config, gcsCfg gcs.Config, router Router) (*Node, *gcs.Store) {
	t.Helper()
	store := gcs.New(gcsCfg)
	t.Cleanup(func() {
		//lint:ignore errdrop test teardown of an in-memory store
		_ = store.Close()
	})
	n := New(cfg, Wiring{GCS: store, Network: netsim.New(netsim.InstantConfig()), Registry: worker.NewRegistry(),
		Peers: noopResolver{}, Router: router})
	return n, store
}

// Regression test for eviction-time location withdrawals: a withdrawal the
// GCS rejected must be handed to the cluster's ledger, not dropped — a
// phantom location would make fetchers dial this node for an object it no
// longer holds — and the ledger's retry must withdraw it once the GCS
// accepts, and keep it parked while the GCS still refuses.
func TestWithdrawalRetry(t *testing.T) {
	ctx := context.Background()
	cfg := Config{ObjectStoreBytes: 10}

	// A healthy GCS: the eviction withdraws the location itself.
	router := &parkRouter{}
	n, store := newTestNodeWith(t, cfg, gcs.Config{Shards: 1, ReplicationFactor: 1}, router)
	evicted := types.NewObjectID()
	if err := n.Store().Put(evicted, make([]byte, 8), false); err != nil {
		t.Fatal(err)
	}
	if err := store.AddObjectLocation(ctx, evicted, n.ID(), 8, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	if err := n.Store().Put(types.NewObjectID(), make([]byte, 8), false); err != nil {
		t.Fatal(err)
	}
	if n.Store().Contains(evicted) {
		t.Fatal("second object did not evict the first")
	}
	if len(router.parked) != 0 {
		t.Fatalf("a withdrawal that committed was parked: %v", router.parked)
	}
	if entry, ok, err := store.GetObject(ctx, evicted); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("evicted object still listed: %v", entry.Locations)
	}

	// A parked withdrawal is withdrawn by the retry.
	phantom := types.NewObjectID()
	if err := store.AddObjectLocation(ctx, phantom, n.ID(), 4, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	if !n.RetryWithdrawal(ctx, phantom) {
		t.Fatal("RetryWithdrawal on a healthy GCS did not settle the entry")
	}
	if entry, ok, err := store.GetObject(ctx, phantom); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("stale location survived retry: %v", entry.Locations)
	}

	// A GCS that refuses: the eviction parks (object, this node) with the
	// ledger, and the retry leaves it parked.
	router = &parkRouter{}
	n, store = newTestNodeWith(t, cfg, gcs.Config{Shards: 1, ReplicationFactor: 1, SyncWrites: true}, router)
	evicted = types.NewObjectID()
	if err := n.Store().Put(evicted, make([]byte, 8), false); err != nil {
		t.Fatal(err)
	}
	if err := store.AddObjectLocation(ctx, evicted, n.ID(), 8, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	store.Shard(0).KillReplica(0)
	if err := n.Store().Put(types.NewObjectID(), make([]byte, 8), false); err != nil {
		t.Fatal(err)
	}
	if len(router.parked) != 1 || router.parked[0] != evicted || router.nodes[0] != n.ID() {
		t.Fatalf("parked %v on %v, want [%v] on [%v]", router.parked, router.nodes, evicted, n.ID())
	}
	if n.RetryWithdrawal(ctx, evicted) {
		t.Fatal("RetryWithdrawal settled an entry the GCS refused")
	}
}

// A parked withdrawal is stale once the object is resident again (re-fetched
// after the eviction): the retry must settle it without touching the GCS.
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

	if !n.RetryWithdrawal(ctx, obj) {
		t.Fatal("stale withdrawal not settled for a resident object")
	}
	entry, ok, err := store.GetObject(ctx, obj)
	if err != nil || !ok {
		t.Fatalf("object entry missing: ok=%v err=%v", ok, err)
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
