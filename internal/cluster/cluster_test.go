package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/node"
	"ray/internal/resources"
	"ray/internal/types"
	"ray/internal/worker"
)

// newTestCluster builds and starts a cluster with test-friendly remote
// functions registered. The cleanup shuts it down.
func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	return startTestCluster(t, New(cfg))
}

// startTestCluster starts c and registers the test functions on it.
func startTestCluster(t *testing.T, c *Cluster) *Cluster {
	t.Helper()
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	err := c.Registry().Register("test.echo", func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Registry().Register("test.sleep", func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		var ms int
		if err := codec.Decode(args[0], &ms); err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return [][]byte{codec.MustEncode(true)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Registry().RegisterActorClass("test.Counter", func(ctx *worker.TaskContext, args [][]byte) (any, error) {
		return &counterActor{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Registry().RegisterActorMethod("test.Counter", "add",
		func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
			a, ok := state.(*counterActor)
			if !ok {
				return nil, fmt.Errorf("counter instance is %T", state)
			}
			var n int
			if err := codec.Decode(args[0], &n); err != nil {
				return nil, err
			}
			a.total += n
			return [][]byte{codec.MustEncode(a.total)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// counterActor is a minimal stateful actor; its single "add" method lives on
// the registration-time method table.
type counterActor struct {
	total int
}

// driverOn attaches a driver-like task context to a node, the same way
// ray.Runtime.NewDriverOn does.
func driverOn(n *node.Node) *worker.TaskContext {
	return worker.NewTaskContext(context.Background(), n.IDs().NextTaskID(), types.NilJobID, types.NewDriverID(), n.ID(), n, n.IDs())
}

func TestClusterLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	c := newTestCluster(t, cfg)

	if len(c.AliveNodes()) != 3 {
		t.Fatalf("alive nodes = %d, want 3", len(c.AliveNodes()))
	}
	entries, err := c.GCS().AliveNodes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("GCS membership = %d entries, want 3", len(entries))
	}

	// Run one task end to end through the runtime surface.
	d := driverOn(c.HeadNode())
	ref, err := d.Call1("test.echo", worker.CallOptions{}, "hello")
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := d.Get(ref, &out); err != nil {
		t.Fatal(err)
	}
	if out != "hello" {
		t.Fatalf("echo returned %q", out)
	}

	// Shutdown is graceful and idempotent.
	c.Shutdown()
	c.Shutdown()
	if c.HeadNode() == nil {
		t.Fatal("graceful shutdown must not kill nodes")
	}
}

func TestAddNodeAndKillNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	added, err := c.AddNode(ctx, cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.AliveNodes()) != 2 {
		t.Fatalf("alive nodes = %d after AddNode, want 2", len(c.AliveNodes()))
	}
	entries, err := c.GCS().AliveNodes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("GCS membership = %d after AddNode, want 2", len(entries))
	}

	if err := c.KillNode(ctx, added.ID()); err != nil {
		t.Fatal(err)
	}
	if !added.Dead() {
		t.Fatal("killed node must report dead")
	}
	if len(c.AliveNodes()) != 1 {
		t.Fatalf("alive nodes = %d after KillNode, want 1", len(c.AliveNodes()))
	}
	entry, ok, err := c.GCS().GetNode(ctx, added.ID())
	if err != nil || !ok {
		t.Fatalf("killed node missing from GCS: %v", err)
	}
	if entry.State != types.NodeDead {
		t.Fatal("GCS must record the node as dead")
	}
	if err := c.KillNode(ctx, types.NewNodeID()); !errors.Is(err, types.ErrNodeNotFound) {
		t.Fatalf("killing an unknown node: %v, want ErrNodeNotFound", err)
	}
}

func TestForwardTaskSpillsOverloadedNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.CPUs = 1
	cfg.SpilloverThreshold = 1
	c := newTestCluster(t, cfg)

	// Make load visible to the global scheduler before the burst.
	for _, n := range c.AliveNodes() {
		if err := n.SendHeartbeat(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// A burst of sleeping tasks against a threshold of 1 must spill from the
	// head node through the global scheduler.
	d := driverOn(c.HeadNode())
	refs := make([]types.ObjectID, 12)
	for i := range refs {
		ref, err := d.Call1("test.sleep", worker.CallOptions{Resources: resources.CPUs(1)}, 10)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for _, ref := range refs {
		var ok bool
		if err := d.Get(ref, &ok); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Forwards == 0 {
		t.Fatal("overloaded node never forwarded to the global scheduler")
	}
	// A task's output is published (and its Get returns) before the scheduler
	// counts it completed: wait for the counter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var completed int64
		for _, n := range c.NodeList() {
			completed += n.Stats().Scheduler.Completed
		}
		if completed == int64(len(refs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("completed = %d, want %d", completed, len(refs))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestActorReconstructionAfterNodeKill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	c := newTestCluster(t, cfg)
	ctx := context.Background()

	d := driverOn(c.HeadNode())
	handle, err := d.CreateActor("test.Counter", worker.CallOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.CallActor1(handle, "add", worker.CallOptions{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	if err := d.Get(ref, &total); err != nil {
		t.Fatal(err)
	}
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}

	// Kill the node hosting the actor.
	entry, ok, err := c.GCS().GetActor(ctx, handle.ID)
	if err != nil || !ok {
		t.Fatalf("actor entry missing: %v", err)
	}
	if err := c.KillNode(ctx, entry.Node); err != nil {
		t.Fatal(err)
	}

	// The next method call routes through RouteActorTask, which must replay
	// the creation and the lost method on a surviving node. The driver moves
	// to a survivor too (its node may have hosted the actor).
	d2 := driverOn(c.HeadNode())
	ref, err = d2.CallActor1(handle, "add", worker.CallOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Get(ref, &total); err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("total after reconstruction = %d, want 8 (state replayed)", total)
	}
	if c.Stats().ActorsReconstructed == 0 {
		t.Fatal("reconstruction not recorded")
	}
	fresh, ok, err := c.GCS().GetActor(ctx, handle.ID)
	if err != nil || !ok {
		t.Fatal("actor entry missing after reconstruction")
	}
	if fresh.State != types.ActorAlive {
		t.Fatalf("actor state %v, want alive", fresh.State)
	}
	if host := c.Node(fresh.Node); host == nil || host.Dead() {
		t.Fatal("actor rehomed to a dead node")
	}
}

func TestClusterRunsTasksEndToEndBothControlPlanes(t *testing.T) {
	// A cluster over the batched GCS write path (what every cluster runs)
	// and one over the synchronous store the gcs tests use as their
	// reference must behave identically from the application's view.
	for _, mode := range []string{"batched", "sync"} {
		t.Run(mode, func(t *testing.T) {
			sync := mode == "sync"
			cfg := DefaultConfig()
			cfg.Nodes = 3
			cfg.HeartbeatInterval = 5 * time.Millisecond
			c := startTestCluster(t, newCluster(cfg, sync))
			d := driverOn(c.HeadNode())
			refs := make([]types.ObjectID, 50)
			for i := range refs {
				ref, err := d.Call1("test.echo", worker.CallOptions{}, i)
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = ref
			}
			for i, ref := range refs {
				var out int
				if err := d.Get(ref, &out); err != nil {
					t.Fatal(err)
				}
				if out != i {
					t.Fatalf("task %d returned %d", i, out)
				}
			}
			// The configured write path is the one that actually ran.
			batchedWrites := c.GCS().Stats().BatchedWrites
			if sync && batchedWrites != 0 {
				t.Fatalf("sync mode took the batching path (%d writes)", batchedWrites)
			}
			if !sync && batchedWrites == 0 {
				t.Fatal("no writes took the batching path")
			}
			// The aggregator's heartbeats keep membership fresh over either
			// write path.
			deadline := time.Now().Add(5 * time.Second)
			for {
				entries, err := c.GCS().AliveNodes(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				fresh := 0
				for _, e := range entries {
					if e.HeartbeatAge(time.Now()) < time.Second {
						fresh++
					}
				}
				if len(entries) == 3 && fresh == 3 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("heartbeats stale: %d of %d fresh", fresh, len(entries))
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// Regression test for failed location withdrawals during reclamation: a
// withdrawal that could not commit to the GCS is parked and retried, not
// dropped — otherwise the object directory would point at deleted replicas
// forever and fetchers would hang on phantom locations.
func TestWithdrawalRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	n := c.AliveNodes()[0]

	// An object whose replica was deleted but whose location withdrawal
	// failed: the location is still in the GCS, the store copy is gone.
	obj := types.NewObjectID()
	if err := c.GCS().AddObjectLocation(ctx, obj, n.ID(), 8, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	c.ParkWithdrawal(obj, n.ID())
	if got := c.PendingWithdrawals(); got != 1 {
		t.Fatalf("PendingWithdrawals = %d, want 1", got)
	}

	c.retryWithdrawals(ctx)

	if got := c.PendingWithdrawals(); got != 0 {
		t.Fatalf("PendingWithdrawals after retry = %d, want 0", got)
	}
	if entry, ok, err := c.GCS().GetObject(ctx, obj); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("stale location survived retry: %v", entry.Locations)
	}
}

// A parked withdrawal must be dropped — without touching the GCS — when the
// node has meanwhile re-fetched the object: the location is valid again.
func TestWithdrawalRetrySkipsRefetchedObject(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	n := c.AliveNodes()[0]

	obj := types.NewObjectID()
	if err := n.Store().Put(obj, []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	if err := c.GCS().AddObjectLocation(ctx, obj, n.ID(), 7, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	c.ParkWithdrawal(obj, n.ID())

	c.retryWithdrawals(ctx)

	if got := c.PendingWithdrawals(); got != 0 {
		t.Fatalf("stale withdrawal not cleared: PendingWithdrawals = %d", got)
	}
	entry, ok, err := c.GCS().GetObject(ctx, obj)
	if err != nil || !ok {
		t.Fatalf("object entry missing: ok=%v err=%v", ok, err)
	}
	if len(entry.Locations) != 1 || entry.Locations[0] != n.ID() {
		t.Fatalf("valid location withdrawn for resident object: %v", entry.Locations)
	}
}

// A node that parks an eviction-time withdrawal and then dies must not leave
// the directory naming it: the node's own ledger died with it and Kill only
// withdraws what its store still holds, so the cluster's ledger has to retry
// the entry — otherwise WaitObjects calls the object ready forever.
func TestWithdrawalRetryOnDeadNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	n := c.AliveNodes()[1]

	obj := types.NewObjectID()
	if err := c.GCS().AddObjectLocation(ctx, obj, n.ID(), 8, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	c.ParkWithdrawal(obj, n.ID()) // what n's eviction callback does when the GCS refuses
	if err := c.KillNode(ctx, n.ID()); err != nil {
		t.Fatal(err)
	}
	c.retryWithdrawals(ctx)

	if got := c.PendingWithdrawals(); got != 0 {
		t.Fatalf("PendingWithdrawals after retry = %d, want 0", got)
	}
	if entry, ok, err := c.GCS().GetObject(ctx, obj); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("the directory still names the dead node: %v", entry.Locations)
	}
}

// No node has a loop of its own: the running heartbeat aggregator is what
// retries a parked eviction withdrawal, with nobody calling retryWithdrawals.
func TestAggregatorRetriesEvictionWithdrawal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.HeartbeatInterval = time.Millisecond
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	n := c.AliveNodes()[0]

	obj := types.NewObjectID()
	if err := c.GCS().AddObjectLocation(ctx, obj, n.ID(), 8, types.NewTaskID(), types.NilJobID); err != nil {
		t.Fatal(err)
	}
	c.ParkWithdrawal(obj, n.ID())
	deadline := time.Now().Add(5 * time.Second)
	for c.PendingWithdrawals() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the aggregator never retried the parked withdrawal")
		}
		time.Sleep(time.Millisecond)
	}
	if entry, ok, err := c.GCS().GetObject(ctx, obj); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("phantom location survived the aggregator: %v", entry.Locations)
	}
}

// A replica pinned by a running task when its object's last reference dies
// cannot be deleted on the spot. Reclamation must park it — replica and
// location stay while the pin holds — and the heartbeat retry must finish
// the job once the task lets go, instead of the pair leaking until job exit.
func TestReclaimParksPinnedReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := newTestCluster(t, cfg)
	ctx := context.Background()
	pinnedOn, other := c.AliveNodes()[0], c.AliveNodes()[1]

	obj := types.NewObjectID()
	for _, n := range []*node.Node{pinnedOn, other} {
		if err := n.ObjectManager().Put(ctx, obj, []byte("payload"), false, types.NewTaskID()); err != nil {
			t.Fatal(err)
		}
	}
	if !pinnedOn.Store().Pin(obj) {
		t.Fatal("pin failed")
	}

	c.reclaimObject(ctx, obj)

	if other.Store().Contains(obj) {
		t.Fatal("unpinned replica survived reclamation")
	}
	if !pinnedOn.Store().Contains(obj) {
		t.Fatal("pinned replica was deleted under its task")
	}
	entry, ok, err := c.GCS().GetObject(ctx, obj)
	if err != nil || !ok {
		t.Fatalf("object entry missing: ok=%v err=%v", ok, err)
	}
	if len(entry.Locations) != 1 || entry.Locations[0] != pinnedOn.ID() {
		t.Fatalf("locations after reclaim = %v, want only the pinned replica's", entry.Locations)
	}
	if got := c.PendingWithdrawals(); got != 1 {
		t.Fatalf("PendingWithdrawals = %d, want the pinned replica parked", got)
	}

	// Still pinned at the next tick: nothing changes.
	c.retryWithdrawals(ctx)
	if !pinnedOn.Store().Contains(obj) || c.PendingWithdrawals() != 1 {
		t.Fatal("retry did not wait for the pin")
	}

	pinnedOn.Store().Unpin(obj)
	c.retryWithdrawals(ctx)

	if pinnedOn.Store().Contains(obj) {
		t.Fatal("replica survived the retry after its pin was released")
	}
	if entry, ok, err := c.GCS().GetObject(ctx, obj); err != nil {
		t.Fatal(err)
	} else if ok && len(entry.Locations) != 0 {
		t.Fatalf("location survived the retry: %v", entry.Locations)
	}
	if got := c.PendingWithdrawals(); got != 0 {
		t.Fatalf("PendingWithdrawals after retry = %d, want 0", got)
	}
	if got := c.Stats().ObjectsReclaimed; got != 2 {
		t.Fatalf("ObjectsReclaimed = %d, want both replicas counted", got)
	}
}

// gatedCounter registers an actor class whose constructor blocks until the
// test opens the current gate, and whose "add" reports when it ran: what a
// test needs to hold an actor method call in RouteActorTask's (or the
// reconstruction's) wait and then time the wake-up.
type gatedCounter struct {
	gate chan chan struct{} // the constructor takes its gate from here
	ran  chan time.Time
}

func registerGatedCounter(t *testing.T, c *Cluster) *gatedCounter {
	t.Helper()
	g := &gatedCounter{gate: make(chan chan struct{}, 1), ran: make(chan time.Time, 1)}
	err := c.Registry().RegisterActorClass("test.Gated", func(ctx *worker.TaskContext, args [][]byte) (any, error) {
		<-<-g.gate
		return &counterActor{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Registry().RegisterActorMethod("test.Gated", "add",
		func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
			g.ran <- time.Now()
			return [][]byte{args[0]}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// openAndTime waits until a caller is parked on the actor entry's
// subscription, opens the gate, and returns how long the method took to run
// from there.
func (g *gatedCounter) openAndTime(t *testing.T, c *Cluster, gate chan struct{}) time.Duration {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.GCS().SubscriberCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no caller is waiting on the actor entry")
		}
		time.Sleep(100 * time.Microsecond)
	}
	opened := time.Now()
	close(gate)
	select {
	case at := <-g.ran:
		return at.Sub(opened)
	case <-time.After(5 * time.Second):
		t.Fatal("the method never ran")
		return 0
	}
}

func medianOf(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

// TestFirstActorCallWokenByCreation: a method call on an actor whose creation
// task has not finished waits on the actor entry's subscription and is routed
// as soon as the creation task writes the entry — not at the next tick of a
// 1 ms poll, which no median under a millisecond could come from.
func TestFirstActorCallWokenByCreation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	c := newTestCluster(t, cfg)
	g := registerGatedCounter(t, c)
	d := driverOn(c.HeadNode())
	var delays []time.Duration
	for i := 0; i < 30; i++ {
		gate := make(chan struct{})
		g.gate <- gate
		handle, err := d.CreateActor("test.Gated", worker.CallOptions{ZeroResources: true})
		if err != nil {
			t.Fatal(err)
		}
		called := make(chan error, 1)
		go func() {
			_, err := d.CallActor1(handle, "add", worker.CallOptions{}, i)
			called <- err
		}()
		delays = append(delays, g.openAndTime(t, c, gate))
		if err := <-called; err != nil {
			t.Fatal(err)
		}
	}
	if m := medianOf(delays); m > time.Millisecond {
		t.Fatalf("median creation-to-first-method %v (max %v): the call is not woken by the entry's write", m, delays[len(delays)-1])
	}
	if n := c.GCS().SubscriberCount(); n != 0 {
		t.Fatalf("%d subscriptions left behind", n)
	}
}

// TestActorCallDuringReconstructionWokenByReplay: the same for a call that
// finds its actor's node dead — the reconstruction it triggers waits for the
// replayed creation on the entry's subscription.
func TestActorCallDuringReconstructionWokenByReplay(t *testing.T) {
	var delays []time.Duration
	for i := 0; i < 15; i++ {
		cfg := DefaultConfig()
		cfg.Nodes = 3
		c := newTestCluster(t, cfg)
		g := registerGatedCounter(t, c)
		ctx := context.Background()
		d := driverOn(c.HeadNode())
		first := make(chan struct{})
		close(first)
		g.gate <- first
		handle, err := d.CreateActor("test.Gated", worker.CallOptions{ZeroResources: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := d.CallActor1(handle, "add", worker.CallOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var echoed int
		if err := d.Get(ref, &echoed); err != nil {
			t.Fatal(err)
		}
		<-g.ran
		entry, ok, err := c.GCS().GetActor(ctx, handle.ID)
		if err != nil || !ok {
			t.Fatalf("actor entry missing: %v", err)
		}
		if err := c.KillNode(ctx, entry.Node); err != nil {
			t.Fatal(err)
		}

		gate := make(chan struct{})
		g.gate <- gate
		d2 := driverOn(c.HeadNode())
		called := make(chan error, 1)
		go func() {
			_, err := d2.CallActor1(handle, "add", worker.CallOptions{}, 2)
			called <- err
		}()
		delays = append(delays, g.openAndTime(t, c, gate))
		if err := <-called; err != nil {
			t.Fatal(err)
		}
		if c.Stats().ActorsReconstructed != 1 {
			t.Fatal("reconstruction not recorded")
		}
		c.Shutdown()
	}
	if m := medianOf(delays); m > time.Millisecond {
		t.Fatalf("median replay-to-method %v (max %v): the reconstruction is not woken by the entry's write", m, delays[len(delays)-1])
	}
}
