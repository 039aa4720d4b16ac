package objectmanager

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ray/internal/gcs"
	"ray/internal/netsim"
	"ray/internal/objectstore"
	"ray/internal/types"
)

// fakeCluster implements PeerResolver over a map of stores.
type fakeCluster struct {
	mu     sync.Mutex
	stores map[types.NodeID]*objectstore.Store
	dead   map[types.NodeID]bool
}

func newFakeCluster() *fakeCluster {
	return &fakeCluster{stores: make(map[types.NodeID]*objectstore.Store), dead: make(map[types.NodeID]bool)}
}

func (f *fakeCluster) add(node types.NodeID, store *objectstore.Store) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores[node] = store
}

func (f *fakeCluster) kill(node types.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead[node] = true
}

func (f *fakeCluster) ResolveStore(node types.NodeID) (*objectstore.Store, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[node] {
		return nil, false
	}
	s, ok := f.stores[node]
	return s, ok
}

type testEnv struct {
	gcs     *gcs.Store
	cluster *fakeCluster
	nodes   []types.NodeID
	mgrs    []*Manager
}

func newTestEnv(t *testing.T, n int, cfg Config) *testEnv {
	t.Helper()
	env := &testEnv{
		gcs:     gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1}),
		cluster: newFakeCluster(),
	}
	t.Cleanup(func() { _ = env.gcs.Close() })
	net := netsim.New(netsim.InstantConfig())
	for i := 0; i < n; i++ {
		id := types.NewNodeID()
		store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
		env.cluster.add(id, store)
		env.nodes = append(env.nodes, id)
		env.mgrs = append(env.mgrs, New(cfg, id, store, env.gcs, net, env.cluster))
	}
	return env
}

func TestPutRegistersLocation(t *testing.T) {
	env := newTestEnv(t, 1, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	creator := types.NewTaskID()
	if err := env.mgrs[0].Put(ctx, id, []byte("payload"), false, creator); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := env.gcs.GetObject(ctx, id)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !entry.HasLocation(env.nodes[0]) || entry.Size != 7 || entry.Creator != creator {
		t.Fatalf("location entry wrong: %+v", entry)
	}
	if env.mgrs[0].NodeID() != env.nodes[0] || env.mgrs[0].Local() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestPullLocalIsNoop(t *testing.T) {
	env := newTestEnv(t, 1, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, []byte("x"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[0].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	if env.mgrs[0].Stats().BytesPulled != 0 {
		t.Fatal("local pull should not transfer bytes")
	}
}

func TestPullFromRemote(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := bytes.Repeat([]byte{7}, 4096)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := env.mgrs[1].Local().Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("pulled object missing or corrupt")
	}
	// The new location must be registered in the GCS.
	entry, _, _ := env.gcs.GetObject(ctx, id)
	if len(entry.Locations) != 2 {
		t.Fatalf("expected 2 locations after pull, got %v", entry.Locations)
	}
	st := env.mgrs[1].Stats()
	if st.Pulls != 1 || st.BytesPulled != 4096 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestPullWaitsForCreation(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	errCh := make(chan error, 1)
	go func() {
		errCh <- env.mgrs[1].Pull(ctx, id)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-errCh:
		t.Fatalf("pull returned before object creation: %v", err)
	default:
	}
	if err := env.mgrs[0].Put(ctx, id, []byte("late"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull never completed after creation")
	}
	if !env.mgrs[1].Local().Contains(id) {
		t.Fatal("object not local after pull")
	}
}

func TestPullTimeoutUnknownObject(t *testing.T) {
	env := newTestEnv(t, 1, Config{TransferStreams: 1, PullTimeout: 50 * time.Millisecond})
	err := env.mgrs[0].Pull(context.Background(), types.NewObjectID())
	if !errors.Is(err, types.ErrObjectNotFound) {
		t.Fatalf("expected ErrObjectNotFound, got %v", err)
	}
}

func TestPullLostObjectReportsLost(t *testing.T) {
	env := newTestEnv(t, 2, Config{TransferStreams: 1, PullTimeout: 100 * time.Millisecond})
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, []byte("gone"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	// Simulate the node failing: drop its store contents and remove the
	// location from the GCS.
	env.cluster.kill(env.nodes[0])
	if err := env.gcs.RemoveObjectLocation(ctx, id, env.nodes[0]); err != nil {
		t.Fatal(err)
	}
	err := env.mgrs[1].Pull(ctx, id)
	if !errors.Is(err, types.ErrObjectLost) {
		t.Fatalf("expected ErrObjectLost, got %v", err)
	}
}

func TestPullRetriesAcrossDeadReplica(t *testing.T) {
	env := newTestEnv(t, 3, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := []byte("replicated")
	// Object lives on nodes 0 and 1; node 0 dies but its location entry is
	// stale. The pull must fall back to node 1.
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	env.cluster.kill(env.nodes[0])
	if err := env.mgrs[2].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := env.mgrs[2].Local().Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("pull with dead replica failed")
	}
}

func TestConcurrentPullsDeduplicated(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := bytes.Repeat([]byte{1}, 1024)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := env.mgrs[1].Pull(ctx, id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Only one transfer should have happened despite 16 concurrent pulls.
	if pulled := env.mgrs[1].Stats().BytesPulled; pulled != 1024 {
		t.Fatalf("expected exactly one transfer (1024 bytes), got %d", pulled)
	}
}

func TestErrorObjectPropagatesFlag(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, []byte("boom"), true, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, _ := env.mgrs[1].Local().Get(id)
	if !obj.IsError {
		t.Fatal("error flag lost during transfer")
	}
}

// chunkedConfig is a pipelined configuration with small chunks so modest test
// payloads exercise many windows.
func chunkedConfig() Config {
	return Config{TransferStreams: 4, ChunkBytes: 64 << 10, PipelineDepth: 2}
}

func TestChunkedPullAssemblesCorrectly(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	// Deliberately not a multiple of the chunk size: the last chunk is short.
	payload := make([]byte, 1<<20+3)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := env.mgrs[1].Local().Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("chunked pull missing or corrupt")
	}
	st := env.mgrs[1].Stats()
	wantChunks := int64((len(payload) + (64 << 10) - 1) / (64 << 10))
	if st.ChunkedPulls != 1 || st.ChunksPulled != wantChunks {
		t.Fatalf("chunk accounting wrong: %+v (want %d chunks)", st, wantChunks)
	}
	if st.BytesPulled != int64(len(payload)) {
		t.Fatalf("bytes pulled %d, want %d", st.BytesPulled, len(payload))
	}
	// The new location is registered so a third node could pull from us.
	entry, _, _ := env.gcs.GetObject(ctx, id)
	if !entry.HasLocation(env.nodes[1]) {
		t.Fatal("chunked pull did not register the new location")
	}
}

func TestChunkedPullErrorFlagPreserved(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, make([]byte, 512<<10), true, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	if obj, _ := env.mgrs[1].Local().Get(id); !obj.IsError {
		t.Fatal("error flag lost across chunked transfer")
	}
}

func TestConcurrentChunkedPullsDeduplicated(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := bytes.Repeat([]byte{9}, 768<<10)
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := env.mgrs[1].Pull(ctx, id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if pulled := env.mgrs[1].Stats().BytesPulled; pulled != int64(len(payload)) {
		t.Fatalf("expected exactly one chunked transfer (%d bytes), got %d", len(payload), pulled)
	}
}

// killAfterResolver kills a node after its store has been resolved a fixed
// number of times, simulating a source dying mid-transfer.
type killAfterResolver struct {
	inner    *fakeCluster
	victim   types.NodeID
	mu       sync.Mutex
	resolves int
	after    int
}

func (k *killAfterResolver) ResolveStore(node types.NodeID) (*objectstore.Store, bool) {
	if node == k.victim {
		k.mu.Lock()
		k.resolves++
		if k.resolves > k.after {
			k.mu.Unlock()
			return nil, false
		}
		k.mu.Unlock()
	}
	return k.inner.ResolveStore(node)
}

func TestChunkedPullFailsOverWhenSourceDiesMidTransfer(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// Two replicas: nodes 0 and 1.
	if err := env.mgrs[0].Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := env.mgrs[1].Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	// A third node whose resolver lets node 0 serve only the first couple of
	// window resolutions, then reports it dead: remaining windows must fail
	// over to node 1 without restarting the object.
	puller := types.NewNodeID()
	store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	resolver := &killAfterResolver{inner: env.cluster, victim: env.nodes[0], after: 2}
	mgr := New(chunkedConfig(), puller, store, env.gcs, netsim.New(netsim.InstantConfig()), resolver)
	if err := mgr.Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := store.Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("failover pull missing or corrupt")
	}
}

func TestChunkedPullFailsWhenAllReplicasDie(t *testing.T) {
	env := newTestEnv(t, 2, chunkedConfig())
	ctx := context.Background()
	id := types.NewObjectID()
	if err := env.mgrs[0].Put(ctx, id, make([]byte, 512<<10), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	puller := types.NewNodeID()
	store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	resolver := &killAfterResolver{inner: env.cluster, victim: env.nodes[0], after: 1}
	mgr := New(Config{TransferStreams: 2, ChunkBytes: 64 << 10, PipelineDepth: 1, PullTimeout: 100 * time.Millisecond},
		puller, store, env.gcs, netsim.New(netsim.InstantConfig()), resolver)
	err := mgr.Pull(ctx, id)
	if err == nil {
		t.Fatal("pull must fail when the only replica dies mid-transfer")
	}
	if store.Contains(id) {
		t.Fatal("failed pull must not leave a partial object visible")
	}
	if store.Used() != 0 {
		t.Fatalf("failed pull leaked reservation: used=%d", store.Used())
	}
}

func TestWaiterRetriesAfterOriginatorCancelled(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	id := types.NewObjectID()

	// Originator starts pulling an object that does not exist yet, under a
	// cancellable context.
	origCtx, cancelOrig := context.WithCancel(context.Background())
	origErr := make(chan error, 1)
	go func() { origErr <- env.mgrs[1].Pull(origCtx, id) }()

	// Waiter joins the same in-flight pull with a live context.
	time.Sleep(20 * time.Millisecond)
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- env.mgrs[1].Pull(context.Background(), id) }()
	time.Sleep(20 * time.Millisecond)

	// The originator's caller gives up: its pull fails with context.Canceled.
	cancelOrig()
	select {
	case err := <-origErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("originator should fail with its own cancellation, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("originator did not observe cancellation")
	}

	// The object is created; the waiter must have restarted the pull under
	// its own context rather than inheriting context.Canceled.
	if err := env.mgrs[0].Put(context.Background(), id, []byte("late arrival"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter with a live context must retry and succeed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed")
	}
	if !env.mgrs[1].Local().Contains(id) {
		t.Fatal("object not local after retried pull")
	}
}

func TestCancelledWaiterStillFails(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	id := types.NewObjectID()
	origCtx, cancelOrig := context.WithCancel(context.Background())
	origErr := make(chan error, 1)
	go func() { origErr <- env.mgrs[1].Pull(origCtx, id) }()
	time.Sleep(20 * time.Millisecond)

	// A waiter whose own context is also cancelled must not retry forever.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- env.mgrs[1].Pull(waiterCtx, id) }()
	time.Sleep(20 * time.Millisecond)
	cancelWaiter()
	cancelOrig()
	for _, ch := range []chan error{origErr, waiterErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected context.Canceled, got %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pull did not observe cancellation")
		}
	}
}

// TestEvictThenRepullLocationConsistency reproduces the evict/re-put race:
// the eviction's asynchronous GCS location removal must not land after the
// same object has been re-admitted and re-registered, or the directory goes
// blind to a resident replica.
func TestCancelledChunkedPullResumesWithoutRefetch(t *testing.T) {
	g := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer g.Close()
	cluster := newFakeCluster()
	// Slow enough that a pull can be cancelled mid-transfer: one stream,
	// ~20ms per 32 KiB window.
	net := netsim.New(netsim.Config{BandwidthBytesPerSec: 1.6e6, MaxParallelStreams: 1, TimeScale: 1})
	cfg := Config{TransferStreams: 1, ChunkBytes: 32 << 10, PipelineDepth: 1}
	src, dst := types.NewNodeID(), types.NewNodeID()
	srcStore := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	dstStore := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	cluster.add(src, srcStore)
	cluster.add(dst, dstStore)
	mSrc := New(cfg, src, srcStore, g, net, cluster)
	mDst := New(cfg, dst, dstStore, g, net, cluster)

	ctx := context.Background()
	id := types.NewObjectID()
	payload := make([]byte, 256<<10) // 8 windows of 32 KiB
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := mSrc.Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}

	// Start a pull and cancel it once a few windows have landed.
	pullCtx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() { errCh <- mDst.Pull(pullCtx, id) }()
	deadline := time.Now().Add(5 * time.Second)
	for mDst.Stats().ChunksPulled < 2 {
		if time.Now().After(deadline) {
			t.Fatal("pull never made progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled pull must report an error")
	}
	fetchedBeforeResume := mDst.Stats().ChunksPulled
	if fetchedBeforeResume >= 8 {
		t.Skip("transfer finished before cancellation landed; resume not exercised")
	}

	// Restart under a fresh context: the parked assembly must be reused and
	// only the missing windows fetched.
	if err := mDst.Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := dstStore.Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("resumed pull produced a corrupt object")
	}
	st := mDst.Stats()
	if st.ChunksPulled != 8 {
		t.Fatalf("no chunk may be transferred twice: fetched %d chunks for an 8-chunk object", st.ChunksPulled)
	}
	if st.ResumedPulls != 1 || st.ResumedWindows != fetchedBeforeResume {
		t.Fatalf("resume accounting wrong: %+v (windows done before resume: %d)", st, fetchedBeforeResume)
	}
}

func TestEvictThenRepullLocationConsistency(t *testing.T) {
	ctx := context.Background()
	gstore := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer gstore.Close()
	cluster := newFakeCluster()
	nodeID := types.NewNodeID()
	objA := types.NewObjectID()
	objB := types.NewObjectID()

	callbackStarted := make(chan types.ObjectID, 8)
	store := objectstore.New(objectstore.Config{
		CapacityBytes: 1000,
		OnEvict: func(obj types.ObjectID, size int64) {
			select {
			case callbackStarted <- obj:
			default:
			}
			if obj == objA {
				// A slow directory update for the object under test: a wide
				// window for the re-put to race into.
				time.Sleep(30 * time.Millisecond)
			}
			_ = gstore.RemoveObjectLocation(context.Background(), obj, nodeID)
		},
	})
	cluster.add(nodeID, store)
	mgr := New(DefaultConfig(), nodeID, store, gstore, netsim.New(netsim.InstantConfig()), cluster)
	payload := make([]byte, 600)
	if err := mgr.Put(ctx, objA, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	// Putting B evicts A; run it on another goroutine so A's slow eviction
	// callback is in flight while we re-admit A.
	putBDone := make(chan error, 1)
	go func() { putBDone <- mgr.Put(ctx, objB, payload, false, types.NilTaskID) }()
	if got := <-callbackStarted; got != objA {
		t.Fatalf("expected eviction of %s, got %s", objA, got)
	}
	// Re-admit A while its eviction notification is still pending. The
	// location registration must order after the pending removal.
	if err := mgr.Put(ctx, objA, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	if err := <-putBDone; err != nil {
		t.Fatal(err)
	}
	if !store.Contains(objA) {
		t.Fatal("re-admitted object not resident")
	}
	entry, ok, err := gstore.GetObject(ctx, objA)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if !entry.HasLocation(nodeID) {
		t.Fatalf("directory lost track of resident replica: locations=%v", entry.Locations)
	}
}

func TestWaiterRetriesAfterOriginatorDeadline(t *testing.T) {
	env := newTestEnv(t, 2, DefaultConfig())
	id := types.NewObjectID()

	// Originator pulls a not-yet-created object under a short deadline.
	origCtx, cancelOrig := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancelOrig()
	origErr := make(chan error, 1)
	go func() { origErr <- env.mgrs[1].Pull(origCtx, id) }()
	time.Sleep(15 * time.Millisecond)

	// Waiter joins with a live context before the originator's deadline.
	waiterErr := make(chan error, 1)
	go func() { waiterErr <- env.mgrs[1].Pull(context.Background(), id) }()

	select {
	case err := <-origErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("originator should report its own deadline, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("originator did not observe its deadline")
	}
	// The object arrives late: the waiter must have restarted the pull
	// rather than inheriting the originator's deadline failure.
	if err := env.mgrs[0].Put(context.Background(), id, []byte("late"), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiterErr:
		if err != nil {
			t.Fatalf("waiter with a live context must retry and succeed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed")
	}
}

// TestPullWaitsForProducerToRegister: an object is local, as far as Pull is
// concerned, only once its producer has registered the location — not from
// the moment the copy is in the store. The window is held open here by a
// pending eviction notification of the same object, which the re-put's
// registration has to wait out: a Pull in that window must wait with it.
// (Returning early lets the caller Get and free the object before there is a
// location to withdraw, and the copy leaks until job exit.)
func TestPullWaitsForProducerToRegister(t *testing.T) {
	ctx := context.Background()
	gstore := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer gstore.Close()
	cluster := newFakeCluster()
	nodeID := types.NewNodeID()
	objX, evictor := types.NewObjectID(), types.NewObjectID()

	evicting, finishEviction := make(chan struct{}), make(chan struct{})
	store := objectstore.New(objectstore.Config{
		CapacityBytes: 1000,
		OnEvict: func(obj types.ObjectID, size int64) {
			close(evicting)
			<-finishEviction
			_ = gstore.RemoveObjectLocation(context.Background(), obj, nodeID)
		},
	})
	cluster.add(nodeID, store)
	mgr := New(DefaultConfig(), nodeID, store, gstore, netsim.New(netsim.InstantConfig()), cluster)
	payload := make([]byte, 600)
	if err := mgr.Put(ctx, objX, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	// The evictor pushes X out; X's eviction callback stays open.
	evictorPut := make(chan error, 1)
	go func() { evictorPut <- mgr.Put(ctx, evictor, payload, false, types.NilTaskID) }()
	<-evicting
	for !store.Contains(evictor) {
		runtime.Gosched()
	}
	store.Delete(evictor) // room for X again, without a second eviction
	// Re-put X: the copy lands in the store, the registration parks behind
	// the pending eviction notification.
	reput := make(chan error, 1)
	go func() { reput <- mgr.Put(ctx, objX, payload, false, types.NilTaskID) }()
	for !store.Contains(objX) {
		runtime.Gosched()
	}

	pulled := make(chan error, 1)
	go func() { pulled <- mgr.Pull(ctx, objX) }()
	select {
	case err := <-pulled:
		close(finishEviction)
		t.Fatalf("Pull returned (%v) while the producer was still registering the location", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(finishEviction)
	if err := <-pulled; err != nil {
		t.Fatal(err)
	}
	entry, ok, err := gstore.GetObject(ctx, objX)
	if err != nil || !ok || !entry.HasLocation(nodeID) {
		t.Fatalf("Pull returned before the location was readable: %+v ok=%v err=%v", entry, ok, err)
	}
	for _, ch := range []chan error{reput, evictorPut} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
}

// A chunked pull whose reservation the store refuses for capacity fails with
// ErrStoreFull before a single window goes on the wire: the refusal is
// synchronous even though the buffer's allocation is not.
func TestReservationRefusedBeforeAnyWireTime(t *testing.T) {
	g := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	defer g.Close()
	cluster := newFakeCluster()
	// Every window would cost two seconds of modelled latency.
	net := netsim.New(netsim.Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 4, LatencyPerMessage: 2 * time.Second, TimeScale: 1})
	src, dst := types.NewNodeID(), types.NewNodeID()
	srcStore := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
	dstStore := objectstore.New(objectstore.Config{CapacityBytes: 1 << 20})
	cluster.add(src, srcStore)
	cluster.add(dst, dstStore)
	mSrc := New(chunkedConfig(), src, srcStore, g, net, cluster)
	mDst := New(chunkedConfig(), dst, dstStore, g, net, cluster)

	ctx := context.Background()
	blocker := types.NewObjectID()
	if err := dstStore.Put(blocker, make([]byte, 768<<10), false); err != nil || !dstStore.Pin(blocker) {
		t.Fatalf("pin the destination store full: %v", err)
	}
	id := types.NewObjectID()
	if err := mSrc.Put(ctx, id, make([]byte, 512<<10), false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	entry, ok, err := g.GetObject(ctx, id)
	if err != nil || !ok {
		t.Fatalf("object entry: ok=%v err=%v", ok, err)
	}
	start := time.Now()
	err = mDst.fetchFrom(ctx, id, entry)
	if took := time.Since(start); !errors.Is(err, types.ErrStoreFull) || took > time.Second {
		t.Fatalf("refused reservation returned %v after %v, want ErrStoreFull before any wire time", err, took)
	}
	if dstStore.Used() != 768<<10 || dstStore.Contains(id) {
		t.Fatalf("refused reservation changed the store: used=%d", dstStore.Used())
	}
}

// timedPair is a source and a destination manager over the given network,
// sharing one GCS.
func timedPair(t *testing.T, net *netsim.Network, cfg Config) (src, dst *Manager) {
	t.Helper()
	g := gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
	t.Cleanup(func() { _ = g.Close() })
	cluster := newFakeCluster()
	for _, m := range []**Manager{&src, &dst} {
		node := types.NewNodeID()
		store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 26})
		cluster.add(node, store)
		*m = New(cfg, node, store, g, net, cluster)
	}
	return src, dst
}

// A chunked pull costs at least its modelled wire time: the receive copies
// run inside it, never in place of it. Only the lower bound is asserted.
func TestChunkedPullTakesAtLeastItsWireTime(t *testing.T) {
	net := netsim.New(netsim.Config{BandwidthBytesPerSec: 64e6, MaxParallelStreams: 4, LatencyPerMessage: 5 * time.Millisecond, TimeScale: 1})
	mSrc, mDst := timedPair(t, net, chunkedConfig())

	ctx := context.Background()
	id := types.NewObjectID()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	if err := mSrc.Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}
	// 1 MiB in 64 KiB chunks, two per window: 8 windows over 4 streams, so
	// every stream carries two 128 KiB windows back to back.
	wire := 2 * net.ChunkDuration(128<<10)
	start := time.Now()
	if err := mDst.Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < wire {
		t.Fatalf("pull took %v, less than its modelled wire time %v", took, wire)
	}
	if st := mDst.Stats(); time.Duration(st.TransferNanos) < wire || st.ChunksPulled != 16 {
		t.Fatalf("pull recorded %v over %d chunks, want ≥ %v over 16", time.Duration(st.TransferNanos), st.ChunksPulled, wire)
	}
	if obj, ok := mDst.Local().Get(id); !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("pulled object missing or corrupt")
	}
}

// A pull cancelled while its window is on the wire — copied into the
// reservation, its wire time not yet over — parks without marking the window
// done; the resumed pull fetches it again and commits the right bytes.
func TestPullCancelledMidWireResumesAndCommits(t *testing.T) {
	// One stream, two 32 KiB windows, each ~100 ms on the wire.
	net := netsim.New(netsim.Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: 100 * time.Millisecond, TimeScale: 1})
	mSrc, mDst := timedPair(t, net, Config{TransferStreams: 1, ChunkBytes: 32 << 10, PipelineDepth: 1})
	dstStore := mDst.Local()

	ctx := context.Background()
	id := types.NewObjectID()
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i*29 + 3)
	}
	if err := mSrc.Put(ctx, id, payload, false, types.NilTaskID); err != nil {
		t.Fatal(err)
	}

	pullCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := mDst.Pull(pullCtx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pull cancelled mid-wire returned %v, want context.DeadlineExceeded", err)
	}
	done := mDst.Stats().ChunksPulled
	if done >= 2 {
		t.Skip("transfer finished before cancellation landed; resume not exercised")
	}
	if dstStore.Contains(id) || dstStore.Used() != int64(len(payload)) {
		t.Fatalf("a cancelled pull must park its reservation unpublished: contains=%v used=%d", dstStore.Contains(id), dstStore.Used())
	}

	if err := mDst.Pull(ctx, id); err != nil {
		t.Fatal(err)
	}
	obj, ok := dstStore.Get(id)
	if !ok || !bytes.Equal(obj.Data, payload) {
		t.Fatal("resumed pull committed the wrong bytes")
	}
	// A resume that skipped no window is not counted as one.
	st := mDst.Stats()
	if st.ResumedPulls != min(done, 1) || st.ResumedWindows != done || st.ChunksPulled != 2 {
		t.Fatalf("resume accounting wrong: %+v (windows done before resume: %d)", st, done)
	}
	if dstStore.Used() != int64(len(payload)) {
		t.Fatalf("used=%d, want %d: the parked reservation leaked", dstStore.Used(), len(payload))
	}
}
