package ray

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/types"
	"ray/internal/worker"
)

// registerBlobWorkload registers payload producers/consumers for the memory
// management tests. makeCalls counts make_blob executions per size, so tests
// can tell a disk restore (producer not re-run) from a lineage replay
// (producer re-run).
func registerBlobWorkload(t *testing.T, rt *Runtime, makeCalls *sync.Map) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rt.RegisterN("make_blob", "produces a payload of the requested size", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		var size int
		if err := codec.Decode(args[0], &size); err != nil {
			return nil, err
		}
		if makeCalls != nil {
			c, _ := makeCalls.LoadOrStore(size, new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
		}
		return [][]byte{codec.MustEncode(bytes.Repeat([]byte{0xAB}, size))}, nil
	}))
	must(rt.RegisterN("blob_size", "returns the payload's length", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		var payload []byte
		if err := codec.Decode(args[0], &payload); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(len(payload))}, nil
	}))
}

func newBlobRuntime(t *testing.T, cfg Config, makeCalls *sync.Map) (*Runtime, *Driver) {
	t.Helper()
	rt, err := Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	registerBlobWorkload(t, rt, makeCalls)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rt, d
}

// TestRefcountReleaseRaces drives many concurrent produce→consume→free
// cycles through a store small enough that spills, evictions, transfers, and
// eager reclamation all interleave. Run with -race (CI repeats it): the
// assertions are on correctness, the detector is after the interleavings of
// refcount release vs eviction vs concurrent pulls vs spill/restore.
func TestRefcountReleaseRaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.ObjectStoreBytes = 128 << 10
	cfg.SpillDir = t.TempDir()
	_, d := newBlobRuntime(t, cfg, nil)

	const (
		goroutines = 8
		iterations = 15
		blobSize   = 16 << 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				ref, err := d.Call1("make_blob", worker.CallOptions{}, blobSize)
				if err != nil {
					errs <- err
					return
				}
				szRef, err := d.Call1("blob_size", worker.CallOptions{}, ref)
				if err != nil {
					errs <- err
					return
				}
				sz, err := Get(d, RefAs[int](szRef))
				if err != nil {
					errs <- err
					return
				}
				if sz != blobSize {
					errs <- fmt.Errorf("blob size %d, want %d", sz, blobSize)
					return
				}
				d.TaskContext.Free(ref, szRef)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reclaimed := d.Runtime().Cluster().Stats().ObjectsReclaimed; reclaimed == 0 {
		t.Fatal("no objects reclaimed despite every cycle freeing its references")
	}
}

// TestConcurrentPullWithSpill spills a batch of primaries to disk and then
// pulls all of them from many goroutines at once, racing on-demand restores
// against concurrent transfers of the same object.
func TestConcurrentPullWithSpill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.ObjectStoreBytes = 100 << 10
	cfg.SpillDir = t.TempDir()
	rt, d := newBlobRuntime(t, cfg, nil)

	const (
		blobs    = 8
		blobSize = 30 << 10
	)
	refs := make([]types.ObjectID, blobs)
	for i := range refs {
		ref, err := d.Call1("make_blob", worker.CallOptions{}, blobSize)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	// Consume each once so every payload exists before the concurrent pulls.
	for _, ref := range refs {
		szRef, err := d.Call1("blob_size", worker.CallOptions{}, ref)
		if err != nil {
			t.Fatal(err)
		}
		if sz, err := Get(d, RefAs[int](szRef)); err != nil || sz != blobSize {
			t.Fatalf("warmup consume: %d, %v", sz, err)
		}
	}

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ref := range refs {
				payload, err := Get(d, RefAs[[]byte](ref))
				if err != nil {
					errs <- err
					return
				}
				if len(payload) != blobSize {
					errs <- fmt.Errorf("payload %d bytes, want %d", len(payload), blobSize)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var spills int64
	for _, n := range rt.Cluster().NodeList() {
		spills += n.Store().Stats().Spills
	}
	if spills == 0 {
		t.Fatalf("working set %d bytes never spilled in %d-byte stores; test exercised nothing", blobs*blobSize, cfg.ObjectStoreBytes)
	}
}

// TestLineageReplayOnlyAfterMissingSpill pins down the recovery ordering: a
// spilled object is restored from disk without re-running its producer, and
// lineage reconstruction is attempted only once the spill copy is actually
// gone.
func TestLineageReplayOnlyAfterMissingSpill(t *testing.T) {
	spillDir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.ObjectStoreBytes = 100 << 10
	cfg.SpillDir = spillDir

	var makeCalls sync.Map
	rt, d := newBlobRuntime(t, cfg, &makeCalls)
	callsFor := func(size int) int64 {
		c, ok := makeCalls.Load(size)
		if !ok {
			return 0
		}
		return c.(*atomic.Int64).Load()
	}
	reconstructed := func() int64 {
		var total int64
		for _, n := range rt.Cluster().NodeList() {
			total += n.Stats().Lineage.ReconstructedTasks
		}
		return total
	}

	// Distinct sizes so the producer counter distinguishes the objects.
	const sizeA, sizeB, sizeC = 60_000, 60_001, 60_002
	refA, err := d.Call1("make_blob", worker.CallOptions{}, sizeA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Get(d, RefAs[[]byte](refA)); err != nil {
		t.Fatal(err)
	}
	// B then C displace A then B from the 100 KB store: both spill to disk.
	refB, err := d.Call1("make_blob", worker.CallOptions{}, sizeB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Get(d, RefAs[[]byte](refB)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Call1("make_blob", worker.CallOptions{}, sizeC); err != nil {
		t.Fatal(err)
	}

	matches, err := filepath.Glob(filepath.Join(spillDir, "*", refA.String()+".obj"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one spill file for A, got %v (err %v)", matches, err)
	}

	// A spilled copy is restored from disk: the producer does not re-run and
	// no lineage reconstruction happens.
	payload, err := Get(d, RefAs[[]byte](refB))
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != sizeB {
		t.Fatalf("restored B is %d bytes, want %d", len(payload), sizeB)
	}
	if got := callsFor(sizeB); got != 1 {
		t.Fatalf("producer of B ran %d times after a disk restore, want 1", got)
	}
	if got := reconstructed(); got != 0 {
		t.Fatalf("%d lineage reconstructions before any spill copy was lost", got)
	}

	// Lose A's spill copy out-of-band. Only now may lineage replay kick in.
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	payload, err = Get(d, RefAs[[]byte](refA))
	if err != nil {
		t.Fatalf("Get after lost spill copy: %v", err)
	}
	if len(payload) != sizeA {
		t.Fatalf("reconstructed A is %d bytes, want %d", len(payload), sizeA)
	}
	if got := callsFor(sizeA); got < 2 {
		t.Fatalf("producer of A ran %d times, want >= 2 (lineage replay after lost spill copy)", got)
	}
}

// TestFreedInputOfRunningConsumerIsReclaimed frees a task's input while the
// task is still inside Run. The last reference then dies with the task, in
// its own completion path, and the replica and its directory entry must go
// with it — directly: heartbeats are an hour apart here, so the withdrawal
// retry that would eventually sweep up a refused delete never runs. Run with
// -race (CI repeats it).
func TestFreedInputOfRunningConsumerIsReclaimed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.HeartbeatInterval = time.Hour
	rt, d := newBlobRuntime(t, cfg, nil)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	if err := rt.RegisterN("hold_blob", "reports the payload's length once released", 1, func(ctx *Context, args [][]byte) ([][]byte, error) {
		started <- struct{}{}
		<-release
		var payload []byte
		if err := codec.Decode(args[0], &payload); err != nil {
			return nil, err
		}
		return [][]byte{codec.MustEncode(len(payload))}, nil
	}); err != nil {
		t.Fatal(err)
	}

	const blobSize = 32 << 10
	blob, err := d.Call1("make_blob", worker.CallOptions{}, blobSize)
	if err != nil {
		t.Fatal(err)
	}
	held, err := d.Call1("hold_blob", worker.CallOptions{}, blob)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// The consumer is inside Run with the blob pinned; the driver lets go.
	d.TaskContext.Free(blob)
	close(release)
	if got, err := Get(d, RefAs[int](held)); err != nil || got != blobSize {
		t.Fatalf("hold_blob = %d, %v; want %d", got, err, blobSize)
	}
	d.TaskContext.Free(held)

	c := rt.Cluster()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resident int64
		for _, n := range c.AliveNodes() {
			resident += n.Store().Used()
		}
		entry, ok, err := c.GCS().GetObject(context.Background(), blob)
		if err != nil {
			t.Fatal(err)
		}
		if resident == 0 && (!ok || len(entry.Locations) == 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("freed input not reclaimed: %d bytes resident, locations %v, %d withdrawals parked",
				resident, entry.Locations, c.PendingWithdrawals())
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.PendingWithdrawals(); got != 0 {
		t.Fatalf("%d withdrawals parked; the direct path should have needed none", got)
	}
}
