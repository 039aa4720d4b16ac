package objectstore

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ray/internal/types"
)

func TestPutGet(t *testing.T) {
	s := New(DefaultConfig())
	id := types.NewObjectID()
	data := []byte("immutable payload")
	if err := s.Put(id, data, false); err != nil {
		t.Fatal(err)
	}
	obj, ok := s.Get(id)
	if !ok || !bytes.Equal(obj.Data, data) || obj.IsError {
		t.Fatalf("get: %+v %v", obj, ok)
	}
	if obj.Size() != int64(len(data)) {
		t.Fatal("size wrong")
	}
	// The store must own its copy: mutating the caller's buffer afterwards
	// must not change the stored object.
	data[0] = 'X'
	obj2, _ := s.Get(id)
	if obj2.Data[0] == 'X' {
		t.Fatal("store aliased caller buffer")
	}
	// Same-node reads are zero-copy: both Gets return the same buffer.
	if &obj.Data[0] != &obj2.Data[0] {
		t.Fatal("expected zero-copy shared buffer within a node")
	}
	if !s.Contains(id) || s.Contains(types.NewObjectID()) {
		t.Fatal("contains wrong")
	}
	if s.Len() != 1 || s.Used() != int64(len(data)) {
		t.Fatalf("len=%d used=%d", s.Len(), s.Used())
	}
}

func TestPutIdempotent(t *testing.T) {
	s := New(DefaultConfig())
	id := types.NewObjectID()
	if err := s.Put(id, []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Used() != 2 {
		t.Fatalf("duplicate put changed accounting: len=%d used=%d", s.Len(), s.Used())
	}
}

func TestErrorObjects(t *testing.T) {
	s := New(DefaultConfig())
	id := types.NewObjectID()
	if err := s.Put(id, []byte("task failed: boom"), true); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Get(id)
	if !obj.IsError {
		t.Fatal("error flag lost")
	}
}

func TestObjectLargerThanCapacity(t *testing.T) {
	s := New(Config{CapacityBytes: 100})
	err := s.Put(types.NewObjectID(), make([]byte, 200), false)
	if !errors.Is(err, types.ErrStoreFull) {
		t.Fatalf("expected ErrStoreFull, got %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	var evictedMu sync.Mutex
	evicted := make(map[types.ObjectID]int64)
	s := New(Config{
		CapacityBytes: 1000,
		OnEvict: func(id types.ObjectID, size int64) {
			evictedMu.Lock()
			evicted[id] = size
			evictedMu.Unlock()
		},
	})
	var ids []types.ObjectID
	for i := 0; i < 10; i++ {
		id := types.NewObjectID()
		ids = append(ids, id)
		if err := s.Put(id, make([]byte, 100), false); err != nil {
			t.Fatal(err)
		}
	}
	if s.Used() != 1000 {
		t.Fatalf("used=%d", s.Used())
	}
	// Touch the first object so it becomes most recently used; the second
	// object should then be the eviction victim.
	s.Get(ids[0])
	if err := s.Put(types.NewObjectID(), make([]byte, 150), false); err != nil {
		t.Fatal(err)
	}
	if s.Contains(ids[1]) || s.Contains(ids[2]) {
		t.Fatal("LRU victims not evicted")
	}
	if !s.Contains(ids[0]) {
		t.Fatal("recently used object evicted")
	}
	if s.Used() > 1000 {
		t.Fatalf("capacity exceeded: %d", s.Used())
	}
	if s.Stats().Evictions < 2 {
		t.Fatalf("eviction counter wrong: %+v", s.Stats())
	}
	// The eviction callback fires asynchronously; wait briefly.
	deadline := time.Now().Add(time.Second)
	for {
		evictedMu.Lock()
		n := len(evicted)
		evictedMu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	evictedMu.Lock()
	defer evictedMu.Unlock()
	if len(evicted) < 2 || evicted[ids[1]] != 100 {
		t.Fatalf("eviction callback missing: %v", evicted)
	}
}

func TestPinnedObjectsSurviveEviction(t *testing.T) {
	s := New(Config{CapacityBytes: 300})
	pinned := types.NewObjectID()
	if err := s.Put(pinned, make([]byte, 100), false); err != nil {
		t.Fatal(err)
	}
	if !s.Pin(pinned) {
		t.Fatal("pin failed")
	}
	// Fill the store; the pinned object must never be evicted.
	for i := 0; i < 10; i++ {
		if err := s.Put(types.NewObjectID(), make([]byte, 100), false); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(pinned) {
		t.Fatal("pinned object was evicted")
	}
	// A request that can only be satisfied by evicting pinned objects fails.
	if err := s.Put(types.NewObjectID(), make([]byte, 250), false); !errors.Is(err, types.ErrStoreFull) {
		t.Fatalf("expected ErrStoreFull when only pinned objects remain evictable, got %v", err)
	}
	// After unpinning it becomes evictable again.
	s.Unpin(pinned)
	if err := s.Put(types.NewObjectID(), make([]byte, 250), false); err != nil {
		t.Fatal(err)
	}
	if s.Pin(types.NewObjectID()) {
		t.Fatal("pin of missing object must fail")
	}
	s.Unpin(types.NewObjectID()) // must not panic
}

func TestDeleteRespectsPins(t *testing.T) {
	s := New(DefaultConfig())
	id := types.NewObjectID()
	s.Put(id, []byte("x"), false)
	s.Pin(id)
	if s.Delete(id) {
		t.Fatal("pinned object deleted")
	}
	s.Unpin(id)
	if !s.Delete(id) {
		t.Fatal("delete failed")
	}
	if s.Delete(id) {
		t.Fatal("double delete succeeded")
	}
}

func TestWaitBlocksUntilPut(t *testing.T) {
	s := New(DefaultConfig())
	id := types.NewObjectID()
	done := make(chan *Object, 1)
	go func() {
		obj, err := s.Wait(context.Background(), id)
		if err != nil {
			t.Error(err)
		}
		done <- obj
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("wait returned before put")
	default:
	}
	if err := s.Put(id, []byte("arrived"), false); err != nil {
		t.Fatal(err)
	}
	select {
	case obj := <-done:
		if string(obj.Data) != "arrived" {
			t.Fatalf("wrong object: %q", obj.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wait did not wake up")
	}
}

func TestWaitCancellation(t *testing.T) {
	s := New(DefaultConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, types.NewObjectID()); err == nil {
		t.Fatal("cancelled wait must fail")
	}
}

func TestDropAll(t *testing.T) {
	s := New(DefaultConfig())
	pinned := types.NewObjectID()
	s.Put(pinned, []byte("keep"), false)
	s.Pin(pinned)
	for i := 0; i < 5; i++ {
		s.Put(types.NewObjectID(), []byte("drop"), false)
	}
	dropped := s.DropAll()
	if len(dropped) != 5 {
		t.Fatalf("dropped %d objects", len(dropped))
	}
	if !s.Contains(pinned) || s.Len() != 1 {
		t.Fatal("pinned object must survive DropAll")
	}
	list := s.List()
	if len(list) != 1 || list[0] != pinned {
		t.Fatalf("list wrong: %v", list)
	}
}

func TestParallelCopyCorrectness(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 28, CopyThreads: 8, CopyThreshold: 1024})
	data := make([]byte, 3_000_001) // deliberately not a multiple of the thread count
	for i := range data {
		data[i] = byte(i * 31)
	}
	id := types.NewObjectID()
	if err := s.Put(id, data, false); err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Get(id)
	if !bytes.Equal(obj.Data, data) {
		t.Fatal("parallel copy corrupted payload")
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(DefaultConfig())
	id := types.NewObjectID()
	s.Put(id, []byte("x"), false)
	s.Get(id)
	s.Get(types.NewObjectID())
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 2 || st.Hits != 1 || st.Objects != 1 || st.Used != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if s.Capacity() != 1<<30 {
		t.Fatal("capacity wrong")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := New(Config{CapacityBytes: 1 << 26, CopyThreads: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := types.NewObjectID()
				payload := bytes.Repeat([]byte{byte(g)}, 128)
				if err := s.Put(id, payload, false); err != nil {
					t.Error(err)
					return
				}
				obj, ok := s.Get(id)
				if !ok || !bytes.Equal(obj.Data, payload) {
					t.Error("read back mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: used bytes always equals the sum of resident object sizes and
// never exceeds capacity, across random Put/Get/Delete sequences.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(Config{CapacityBytes: 4096})
		ids := make([]types.ObjectID, 0)
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				id := types.NewObjectID()
				size := int(op % 512)
				if err := s.Put(id, make([]byte, size), false); err != nil {
					return false
				}
				ids = append(ids, id)
			case 2:
				if len(ids) > 0 {
					s.Delete(ids[int(op)%len(ids)])
				}
			}
			if s.Used() > 4096 || s.Used() < 0 {
				return false
			}
			var sum int64
			for _, id := range s.List() {
				if obj, ok := s.Get(id); ok {
					sum += obj.Size()
				}
			}
			if sum != s.Used() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBeginPutCommit(t *testing.T) {
	s := New(Config{CapacityBytes: 1000})
	id := types.NewObjectID()
	p, ok, err := s.BeginPut(id, 600, false)
	if err != nil || !ok {
		t.Fatalf("BeginPut: ok=%v err=%v", ok, err)
	}
	// The reservation counts against capacity but is invisible.
	if s.Used() != 600 || s.Contains(id) || s.Len() != 0 {
		t.Fatalf("pending reservation wrong: used=%d contains=%v", s.Used(), s.Contains(id))
	}
	// Concurrent-style chunk fills on disjoint ranges.
	buf := p.Data()
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	p.Commit()
	obj, found := s.Get(id)
	if !found || len(obj.Data) != 600 || obj.Data[599] != byte(599*7%256) {
		t.Fatal("committed object missing or corrupt")
	}
	if s.Used() != 600 || s.Len() != 1 {
		t.Fatalf("post-commit accounting wrong: used=%d len=%d", s.Used(), s.Len())
	}
	// A waiter blocked on the object is woken by Commit.
	id2 := types.NewObjectID()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.Wait(context.Background(), id2); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	p2, ok, err := s.BeginPut(id2, 100, false)
	if err != nil || !ok {
		t.Fatal("second BeginPut failed")
	}
	p2.Commit()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Commit did not wake waiter")
	}
}

func TestBeginPutAbortReleasesReservation(t *testing.T) {
	s := New(Config{CapacityBytes: 1000})
	id := types.NewObjectID()
	p, ok, err := s.BeginPut(id, 900, true)
	if err != nil || !ok {
		t.Fatal(err)
	}
	p.Abort()
	if s.Used() != 0 || s.Contains(id) {
		t.Fatalf("abort leaked reservation: used=%d", s.Used())
	}
	// Abort after Commit is a no-op.
	p2, _, _ := s.BeginPut(id, 100, false)
	p2.Commit()
	p2.Abort()
	if s.Used() != 100 || !s.Contains(id) {
		t.Fatalf("abort after commit corrupted state: used=%d", s.Used())
	}
	// Commit after Abort must not resurrect the buffer.
	p3, _, _ := s.BeginPut(types.NewObjectID(), 100, false)
	p3.Abort()
	p3.Commit()
	if s.Used() != 100 || s.Len() != 1 {
		t.Fatalf("commit after abort corrupted state: used=%d len=%d", s.Used(), s.Len())
	}
}

func TestBeginPutPendingIsUnevictable(t *testing.T) {
	s := New(Config{CapacityBytes: 1000})
	p, ok, err := s.BeginPut(types.NewObjectID(), 800, false)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// The pending reservation cannot be evicted to make room.
	if err := s.Put(types.NewObjectID(), make([]byte, 300), false); !errors.Is(err, types.ErrStoreFull) {
		t.Fatalf("expected ErrStoreFull while assembly pins the store, got %v", err)
	}
	p.Commit()
	// Once committed the object is a normal eviction candidate.
	if err := s.Put(types.NewObjectID(), make([]byte, 300), false); err != nil {
		t.Fatal(err)
	}
}

func TestBeginPutAlreadyResident(t *testing.T) {
	s := New(Config{CapacityBytes: 1000})
	id := types.NewObjectID()
	if err := s.Put(id, []byte("resident"), false); err != nil {
		t.Fatal(err)
	}
	p, ok, err := s.BeginPut(id, 8, false)
	if err != nil || ok || p != nil {
		t.Fatalf("BeginPut of resident object must refuse: ok=%v err=%v", ok, err)
	}
	// Oversized reservations fail up front.
	if _, _, err := s.BeginPut(types.NewObjectID(), 2000, false); !errors.Is(err, types.ErrStoreFull) {
		t.Fatalf("expected ErrStoreFull, got %v", err)
	}
}

func TestBeginPutCommitRaceWithPut(t *testing.T) {
	s := New(Config{CapacityBytes: 1000})
	id := types.NewObjectID()
	p, ok, err := s.BeginPut(id, 100, false)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// The object arrives through the normal path while assembly is in flight.
	if err := s.Put(id, make([]byte, 100), false); err != nil {
		t.Fatal(err)
	}
	p.Commit() // must release the reservation, not double-account
	if s.Used() != 100 || s.Len() != 1 {
		t.Fatalf("double-accounted: used=%d len=%d", s.Used(), s.Len())
	}
}

func TestEvictionNotificationSynchronousAndOrdered(t *testing.T) {
	var notified atomic.Int32
	s := New(Config{
		CapacityBytes: 100,
		OnEvict: func(types.ObjectID, int64) {
			time.Sleep(10 * time.Millisecond)
			notified.Add(1)
		},
	})
	victim := types.NewObjectID()
	if err := s.Put(victim, make([]byte, 80), false); err != nil {
		t.Fatal(err)
	}
	// The Put that evicts must not return before the eviction callback has
	// completed — notifications are ordered with respect to the caller.
	if err := s.Put(types.NewObjectID(), make([]byte, 80), false); err != nil {
		t.Fatal(err)
	}
	if notified.Load() != 1 {
		t.Fatal("eviction callback did not complete before Put returned")
	}
}

func TestWaitEvictionsBlocksUntilCallbackDone(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{
		CapacityBytes: 100,
		OnEvict: func(types.ObjectID, int64) {
			close(started)
			<-release
		},
	})
	victim := types.NewObjectID()
	if err := s.Put(victim, make([]byte, 80), false); err != nil {
		t.Fatal(err)
	}
	evictErr := make(chan error, 1)
	go func() {
		evictErr <- s.Put(types.NewObjectID(), make([]byte, 80), false)
	}()
	<-started
	// The callback is in flight: WaitEvictions for the victim must block.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := s.WaitEvictions(ctx, victim); err == nil {
		t.Fatal("WaitEvictions returned while the eviction callback was still running")
	}
	cancel()
	// An unrelated object has nothing pending.
	if err := s.WaitEvictions(context.Background(), types.NewObjectID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-evictErr; err != nil {
		t.Fatal(err)
	}
	// Once the callback finishes, WaitEvictions returns immediately.
	if err := s.WaitEvictions(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
}

func TestFailedPutStillNotifiesPartialEvictions(t *testing.T) {
	var notified atomic.Int32
	s := New(Config{
		CapacityBytes: 100,
		OnEvict:       func(types.ObjectID, int64) { notified.Add(1) },
	})
	pinnedObj := types.NewObjectID()
	if err := s.Put(pinnedObj, make([]byte, 50), false); err != nil {
		t.Fatal(err)
	}
	if !s.Pin(pinnedObj) {
		t.Fatal("pin failed")
	}
	victim := types.NewObjectID()
	if err := s.Put(victim, make([]byte, 30), false); err != nil {
		t.Fatal(err)
	}
	// Needs 80 free: evicts the 30-byte victim, then fails on the pin.
	if err := s.Put(types.NewObjectID(), make([]byte, 80), false); !errors.Is(err, types.ErrStoreFull) {
		t.Fatalf("expected ErrStoreFull, got %v", err)
	}
	if s.Contains(victim) {
		t.Fatal("victim should have been evicted before the failure")
	}
	// The partial eviction's callback must still have run (synchronously,
	// before the failing Put returned), and its pending marker retired so
	// WaitEvictions cannot hang.
	if notified.Load() != 1 {
		t.Fatalf("eviction callback ran %d times, want 1", notified.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.WaitEvictions(ctx, victim); err != nil {
		t.Fatalf("WaitEvictions hung after failed Put: %v", err)
	}
}

// A put of an object the store already holds, resident or spilled, looks
// before it copies: 100 duplicate 1 MiB Puts allocate next to nothing (at the
// parent each one copied the payload, took the lock and threw the copy away).
func TestDuplicatePutCopiesNothing(t *testing.T) {
	const size = 1 << 20
	s := New(Config{CapacityBytes: size + size/2, SpillDir: t.TempDir()})
	spilled, resident := types.NewObjectID(), types.NewObjectID()
	payload := bytes.Repeat([]byte("d"), size)
	for _, id := range []types.ObjectID{spilled, resident} {
		if err := s.PutPrimary(id, payload, false); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SpilledCount != 1 || st.Objects != 1 {
		t.Fatalf("setup: want one spilled and one resident object, got %+v", st)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		for _, id := range []types.ObjectID{spilled, resident} {
			if err := s.Put(id, payload, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= size {
		t.Fatalf("100 duplicate puts allocated %d bytes, want < %d", grew, size)
	}
	if st := s.Stats(); st.SpilledCount != 1 || st.Objects != 1 || st.Used != size {
		t.Fatalf("duplicate puts changed the store: %+v", st)
	}
}

// PutPrimary adopts the creator's buffer where Put copies the caller's, and
// one buffer adopted under two IDs is two equal readable objects (a raw
// function may return the same buffer on every call).
func TestPutPrimaryAdoptsItsBuffer(t *testing.T) {
	s := New(DefaultConfig())
	a, b, c := types.NewObjectID(), types.NewObjectID(), types.NewObjectID()
	data := []byte("handed over")
	for _, id := range []types.ObjectID{a, b} {
		if err := s.PutPrimary(id, data, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(c, data, false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.ObjectID{a, b} {
		obj, ok := s.Get(id)
		if !ok || &obj.Data[0] != &data[0] || len(obj.Data) != len(data) {
			t.Fatalf("primary %s does not hold the buffer it was handed", id)
		}
	}
	if obj, ok := s.Get(c); !ok || &obj.Data[0] == &data[0] || !bytes.Equal(obj.Data, data) {
		t.Fatal("Put must hold its own copy")
	}
	if s.Used() != int64(3*len(data)) {
		t.Fatalf("used=%d, want %d", s.Used(), 3*len(data))
	}
}
