// Package objectstore implements the per-node in-memory object store
// (paper Section 4.2.3). Objects are immutable byte buffers; within a node
// they are shared by reference (the Go analogue of Plasma's shared memory,
// giving zero-copy reads between tasks on the same node), and across nodes
// they are replicated by the object manager before a task runs.
//
// The store enforces a capacity with LRU eviction, supports pinning (inputs
// of running tasks must not be evicted underneath them — the worker pool
// pins via GetPin for the duration of execution), and lets callers block
// until an object becomes local — the primitive behind ray.get's "register a
// callback with the object table" flow in Figure 7b.
//
// For chunked transfers, BeginPut reserves a store-owned destination buffer
// that transfer workers fill concurrently; the reservation counts against
// capacity, is implicitly pinned until committed or aborted, and becomes
// visible atomically at Commit. Eviction callbacks run synchronously after
// the triggering Put returns the lock, and WaitEvictions orders a re-put's
// external location registration after the eviction's de-registration.
package objectstore

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"ray/internal/types"
)

// Object is an immutable value in the store.
type Object struct {
	// ID identifies the object cluster-wide.
	ID types.ObjectID
	// Data is the serialized payload. Callers must never mutate it: the
	// buffer is shared zero-copy by every reader on the node, and tasks
	// receive their []byte arguments as views of it. The store never reuses a
	// payload buffer — eviction, spill, restore, Delete and DropAll drop the
	// store's reference and nothing else — so a view held past unpin or
	// reclamation stays valid and unchanged; the garbage collector frees the
	// buffer when the last view goes.
	Data []byte
	// IsError marks objects that hold a serialized application error
	// (a failed task stores its error so consumers re-raise it at Get).
	IsError bool
}

// Size returns the payload size in bytes.
func (o *Object) Size() int64 { return int64(len(o.Data)) }

// EvictionCallback is invoked (outside the store lock) whenever an object is
// evicted, so the owner can remove the location from the GCS object table.
// Callbacks run synchronously on the goroutine whose Put (or BeginPut)
// triggered the eviction, after the store lock is released, and the store
// tracks them until they return: WaitEvictions lets a caller that re-admits
// a previously evicted object order its location registration strictly after
// the eviction's location removal. The callback must not call back into the
// store.
type EvictionCallback func(id types.ObjectID, size int64)

// Config controls store behaviour.
type Config struct {
	// CapacityBytes bounds resident payload bytes. Zero means 1 GiB.
	CapacityBytes int64
	// CopyThreads is how many goroutines Put uses to copy large payloads
	// into the store, mirroring Plasma's multi-threaded memcpy. Zero means 1.
	CopyThreads int
	// CopyThreshold is the payload size above which parallel copy kicks in.
	CopyThreshold int64
	// OnEvict, when set, is called for every evicted object.
	OnEvict EvictionCallback
	// SpillDir, when non-empty, enables spill-to-disk: primary copies (the
	// creator node's copy, marked by PutPrimary) are written to this
	// directory instead of being discarded when memory pressure evicts them,
	// and are restored on demand by Get/GetPin/Wait. Spilled objects keep
	// their GCS location — the node can still serve them — so remote pulls
	// restore them transparently and lineage reconstruction is only needed
	// once a spill copy is lost. Replica copies are evicted as before (the
	// primary can always be re-pulled).
	SpillDir string
}

// DefaultConfig returns a store with 8 copy threads and New's defaults
// otherwise (1 GiB), matching the paper's object-store microbenchmark setup
// (Figure 9).
func DefaultConfig() Config {
	return Config{CopyThreads: 8}
}

// Store is a single node's object store. It is safe for concurrent use.
type Store struct {
	cfg Config //guard:init

	mu      sync.Mutex
	objects map[types.ObjectID]*entry          //guard:by mu
	lru     *list.List                         //guard:by mu — front = most recently used
	used    int64                              //guard:by mu
	waiters map[types.ObjectID][]chan struct{} //guard:by mu
	// evictNotify tracks in-flight eviction callbacks per object so that a
	// re-put of the same object can wait for the eviction's GCS location
	// removal to land before registering the fresh location (the evict/re-put
	// ordering guarantee behind WaitEvictions).
	evictNotify map[types.ObjectID][]chan struct{} //guard:by mu
	// spilled tracks primary copies moved to disk; spilledBytes sums their
	// payload sizes. Guarded by mu (file I/O happens outside the lock; the
	// record's data field bridges reads racing an in-flight write).
	spilled      map[types.ObjectID]*spillRecord //guard:by mu
	spilledBytes int64                           //guard:by mu
	spillDirOnce sync.Once
	spillDirErr  error

	// stats
	puts          atomic.Int64
	gets          atomic.Int64
	hits          atomic.Int64
	evictions     atomic.Int64
	spills        atomic.Int64
	restores      atomic.Int64
	spillErrors   atomic.Int64
	restoreErrors atomic.Int64
}

type entry struct {
	obj     *Object
	element *list.Element
	pins    int
	// primary marks the creator node's copy — the one spill-to-disk
	// preserves under memory pressure. Replicas fetched from other nodes
	// stay false and are simply evicted.
	primary bool
}

// spillRecord is one primary copy living on disk (or on its way there).
type spillRecord struct {
	id      types.ObjectID
	size    int64
	isError bool
	path    string
	// data holds the payload until the disk write completes (or forever if
	// the write failed), so readers racing the write never miss.
	data []byte
	// dropped marks a record superseded by restore/delete; a still-pending
	// write observing it removes the file it just produced.
	dropped bool
}

// New creates a store with the given configuration.
func New(cfg Config) *Store {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 1 << 30
	}
	if cfg.CopyThreads < 1 {
		cfg.CopyThreads = 1
	}
	if cfg.CopyThreshold <= 0 {
		cfg.CopyThreshold = 512 * 1024
	}
	return &Store{
		cfg:         cfg,
		objects:     make(map[types.ObjectID]*entry),
		lru:         list.New(),
		waiters:     make(map[types.ObjectID][]chan struct{}),
		evictNotify: make(map[types.ObjectID][]chan struct{}),
		spilled:     make(map[types.ObjectID]*spillRecord),
	}
}

// Put stores data under id, copying it into a store-owned buffer: the call
// for a caller that keeps its buffer, and for the wire copy of a whole-object
// transfer. Storing an object that already exists (resident or spilled) is a
// no-op (objects are immutable, so the existing copy is identical). Put fails
// with types.ErrStoreFull if the object cannot fit even after evicting every
// unpinned object.
func (s *Store) Put(id types.ObjectID, data []byte, isError bool) error {
	return s.put(id, data, isError, false)
}

// PutPrimary stores the creator node's copy — under memory pressure the
// store spills it to disk instead of discarding it — and adopts data as the
// store's buffer instead of copying it: the creator hands over the buffer its
// encoder just made and must never write to it again. (It need not be
// fresh: one buffer adopted under many IDs is many identical immutable
// objects.)
func (s *Store) PutPrimary(id types.ObjectID, data []byte, isError bool) error {
	return s.put(id, data, isError, true)
}

// put inserts the object: a primary adopts data, anything else copies it.
func (s *Store) put(id types.ObjectID, data []byte, isError bool, primary bool) error {
	s.puts.Add(1)
	size := int64(len(data))
	if size > s.cfg.CapacityBytes {
		return fmt.Errorf("objectstore: object %s (%d bytes) exceeds capacity %d: %w",
			id, size, s.cfg.CapacityBytes, types.ErrStoreFull)
	}
	buf := data
	if !primary {
		// Look before copying: a duplicate (a pull that lost the race to a
		// local re-production, a second put of a value already stored) must
		// not pay for a payload-sized buffer only to throw it away. Then copy
		// outside the lock — the memcpy that dominates large-object creation
		// time in the paper's Figure 9 — and look again at insert.
		if s.Contains(id) {
			return nil
		}
		buf = s.copyPayload(data)
	}

	s.mu.Lock()
	if _, ok := s.objects[id]; ok {
		s.mu.Unlock()
		return nil
	}
	if _, ok := s.spilled[id]; ok {
		// A spilled copy is still the same immutable object; keep it.
		s.mu.Unlock()
		return nil
	}
	evicted, toSpill, err := s.evictForLocked(size)
	if err != nil {
		s.mu.Unlock()
		// Evictions/spills that happened before the failure are real: their
		// callbacks must still run (and their pending markers retire).
		s.writeSpills(toSpill)
		s.notifyEvicted(evicted)
		return err
	}
	obj := &Object{ID: id, Data: buf, IsError: isError}
	e := &entry{obj: obj, primary: primary}
	e.element = s.lru.PushFront(id)
	s.objects[id] = e
	s.used += size
	waiters := s.waiters[id]
	delete(s.waiters, id)
	s.mu.Unlock()

	for _, ch := range waiters {
		close(ch)
	}
	s.writeSpills(toSpill)
	s.notifyEvicted(evicted)
	return nil
}

// PendingPut is a store-owned destination buffer reserved by BeginPut for an
// object being assembled chunk by chunk. The reservation counts against the
// store's capacity and is implicitly pinned — it is invisible to Get/Contains
// and untouchable by eviction — until Commit publishes it or Abort releases
// it.
type PendingPut struct {
	store   *Store
	id      types.ObjectID
	buf     []byte
	isError bool
	settled bool
}

// Data returns the destination buffer. Chunk workers may fill disjoint ranges
// concurrently; no range may be written after Commit.
func (p *PendingPut) Data() []byte { return p.buf }

// BeginPut reserves capacity for an object of the given size and returns a
// pending buffer for chunked assembly, evicting unpinned objects as needed.
// If the object is already resident the reservation is refused with ok=false
// (the existing copy is identical — objects are immutable).
func (s *Store) BeginPut(id types.ObjectID, size int64, isError bool) (*PendingPut, bool, error) {
	if size > s.cfg.CapacityBytes {
		return nil, false, fmt.Errorf("objectstore: object %s (%d bytes) exceeds capacity %d: %w",
			id, size, s.cfg.CapacityBytes, types.ErrStoreFull)
	}
	s.mu.Lock()
	if _, ok := s.objects[id]; ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	if _, ok := s.spilled[id]; ok {
		s.mu.Unlock()
		return nil, false, nil
	}
	evicted, toSpill, err := s.evictForLocked(size)
	if err != nil {
		s.mu.Unlock()
		s.writeSpills(toSpill)
		s.notifyEvicted(evicted)
		return nil, false, err
	}
	s.used += size
	s.mu.Unlock()
	s.writeSpills(toSpill)
	s.notifyEvicted(evicted)
	return &PendingPut{store: s, id: id, buf: make([]byte, size), isError: isError}, true, nil
}

// Commit publishes the assembled object, waking waiters. If the object was
// re-put through another path while the assembly was in flight, the
// reservation is simply released (the copies are identical).
func (p *PendingPut) Commit() {
	s := p.store
	s.mu.Lock()
	if p.settled {
		s.mu.Unlock()
		return
	}
	p.settled = true
	s.puts.Add(1)
	if _, ok := s.objects[p.id]; ok {
		s.used -= int64(len(p.buf))
		s.mu.Unlock()
		return
	}
	e := &entry{obj: &Object{ID: p.id, Data: p.buf, IsError: p.isError}}
	e.element = s.lru.PushFront(p.id)
	s.objects[p.id] = e
	waiters := s.waiters[p.id]
	delete(s.waiters, p.id)
	s.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// Abort releases the reservation without publishing (e.g. the transfer
// failed). Safe to call after Commit; the first settlement wins.
func (p *PendingPut) Abort() {
	s := p.store
	s.mu.Lock()
	if !p.settled {
		p.settled = true
		s.used -= int64(len(p.buf))
	}
	s.mu.Unlock()
}

// copyPayload copies data using the configured number of copy threads.
func (s *Store) copyPayload(data []byte) []byte {
	buf := make([]byte, len(data))
	threads := s.cfg.CopyThreads
	if int64(len(data)) < s.cfg.CopyThreshold || threads == 1 {
		copy(buf, data)
		return buf
	}
	chunk := (len(data) + threads - 1) / threads
	var wg sync.WaitGroup
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(buf[lo:hi], data[lo:hi])
		}(off, end)
	}
	wg.Wait()
	return buf
}

// evictedObject records one eviction for post-lock notification.
type evictedObject struct {
	id   types.ObjectID
	size int64
	done chan struct{}
}

// evictForLocked frees memory until size bytes fit, walking the LRU from
// coldest to hottest. Unpinned replicas are evicted; unpinned primaries are
// spilled to disk instead when a spill directory is configured (their GCS
// location stays valid — the record serves restores). Caller holds s.mu and
// must pass the returned slices to writeSpills and notifyEvicted after
// releasing the lock: each eviction is registered in evictNotify before the
// object leaves the map, so any later re-put of the same object observes the
// pending notification and can wait for it.
//
//guard:holds mu
func (s *Store) evictForLocked(size int64) ([]evictedObject, []*spillRecord, error) {
	var evicted []evictedObject
	var toSpill []*spillRecord
	for s.used+size > s.cfg.CapacityBytes {
		progressed := false
		for el := s.lru.Back(); el != nil; el = el.Prev() {
			id := el.Value.(types.ObjectID)
			e := s.objects[id]
			if e.pins > 0 {
				continue
			}
			if e.primary && s.cfg.SpillDir != "" {
				rec := &spillRecord{
					id:      id,
					size:    e.obj.Size(),
					isError: e.obj.IsError,
					path:    filepath.Join(s.cfg.SpillDir, id.String()+".obj"),
					data:    e.obj.Data,
				}
				s.spilled[id] = rec
				s.spilledBytes += rec.size
				s.removeLocked(id, e)
				s.spills.Add(1)
				toSpill = append(toSpill, rec)
				progressed = true
				break
			}
			ev := evictedObject{id: id, size: e.obj.Size()}
			if s.cfg.OnEvict != nil {
				ev.done = make(chan struct{})
				s.evictNotify[id] = append(s.evictNotify[id], ev.done)
			}
			s.removeLocked(id, e)
			s.evictions.Add(1)
			evicted = append(evicted, ev)
			progressed = true
			break
		}
		if !progressed {
			return evicted, toSpill, fmt.Errorf("objectstore: need %d bytes but all %d resident bytes are pinned: %w",
				size, s.used, types.ErrStoreFull)
		}
	}
	return evicted, toSpill, nil
}

// writeSpills performs the disk writes for records handed out by
// evictForLocked. Must be called without holding s.mu. On success the
// record's in-memory payload is released; on failure it stays resident in
// the record (memory is not actually freed, but reads remain correct).
func (s *Store) writeSpills(recs []*spillRecord) {
	if len(recs) == 0 {
		return
	}
	s.spillDirOnce.Do(func() {
		s.spillDirErr = os.MkdirAll(s.cfg.SpillDir, 0o755)
	})
	for _, rec := range recs {
		var err error
		if s.spillDirErr != nil {
			err = s.spillDirErr
		} else {
			err = os.WriteFile(rec.path, rec.data, 0o644)
		}
		s.mu.Lock()
		if rec.dropped {
			s.mu.Unlock()
			if err == nil {
				os.Remove(rec.path)
			}
			continue
		}
		if err != nil {
			s.spillErrors.Add(1)
			s.mu.Unlock()
			continue
		}
		rec.data = nil
		s.mu.Unlock()
	}
}

// restore brings a spilled object back. With pin set, the returned object is
// pinned (admission is forced over capacity if every resident byte is pinned
// — a pinned demand needs the object resident regardless). Without pin, a
// full-of-pins store serves a transient copy and leaves the spill record in
// place. A missing or unreadable spill file drops the record and fires the
// eviction callback so the object's GCS location is withdrawn — only then
// does a consumer fall through to lineage reconstruction.
func (s *Store) restore(id types.ObjectID, pin bool) (*Object, bool) {
	for {
		s.mu.Lock()
		if e, ok := s.objects[id]; ok {
			// A concurrent restore (or re-put) won; use its copy.
			if pin {
				e.pins++
			}
			s.lru.MoveToFront(e.element)
			s.mu.Unlock()
			return e.obj, true
		}
		rec, ok := s.spilled[id]
		if !ok {
			s.mu.Unlock()
			return nil, false
		}
		data := rec.data
		path := rec.path
		s.mu.Unlock()

		if data == nil {
			// The disk write completed; read the file back outside the lock.
			fileData, err := os.ReadFile(path)
			if err != nil || int64(len(fileData)) != rec.size {
				s.dropSpilledCopy(id, rec)
				return nil, false
			}
			data = fileData
		}

		s.mu.Lock()
		if _, ok := s.objects[id]; ok {
			s.mu.Unlock()
			continue // concurrent restore won; loop serves its entry
		}
		if s.spilled[id] != rec {
			s.mu.Unlock()
			continue // record superseded; re-evaluate
		}
		evicted, toSpill, err := s.evictForLocked(rec.size)
		if err != nil && !pin {
			// Everything resident is pinned: serve without admitting.
			s.mu.Unlock()
			s.writeSpills(toSpill)
			s.notifyEvicted(evicted)
			s.restores.Add(1)
			return &Object{ID: id, Data: data, IsError: rec.isError}, true
		}
		obj := &Object{ID: id, Data: data, IsError: rec.isError}
		e := &entry{obj: obj, primary: true}
		if pin {
			e.pins = 1
		}
		e.element = s.lru.PushFront(id)
		s.objects[id] = e
		s.used += rec.size
		rec.dropped = true
		delete(s.spilled, id)
		s.spilledBytes -= rec.size
		hadFile := rec.data == nil
		waiters := s.waiters[id]
		delete(s.waiters, id)
		s.mu.Unlock()

		for _, ch := range waiters {
			close(ch)
		}
		if hadFile {
			os.Remove(path)
		}
		s.writeSpills(toSpill)
		s.notifyEvicted(evicted)
		s.restores.Add(1)
		return obj, true
	}
}

// dropSpilledCopy discards a spill record whose file is gone or corrupt and
// withdraws the object's location via the eviction callback, opening the
// lineage-reconstruction path.
func (s *Store) dropSpilledCopy(id types.ObjectID, rec *spillRecord) {
	s.mu.Lock()
	if s.spilled[id] != rec {
		s.mu.Unlock()
		return
	}
	rec.dropped = true
	delete(s.spilled, id)
	s.spilledBytes -= rec.size
	ev := evictedObject{id: id, size: rec.size}
	if s.cfg.OnEvict != nil {
		ev.done = make(chan struct{})
		s.evictNotify[id] = append(s.evictNotify[id], ev.done)
	}
	s.mu.Unlock()
	s.restoreErrors.Add(1)
	os.Remove(rec.path)
	s.notifyEvicted([]evictedObject{ev})
}

// notifyEvicted runs the eviction callback for each evicted object and then
// retires its pending-notification marker, waking WaitEvictions callers.
// Must be called without holding s.mu.
func (s *Store) notifyEvicted(evicted []evictedObject) {
	for _, ev := range evicted {
		if ev.done == nil {
			continue
		}
		s.cfg.OnEvict(ev.id, ev.size)
		s.mu.Lock()
		pending := s.evictNotify[ev.id]
		for i, ch := range pending {
			if ch == ev.done {
				pending = append(pending[:i], pending[i+1:]...)
				break
			}
		}
		if len(pending) == 0 {
			delete(s.evictNotify, ev.id)
		} else {
			s.evictNotify[ev.id] = pending
		}
		s.mu.Unlock()
		close(ev.done)
	}
}

// WaitEvictions blocks until every eviction notification for id that was
// in flight when the call was made has completed (or ctx is done). Callers
// that re-admit an object and then register its location externally use it
// to guarantee the registration orders after the eviction's de-registration.
func (s *Store) WaitEvictions(ctx context.Context, id types.ObjectID) error {
	s.mu.Lock()
	pending := append([]chan struct{}(nil), s.evictNotify[id]...)
	s.mu.Unlock()
	for _, ch := range pending {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

//guard:holds mu
func (s *Store) removeLocked(id types.ObjectID, e *entry) {
	s.lru.Remove(e.element)
	delete(s.objects, id)
	s.used -= e.obj.Size()
}

// Get returns the object if it is local, bumping its LRU recency. A spilled
// object is restored from disk transparently.
func (s *Store) Get(id types.ObjectID) (*Object, bool) {
	s.gets.Add(1)
	s.mu.Lock()
	e, ok := s.objects[id]
	if ok {
		s.hits.Add(1)
		s.lru.MoveToFront(e.element)
		s.mu.Unlock()
		return e.obj, true
	}
	_, haveSpill := s.spilled[id]
	s.mu.Unlock()
	if !haveSpill {
		return nil, false
	}
	obj, ok := s.restore(id, false)
	if ok {
		s.hits.Add(1)
	}
	return obj, ok
}

// Contains reports whether the object is local — resident or spilled —
// without affecting recency.
func (s *Store) Contains(id types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[id]; ok {
		return true
	}
	_, ok := s.spilled[id]
	return ok
}

// Delete removes an object regardless of recency (reference-count
// reclamation, job GC, failure injection), including its spill copy if any.
// Pinned objects cannot be deleted.
func (s *Store) Delete(id types.ObjectID) bool {
	s.mu.Lock()
	if e, ok := s.objects[id]; ok {
		if e.pins > 0 {
			s.mu.Unlock()
			return false
		}
		s.removeLocked(id, e)
		s.mu.Unlock()
		return true
	}
	rec, ok := s.spilled[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	rec.dropped = true
	delete(s.spilled, id)
	s.spilledBytes -= rec.size
	hadFile := rec.data == nil
	s.mu.Unlock()
	if hadFile {
		os.Remove(rec.path)
	}
	return true
}

// Pin marks an object as unevictable (e.g. it is an input of a running task).
// Pin returns false if the object is not local.
func (s *Store) Pin(id types.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.objects[id]
	if !ok {
		return false
	}
	e.pins++
	return true
}

// GetPin atomically fetches the object and pins it, bumping LRU recency.
// The worker pool uses it to hold a running task's inputs resident for the
// duration of execution; the caller must Unpin when done. A spilled object
// is restored (and pinned atomically at re-admission) first.
func (s *Store) GetPin(id types.ObjectID) (*Object, bool) {
	s.gets.Add(1)
	s.mu.Lock()
	if e, ok := s.objects[id]; ok {
		s.hits.Add(1)
		e.pins++
		s.lru.MoveToFront(e.element)
		s.mu.Unlock()
		return e.obj, true
	}
	_, haveSpill := s.spilled[id]
	s.mu.Unlock()
	if !haveSpill {
		return nil, false
	}
	obj, ok := s.restore(id, true)
	if ok {
		s.hits.Add(1)
	}
	return obj, ok
}

// Unpin releases a previous Pin.
func (s *Store) Unpin(id types.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.objects[id]; ok && e.pins > 0 {
		e.pins--
	}
}

// Wait blocks until the object is local or the context is cancelled. A
// spilled object counts as local and is restored before returning.
func (s *Store) Wait(ctx context.Context, id types.ObjectID) (*Object, error) {
	for {
		s.mu.Lock()
		if e, ok := s.objects[id]; ok {
			s.lru.MoveToFront(e.element)
			s.mu.Unlock()
			return e.obj, nil
		}
		_, haveSpill := s.spilled[id]
		if haveSpill {
			s.mu.Unlock()
			if obj, ok := s.restore(id, false); ok {
				return obj, nil
			}
			continue
		}
		ch := make(chan struct{})
		s.waiters[id] = append(s.waiters[id], ch)
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
			// Object arrived; loop to fetch it (it may have been evicted in
			// the meantime, in which case we wait again).
		}
	}
}

// List returns the IDs of all local objects — resident and spilled (both
// have registered locations; failure injection withdraws them all).
func (s *Store) List() []types.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.ObjectID, 0, len(s.objects)+len(s.spilled))
	for id := range s.objects {
		out = append(out, id)
	}
	for id := range s.spilled {
		out = append(out, id)
	}
	return out
}

// DropAll removes every unpinned object — including spill copies, whose
// files are deleted (a dead node's disk is gone with it) — simulating the
// loss of a node's store contents. It returns the dropped IDs.
func (s *Store) DropAll() []types.ObjectID {
	s.mu.Lock()
	var dropped []types.ObjectID
	var files []string
	for id, e := range s.objects {
		if e.pins > 0 {
			continue
		}
		s.removeLocked(id, e)
		dropped = append(dropped, id)
	}
	for id, rec := range s.spilled {
		rec.dropped = true
		delete(s.spilled, id)
		s.spilledBytes -= rec.size
		if rec.data == nil {
			files = append(files, rec.path)
		}
		dropped = append(dropped, id)
	}
	s.mu.Unlock()
	for _, path := range files {
		os.Remove(path)
	}
	return dropped
}

// Used returns resident payload bytes.
func (s *Store) Used() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() int64 { return s.cfg.CapacityBytes }

// Len returns the number of resident objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// SpilledBytes returns the payload bytes currently spilled to disk.
func (s *Store) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilledBytes
}

// Stats is a snapshot of store counters.
type Stats struct {
	Puts      int64
	Gets      int64
	Hits      int64
	Evictions int64
	Used      int64
	Objects   int
	// Spills counts primary copies written to disk under memory pressure;
	// Restores counts spilled copies brought back on demand. SpillErrors are
	// failed disk writes (the copy stayed in memory); RestoreErrors are
	// missing/corrupt spill files (the location was withdrawn, opening the
	// lineage path).
	Spills        int64
	Restores      int64
	SpillErrors   int64
	RestoreErrors int64
	SpilledBytes  int64
	SpilledCount  int
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	spilledBytes := s.spilledBytes
	spilledCount := len(s.spilled)
	s.mu.Unlock()
	return Stats{
		Puts:          s.puts.Load(),
		Gets:          s.gets.Load(),
		Hits:          s.hits.Load(),
		Evictions:     s.evictions.Load(),
		Used:          s.Used(),
		Objects:       s.Len(),
		Spills:        s.spills.Load(),
		Restores:      s.restores.Load(),
		SpillErrors:   s.spillErrors.Load(),
		RestoreErrors: s.restoreErrors.Load(),
		SpilledBytes:  spilledBytes,
		SpilledCount:  spilledCount,
	}
}

// StatsName implements telemetry.Reporter (namespaced per node by callers).
func (s *Store) StatsName() string { return "objectstore" }

// StatsSnapshot implements telemetry.Reporter.
func (s *Store) StatsSnapshot() any { return s.Stats() }
