// Package gcs implements Ray's Global Control Store (paper Section 4.2.1):
// a sharded, chain-replicated key-value store with pub-sub that holds the
// entire control state of the system — the object directory, the task
// (lineage) table, the actor table, the function table, node membership and
// heartbeats, the job table, and the span table that holds both task
// timelines and cluster events.
//
// Centralizing control state here is what lets every other component
// (schedulers, object stores, workers) be stateless: on failure they simply
// restart and re-read state from the GCS. Sharding provides horizontal
// scalability; per-shard chain replication provides fault tolerance; the
// pub-sub layer provides the object-creation callbacks that task dispatch and
// ray.get rely on (paper Figure 7).
// A subscriber is signalled once a write to its key is readable through this
// Store, which on the batching path is before the chain commit that makes it
// durable (CommitFuture acknowledges that); the signal says only "re-read".
package gcs

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/chain"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// Config controls GCS construction.
type Config struct {
	// Shards is the number of independent key-space shards. Tables are
	// sharded by object/task/actor ID so load spreads across shards.
	Shards int
	// ReplicationFactor is the chain length per shard.
	ReplicationFactor int
	// SyncWrites disables the batching write path: one synchronous chain
	// commit per table append. Batching — per-shard pending buffers (which
	// double as a read overlay, preserving read-your-writes for this Store's
	// clients) committed in groups via single chain commits — is what every
	// cluster runs: it amortizes per-task control-plane appends at the cost
	// of a deferred durability acknowledgement. The synchronous store is the
	// reference the tests of this package compare the batched one against,
	// and the same code a write falls back to after Close. Outside this
	// package only a cluster test sets the field, through the unexported
	// cluster.newCluster seam, to run a whole cluster over the reference.
	SyncWrites bool
	// BatchFlushInterval is the longest a pending write waits before being
	// committed. Zero means 2ms.
	BatchFlushInterval time.Duration
	// BatchMaxEntries triggers an early flush once a shard's pending buffer
	// reaches this many distinct keys. Zero means 256.
	BatchMaxEntries int
	// Metrics receives GCS batch-flush instrumentation. A nil registry
	// still works: metric handles degrade to detached counters.
	Metrics *telemetry.Registry
}

// Store is the Global Control Store.
type Store struct {
	cfg    Config         //guard:init
	shards []*chain.Chain //guard:init
	// batchers is non-nil (one per shard) unless cfg.SyncWrites is set.
	batchers []*shardBatcher //guard:init

	// watch is the pub-sub registry, by shard: no put takes a cluster-wide lock.
	watch []watchShard //guard:init

	// nodeIDs and jobIDs list the membership and job tables' keys, so Nodes()
	// — which the global scheduler reads on every placement decision — and
	// Jobs() cost O(entries) point reads instead of a prefix scan over every
	// resident key (task lineage entries would otherwise make scheduling cost
	// grow with tasks ever submitted). The chain remains the source of truth
	// for entry contents.
	nodeIDs idList[types.NodeID]
	jobIDs  idList[types.JobID]

	// objByJob and actorsByJob index ownership so job-exit cleanup reads
	// O(the job's entries) instead of scanning the cluster. The object index
	// is striped (objIndex): every task output is added to it and every
	// collected object removed from it.
	objByJob    [16]jobIndex[types.ObjectID]
	actorsByJob jobIndex[types.ActorID]

	// keyLocks serialize the read-modify-write of one table entry (location
	// add/remove, status update, heartbeat, node death, job transition,
	// method registration): the tables are plain get-then-put over the
	// shard, so two nodes registering replicas of one object at once would
	// otherwise overwrite each other's location, and a heartbeat that read a
	// node as alive would write it back over a concurrent MarkNodeDead.
	// Striped by key so unrelated entries rarely share a lock; update and
	// remove are the only functions that take one.
	keyLocks [256]sync.Mutex

	// stats counters. A delete counts as a put: it is a write.
	puts     atomic.Int64
	gets     atomic.Int64
	spanSeq  atomic.Uint64
	logBytes atomic.Int64

	// refOnce/refLedger lazily build the ownership reference ledger
	// (refs.go); lazy so zero-value Stores used in tests stay cheap.
	refOnce   sync.Once
	refLedger *refLedger

	closed atomic.Bool
}

// New creates a GCS with the given configuration.
func New(cfg Config) *Store {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	if cfg.BatchFlushInterval <= 0 {
		cfg.BatchFlushInterval = 2 * time.Millisecond
	}
	if cfg.BatchMaxEntries <= 0 {
		cfg.BatchMaxEntries = 256
	}
	s := &Store{cfg: cfg, watch: make([]watchShard, cfg.Shards)}
	for i := range s.objByJob {
		s.objByJob[i].owned = make(map[types.JobID]map[types.ObjectID]struct{})
	}
	s.actorsByJob.owned = make(map[types.JobID]map[types.ActorID]struct{})
	for i := 0; i < cfg.Shards; i++ {
		ch := chain.New(chain.Config{ReplicationFactor: cfg.ReplicationFactor})
		s.shards = append(s.shards, ch)
		s.watch[i].subs = make(map[string][]chan struct{})
		if !cfg.SyncWrites {
			s.batchers = append(s.batchers, newShardBatcher(ch, cfg.BatchFlushInterval, cfg.BatchMaxEntries, cfg.Metrics))
		}
	}
	return s
}

// CommitFuture resolves once a batched write is durably chain-committed —
// the optional flush-on-ack handle for callers that need durability before
// replying. On the synchronous write path every write is durable when the
// table call returns, so futures come back already resolved.
type CommitFuture struct {
	ch  chan struct{}
	err error // written before ch closes, read only after Done
}

func newCommitFuture() *CommitFuture {
	return &CommitFuture{ch: make(chan struct{})}
}

// resolvedCommitFuture is the shared already-durable future.
var resolvedCommitFuture = func() *CommitFuture {
	f := newCommitFuture()
	close(f.ch)
	return f
}()

func (f *CommitFuture) resolve(err error) {
	f.err = err
	close(f.ch)
}

// Done returns a channel that closes once the write is durable (or the store
// closed without committing it; check Err after).
func (f *CommitFuture) Done() <-chan struct{} { return f.ch }

// Err reports the commit outcome. It must only be called after Done's channel
// has closed; nil means the write is durably replicated.
func (f *CommitFuture) Err() error { return f.err }

// Wait blocks until the write is durable, the commit fails, or the context
// ends.
func (f *CommitFuture) Wait(ctx context.Context) error {
	select {
	case <-f.ch:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CommitFuture returns a flush-on-ack handle covering every write made so far
// to the shard owning id: it resolves once the pending batch containing those
// writes is durably flushed. Call it immediately after the table write whose
// durability you need (e.g. AddTask, PutActor, UpdateJobState), then Wait.
func (s *Store) CommitFuture(id types.UniqueID) *CommitFuture {
	if s.batchers == nil {
		return resolvedCommitFuture
	}
	return s.batchers[s.shardFor(id)].commitFuture()
}

// Sync commits every pending batched write. It is a no-op on a synchronous
// store. Tests and shutdown paths call it before inspecting chain state.
func (s *Store) Sync(ctx context.Context) error {
	var firstErr error
	for _, b := range s.batchers {
		if err := b.drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close stops the batching flushers after committing pending writes. It is
// idempotent and a no-op on a synchronous store.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var firstErr error
	for _, b := range s.batchers {
		if err := b.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NumShards returns the number of shards.
func (s *Store) NumShards() int { return len(s.shards) }

// Shard exposes shard i for failure injection in tests and the Figure 10a
// experiment (killing a chain replica).
func (s *Store) Shard(i int) *chain.Chain { return s.shards[i] }

// shardFor maps a key's owning ID to a shard index.
func (s *Store) shardFor(id types.UniqueID) int {
	return types.ShardIndex(id, len(s.shards))
}

// keyLock returns the keyLocks stripe serializing read-modify-writes of the
// entries whose stripe value is stripe.
func (s *Store) keyLock(stripe uint64) *sync.Mutex {
	return &s.keyLocks[stripe%uint64(len(s.keyLocks))]
}

// shardForKey maps arbitrary string keys (function names, event sequence
// numbers) onto shard indices.
func (s *Store) shardForKey(key string) int {
	return int(fnvHash(key) % uint64(len(s.shards)))
}

// fnvHash is the 64-bit FNV-1a hash of key.
func fnvHash(key string) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// entryRef locates one table entry: its shard, its key, and the stripe value
// that picks its keyLocks stripe.
type entryRef struct {
	shard  int
	key    string
	stripe uint64
}

// idRef locates an ID-keyed entry. It stripes by the ID's second half.
func idRef[ID ~[types.IDSize]byte](s *Store, id ID, key string) entryRef {
	u := types.UniqueID(id)
	return entryRef{s.shardFor(u), key, binary.BigEndian.Uint64(u[8:])}
}

// nameRef locates an entry keyed by name. It shards and stripes by the
// name's FNV hash.
func (s *Store) nameRef(name, key string) entryRef {
	h := fnvHash(name)
	return entryRef{int(h % uint64(len(s.shards))), key, h}
}

// read is the one table read: it reads r through the pending overlay, then
// decodes what it found. ok=false means the entry does not exist.
func read[E any](ctx context.Context, s *Store, r entryRef, decode func([]byte) (E, error)) (entry E, ok bool, err error) {
	raw, ok, err := s.get(ctx, r.shard, r.key)
	if err != nil || !ok {
		return entry, false, err
	}
	if entry, err = decode(raw); err != nil {
		var zero E
		return zero, false, err
	}
	return entry, true, nil
}

// update is the one table read-modify-write. Under r's keyLocks stripe it
// reads r through the pending overlay and hands fn the raw value (ok=false
// if the entry does not exist); it puts what fn returns, or nothing if fn
// returns nil or an error. fn runs with the stripe held, so it may decode,
// modify and encode, and record the entry in an in-memory index; it must not
// call back into the Store's tables, and it must not modify raw, which is
// shared with readers and replicas. A value fn cannot decode is an error,
// and the stored bytes stay as they are.
func (s *Store) update(ctx context.Context, r entryRef, fn func(raw []byte, ok bool) ([]byte, error)) error {
	mu := s.keyLock(r.stripe)
	mu.Lock()
	defer mu.Unlock()
	raw, ok, err := s.get(ctx, r.shard, r.key)
	if err != nil {
		return err
	}
	next, err := fn(raw, ok)
	if err != nil || next == nil {
		return err
	}
	return s.put(ctx, r.shard, r.key, next)
}

// remove deletes r's entry under r's keyLocks stripe, so no read-modify-write
// of the entry interleaves with it. deleted, if not nil, runs under the
// stripe once the delete is written: an index update there cannot race a
// write that recreates the entry.
func (s *Store) remove(ctx context.Context, r entryRef, deleted func()) error {
	mu := s.keyLock(r.stripe)
	mu.Lock()
	defer mu.Unlock()
	if err := s.del(ctx, r.shard, r.key); err != nil {
		return err
	}
	if deleted != nil {
		deleted()
	}
	return nil
}

func (s *Store) put(ctx context.Context, si int, key string, value []byte) error {
	return s.write(ctx, si, key, value, false)
}

// del deletes key: a write whose tombstone takes the write path, so it is
// readable (as absent) at once and durable at the next commit, exactly like
// a put.
func (s *Store) del(ctx context.Context, si int, key string) error {
	return s.write(ctx, si, key, nil, true)
}

func (s *Store) write(ctx context.Context, si int, key string, value []byte, deleted bool) error {
	s.puts.Add(1)
	// Batched path: deposit into the shard's pending buffer. The write is
	// immediately visible to reads through this Store (overlay) and is
	// chain-committed by the next flush. After Close the batcher refuses new
	// work (its flusher is gone), so stragglers take the synchronous chain
	// write, like every write under SyncWrites.
	if s.batchers == nil || !s.batchers[si].enqueue(key, value, deleted) {
		if err := s.shards[si].WriteBatch(ctx, []string{key}, [][]byte{value}, []bool{deleted}); err != nil {
			op := "put"
			if deleted {
				op = "delete"
			}
			return fmt.Errorf("gcs: %s %s: %w", op, displayKey(key), err)
		}
	}
	if !deleted { // a delete leaves a subscriber nothing to re-read
		s.publish(si, key)
	}
	return nil
}

func (s *Store) get(ctx context.Context, si int, key string) ([]byte, bool, error) {
	s.gets.Add(1)
	if s.batchers != nil {
		if v, present, pending := s.batchers[si].lookup(key); pending {
			return v, present, nil
		}
	}
	v, ok, err := s.shards[si].Get(ctx, key)
	if err != nil {
		return nil, false, fmt.Errorf("gcs: get %s: %w", displayKey(key), err)
	}
	return v, ok, nil
}

// --- Pub-sub ----------------------------------------------------------------

// watchShard is one shard's part of the pub-sub registry.
type watchShard struct {
	n    atomic.Int64 // registrations: a put to a shard nobody watches skips the lock
	mu   sync.Mutex
	subs map[string][]chan struct{} //guard:by mu
}

// publish signals key's subscribers. A put calls it once the write is readable
// (in the pending overlay, or chain-committed on the synchronous path), and
// subscribe registers before its caller's first read: either publish finds the
// registration or that read returns the write, so no wake-up is lost and none
// says more than a read would. Level trigger: a send to a full channel is dropped.
func (s *Store) publish(si int, key string) {
	w := &s.watch[si]
	if w.n.Load() == 0 {
		return
	}
	w.mu.Lock()
	for _, ch := range w.subs[key] {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	w.mu.Unlock()
}

// subscribe returns a channel signalled on every put to a key tableKey(prefix, id).
// cancel drops the registrations (the channel is the caller's and is never
// closed); calling it twice is harmless.
func subscribe[ID ~[types.IDSize]byte](s *Store, prefix string, ids []ID) (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	own := slices.Clone(ids) // cancel must not see what the caller does to ids later
	for _, id := range own {
		w, key := &s.watch[s.shardFor(types.UniqueID(id))], tableKey(prefix, types.UniqueID(id))
		w.mu.Lock()
		w.subs[key] = append(w.subs[key], ch)
		w.mu.Unlock()
		w.n.Add(1)
	}
	return ch, func() {
		for _, id := range own {
			w, key := &s.watch[s.shardFor(types.UniqueID(id))], tableKey(prefix, types.UniqueID(id))
			w.mu.Lock()
			if i := slices.Index(w.subs[key], ch); i >= 0 {
				if w.subs[key] = slices.Delete(w.subs[key], i, i+1); len(w.subs[key]) == 0 {
					delete(w.subs, key)
				}
				w.n.Add(-1)
			}
			w.mu.Unlock()
		}
	}
}

// SubscriberCount reports how many subscriptions are registered (for tests).
func (s *Store) SubscriberCount() int {
	n := 0
	for i := range s.watch {
		n += int(s.watch[i].n.Load())
	}
	return n
}

// --- Memory accounting ------------------------------------------------------

// Bytes returns the approximate resident size of the GCS across all shards.
func (s *Store) Bytes() int64 {
	var total int64
	for _, shard := range s.shards {
		total += shard.Bytes()
	}
	return total
}

// LogBytes returns the bytes written to the span table, events included.
// Nothing deletes a span entry, so once those writes commit this is the
// log's share of Bytes: the part that grows with run time, not with live
// state.
func (s *Store) LogBytes() int64 { return s.logBytes.Load() }

// Entries returns the total number of keys across all shards.
func (s *Store) Entries() int {
	total := 0
	for _, shard := range s.shards {
		total += shard.Len()
	}
	return total
}

// Stats is a snapshot of GCS operation counters.
type Stats struct {
	// Puts counts writes, deletes included.
	Puts          int64
	Gets          int64
	ResidentBytes int64
	ResidentKeys  int
	// BatchedWrites counts writes that went through the batching path.
	BatchedWrites int64
	// BatchCoalesced counts writes absorbed by an already-pending entry for
	// the same key (never individually committed).
	BatchCoalesced int64
	// BatchCommits counts chain batch commits performed by the flushers.
	BatchCommits int64
}

// Stats returns a snapshot of operation counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Puts:          s.puts.Load(),
		Gets:          s.gets.Load(),
		ResidentBytes: s.Bytes(),
		ResidentKeys:  s.Entries(),
	}
	for _, b := range s.batchers {
		st.BatchedWrites += b.enqueued.Load()
		st.BatchCoalesced += b.coalesced.Load()
		st.BatchCommits += b.flushes.Load()
	}
	return st
}

// Key prefixes for each table. No prefix is a prefix of another, so matching
// a key on its table's prefix never reaches into the raw ID bytes after it.
const (
	keyPrefixObject   = "obj/"
	keyPrefixTask     = "task/"
	keyPrefixActor    = "actor/"
	keyPrefixFunction = "fn/"
	keyPrefixNode     = "node/"
	keyPrefixJob      = "jobtbl/"
	keyPrefixSpan     = "span/"
)

// StatsName implements telemetry.Reporter.
func (s *Store) StatsName() string { return "gcs" }

// StatsSnapshot implements telemetry.Reporter.
func (s *Store) StatsSnapshot() any { return s.Stats() }
