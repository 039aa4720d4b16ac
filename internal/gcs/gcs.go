// Package gcs implements Ray's Global Control Store (paper Section 4.2.1):
// a sharded, chain-replicated key-value store with pub-sub that holds the
// entire control state of the system — the object directory, the task
// (lineage) table, the actor table, the function table, node membership and
// heartbeats, and the event log.
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
	"io"
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
	// FlushThresholdBytes, when > 0, triggers flushing of completed-task
	// lineage and event-log entries to FlushWriter once the resident size of
	// the GCS exceeds the threshold (Figure 10b).
	FlushThresholdBytes int64
	// FlushWriter receives flushed entries. Defaults to io.Discard.
	FlushWriter io.Writer
	// SyncWrites disables the batching write path: one synchronous chain
	// commit per table append. Batching — per-shard pending buffers (which
	// double as a read overlay, preserving read-your-writes for this Store's
	// clients) committed in groups via single chain commits — is what every
	// cluster runs: it amortizes per-task control-plane appends at the cost
	// of a deferred durability acknowledgement. The synchronous store is the
	// reference the tests of this package compare the batched one against,
	// and the same code a write falls back to after Close; nothing above
	// this package sets the field.
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

	// nodeIDs indexes the membership table so Nodes() — which the global
	// scheduler reads on every placement decision — costs O(nodes) point
	// reads instead of a prefix scan over every resident key (task lineage
	// entries would otherwise make scheduling cost grow with tasks ever
	// submitted). The chain remains the source of truth for entry contents.
	nodeMu  sync.RWMutex
	nodeIDs []types.NodeID //guard:by nodeMu.R

	// jobIDs indexes the job table so Jobs() costs O(jobs) point reads, and
	// jobMu serializes job-entry read-modify-writes (state transitions racing
	// against concurrent weight or heartbeat refreshes).
	jobIDMu sync.RWMutex
	jobIDs  []types.JobID //guard:by jobIDMu.R
	jobMu   sync.Mutex

	// objByJob and actorsByJob index ownership so job-exit cleanup reads
	// O(the job's objects/actors) instead of scanning the cluster. Entries
	// are added when a table write names an owning job and dropped
	// wholesale when the job's resources are released.
	objIdxMu    sync.Mutex
	objByJob    map[types.JobID]map[types.ObjectID]struct{} //guard:by objIdxMu
	actorIdxMu  sync.Mutex
	actorsByJob map[types.JobID]map[types.ActorID]struct{} //guard:by actorIdxMu

	// keyLocks serialize the read-modify-write of one object or task entry
	// (location add/remove, status update): the tables are plain get-then-put
	// over the shard, so two nodes registering replicas of one object at once
	// would otherwise overwrite each other's location. Striped by ID so
	// unrelated keys rarely share a lock.
	keyLocks [256]sync.Mutex

	// hbMu serializes membership read-modify-writes (Heartbeat,
	// HeartbeatBatch, MarkNodeDead) so a heartbeat that read a node as alive
	// cannot write that stale state back over a concurrent MarkNodeDead and
	// resurrect a dead node: the cluster's heartbeat aggregator runs
	// concurrently with failure injection.
	hbMu sync.Mutex

	// stats counters.
	puts      atomic.Int64
	gets      atomic.Int64
	flushes   atomic.Int64
	flushedN  atomic.Int64
	eventSeq  atomic.Uint64
	spanSeq   atomic.Uint64
	flushedBy atomic.Int64
	flushErrs atomic.Int64

	// lastFlushErr holds the most recent background-flush failure.
	// Threshold-driven flushes have no caller to return an error to, so the
	// failure is surfaced here (and counted in Stats) instead of vanishing.
	flushErrMu   sync.Mutex
	lastFlushErr error //guard:by flushErrMu

	// refOnce/refLedger lazily build the ownership reference ledger
	// (refs.go); lazy so zero-value Stores used in tests stay cheap.
	refOnce   sync.Once
	refLedger *refLedger

	flushMu sync.Mutex
	closed  atomic.Bool
}

// New creates a GCS with the given configuration.
func New(cfg Config) *Store {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	if cfg.FlushWriter == nil {
		cfg.FlushWriter = io.Discard
	}
	if cfg.BatchFlushInterval <= 0 {
		cfg.BatchFlushInterval = 2 * time.Millisecond
	}
	if cfg.BatchMaxEntries <= 0 {
		cfg.BatchMaxEntries = 256
	}
	s := &Store{
		cfg:         cfg,
		watch:       make([]watchShard, cfg.Shards),
		objByJob:    make(map[types.JobID]map[types.ObjectID]struct{}),
		actorsByJob: make(map[types.JobID]map[types.ActorID]struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		ch := chain.New(chain.Config{ReplicationFactor: cfg.ReplicationFactor})
		s.shards = append(s.shards, ch)
		s.watch[i].subs = make(map[string][]chan struct{})
		if !cfg.SyncWrites {
			s.batchers = append(s.batchers, newShardBatcher(ch, cfg.BatchFlushInterval, cfg.BatchMaxEntries, s.maybeFlush, cfg.Metrics))
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

// CommitFutureKey is CommitFuture for tables keyed by arbitrary strings
// (function names, event keys).
func (s *Store) CommitFutureKey(key string) *CommitFuture {
	if s.batchers == nil {
		return resolvedCommitFuture
	}
	return s.batchers[s.shardForKey(key)].commitFuture()
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

// keyLock returns the stripe serializing read-modify-writes of id's entry.
func (s *Store) keyLock(id types.UniqueID) *sync.Mutex {
	return &s.keyLocks[binary.BigEndian.Uint64(id[8:])%uint64(len(s.keyLocks))]
}

// shardForKey maps arbitrary string keys (function names, event sequence
// numbers) onto shard indices with a simple FNV hash.
func (s *Store) shardForKey(key string) int {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(len(s.shards)))
}

func (s *Store) put(ctx context.Context, si int, key string, value []byte) error {
	s.puts.Add(1)
	// Batched path: deposit into the shard's pending buffer. The write is
	// immediately visible to reads through this Store (overlay) and is
	// chain-committed by the next flush. After Close the batcher refuses new
	// work (its flusher is gone), so stragglers take the synchronous chain
	// write, like every write under SyncWrites.
	if s.batchers == nil || !s.batchers[si].enqueue(key, value) {
		if err := s.shards[si].Put(ctx, key, value); err != nil {
			return fmt.Errorf("gcs: put %q: %w", key, err)
		}
		s.maybeFlush()
	}
	s.publish(si, key)
	return nil
}

func (s *Store) get(ctx context.Context, si int, key string) ([]byte, bool, error) {
	s.gets.Add(1)
	if s.batchers != nil {
		if v, ok := s.batchers[si].lookup(key); ok {
			return v, true, nil
		}
	}
	v, ok, err := s.shards[si].Get(ctx, key)
	if err != nil {
		return nil, false, fmt.Errorf("gcs: get %q: %w", key, err)
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

// publish signals key's subscribers. put calls it once the write is readable
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

// subscribe returns a channel signalled on every write to a key prefix+hex(id).
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

// --- Memory accounting and flushing ------------------------------------------

// Bytes returns the approximate resident size of the GCS across all shards.
func (s *Store) Bytes() int64 {
	var total int64
	for _, shard := range s.shards {
		total += shard.Bytes()
	}
	return total
}

// Entries returns the total number of keys across all shards.
func (s *Store) Entries() int {
	total := 0
	for _, shard := range s.shards {
		total += shard.Len()
	}
	return total
}

// maybeFlush spills flushable state (completed task lineage, events) to the
// configured writer when the resident size exceeds the threshold.
func (s *Store) maybeFlush() {
	if s.cfg.FlushThresholdBytes <= 0 {
		return
	}
	if s.Bytes() < s.cfg.FlushThresholdBytes {
		return
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.Bytes() < s.cfg.FlushThresholdBytes {
		return
	}
	n, freed, err := s.flushTail()
	s.flushedN.Add(int64(n))
	s.flushedBy.Add(freed)
	if err != nil {
		s.noteFlushErr(err)
	}
}

// noteFlushErr records a background-flush failure.
func (s *Store) noteFlushErr(err error) {
	s.flushErrs.Add(1)
	s.flushErrMu.Lock()
	s.lastFlushErr = err
	s.flushErrMu.Unlock()
}

// FlushErr returns the most recent threshold-driven flush failure, or nil.
// The entries of a failed flush stay resident (kv.Store.Flush is atomic on
// failure), so the condition is recoverable: the next flush retries them.
func (s *Store) FlushErr() error {
	s.flushErrMu.Lock()
	defer s.flushErrMu.Unlock()
	return s.lastFlushErr
}

// FlushNow immediately flushes flushable entries (finished tasks and events)
// from every shard to the configured writer. It returns the number of entries
// flushed and the bytes freed.
func (s *Store) FlushNow(ctx context.Context) (int, int64, error) {
	// Commit pending batched writes first so an explicit flush covers
	// everything written so far, not just what the background flusher has
	// already chain-committed. The threshold-driven path (maybeFlush) calls
	// flushTail directly: it runs inside a batch commit's onCommit hook, so
	// syncing there would deadlock on the batcher's flush lock. flushMu is
	// taken only after Sync returns — its onCommit hooks take the same lock
	// — and serializes this flush with maybeFlush so two flushes cannot
	// interleave different shards' entries mid-stream into one FlushWriter.
	if err := s.Sync(ctx); err != nil {
		return 0, 0, err
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flushTail()
}

// flushTail flushes flushable chain-resident entries without committing
// pending batched writes first.
func (s *Store) flushTail() (int, int64, error) {
	s.flushes.Add(1)
	var total int
	var freed int64
	var firstErr error
	for _, shard := range s.shards {
		n, f, err := shard.FlushTail(s.cfg.FlushWriter, flushableKey)
		total += n
		freed += f
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, freed, firstErr
}

// flushableKey reports whether an entry holds state that is safe to evict
// from memory once written durably: lineage for *finished* tasks is only
// needed again on reconstruction (and can then be re-read from the flush
// log), and events are purely diagnostic. Object locations, actor state,
// pending/running tasks, node membership and function definitions must stay
// resident.
func flushableKey(key string, value []byte) bool {
	if hasPrefix(key, keyPrefixEvent) || hasPrefix(key, keyPrefixSpan) {
		return true
	}
	if hasPrefix(key, keyPrefixTask) {
		return taskEntryTerminal(value)
	}
	return false
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Stats is a snapshot of GCS operation counters.
type Stats struct {
	Puts           int64
	Gets           int64
	Flushes        int64
	FlushedEntries int64
	FlushedBytes   int64
	// FlushErrors counts background (threshold-driven) flushes that failed;
	// see Store.FlushErr for the most recent cause.
	FlushErrors   int64
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
		Puts:           s.puts.Load(),
		Gets:           s.gets.Load(),
		Flushes:        s.flushes.Load(),
		FlushedEntries: s.flushedN.Load(),
		FlushedBytes:   s.flushedBy.Load(),
		FlushErrors:    s.flushErrs.Load(),
		ResidentBytes:  s.Bytes(),
		ResidentKeys:   s.Entries(),
	}
	for _, b := range s.batchers {
		st.BatchedWrites += b.enqueued.Load()
		st.BatchCoalesced += b.coalesced.Load()
		st.BatchCommits += b.flushes.Load()
	}
	return st
}

// Key prefixes for each table.
const (
	keyPrefixObject    = "obj/"
	keyPrefixTask      = "task/"
	keyPrefixActor     = "actor/"
	keyPrefixFunction  = "fn/"
	keyPrefixNode      = "node/"
	keyPrefixHeartbeat = "hb/"
	keyPrefixEvent     = "event/"
	keyPrefixJob       = "jobtbl/"
	keyPrefixSpan      = "span/"
)

// StatsName implements telemetry.Reporter.
func (s *Store) StatsName() string { return "gcs" }

// StatsSnapshot implements telemetry.Reporter.
func (s *Store) StatsSnapshot() any { return s.Stats() }
