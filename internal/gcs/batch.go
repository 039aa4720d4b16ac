package gcs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/chain"
	"ray/internal/telemetry"
)

// shardBatcher is the batching write path for one GCS shard. Instead of one
// chain commit per table append, writers deposit entries into a pending
// buffer; a background flusher groups everything accumulated since the last
// flush into a single chain.PutBatch commit. Two effects give the throughput
// win the paper attributes to its sharded GCS:
//
//   - amortization: N task-table / object-location appends cost one chain
//     write-lock acquisition and one replication message per hop, not N;
//   - coalescing: repeated writes to the same key between flushes (task
//     status transitions, per-node heartbeats) collapse to the final value,
//     which is the only one chain replication would expose anyway. A delete
//     is a write too: its tombstone replaces the key's pending value, so a
//     task entry added, updated and deleted inside one window reaches the
//     chain as one delete of a key no replica holds.
//
// Consistency: the pending buffer doubles as a read overlay — every read on
// this Store consults it before the chain, so read-your-writes holds for all
// in-process consumers (schedulers, object managers, lineage). Pub-sub follows
// the overlay, not the commit: Store.put signals subscribers right after
// enqueue, and a failed flush keeps (re-queues) its entries, so what was
// signalled stays readable. What batching trades away is the durability
// acknowledgement (CommitFuture is the only one): put returns before the
// entry is chain-replicated, and a shard that loses every replica in the
// flush window loses the pending entries. The synchronous path
// (Config.SyncWrites=true) stays as the reference this package's tests
// compare against; it is also what a write takes after Close.
type shardBatcher struct {
	chain         *chain.Chain  //guard:init
	flushInterval time.Duration //guard:init
	maxEntries    int           //guard:init

	mu      sync.Mutex
	pending map[string]pendingWrite //guard:by mu
	order   []string                //guard:by mu — keys awaiting their first flush since last enqueue
	seq     uint64                  //guard:by mu
	closed  bool                    //guard:by mu
	// committedSeq is the highest sequence number S such that every write
	// with seq <= S has been chain-committed (or superseded by a committed
	// newer write to the same key). Commit futures resolve against it.
	committedSeq uint64 //guard:by mu
	// waiters are unresolved commit futures, ordered by sequence number.
	waiters []ackWaiter //guard:by mu

	// flushMu serializes flush commits so an older snapshot can never land
	// after a newer one for the same key.
	flushMu sync.Mutex

	errMu   sync.Mutex
	lastErr error //guard:by errMu

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	enqueued  atomic.Int64
	coalesced atomic.Int64
	flushes   atomic.Int64

	// Flush observability (always non-nil; a nil registry hands back
	// detached metrics).
	flushEntries *telemetry.Histogram //guard:init
	flushSeconds *telemetry.Histogram //guard:init
	flushErrors  *telemetry.Counter   //guard:init
}

// ackWaiter is one commit future awaiting durability of all writes up to seq.
type ackWaiter struct {
	seq uint64
	f   *CommitFuture
}

// pendingWrite is one key's latest unflushed value, or its tombstone.
type pendingWrite struct {
	value []byte
	// deleted marks a tombstone: the key reads as absent, and the flush
	// deletes it on every replica.
	deleted bool
	seq     uint64
	// queued reports whether the key is on the order list of the next flush.
	// A write that lands while its key is mid-commit re-queues it.
	queued bool
}

func newShardBatcher(ch *chain.Chain, flushInterval time.Duration, maxEntries int, metrics *telemetry.Registry) *shardBatcher {
	b := &shardBatcher{
		chain:         ch,
		flushInterval: flushInterval,
		maxEntries:    maxEntries,
		pending:       make(map[string]pendingWrite),
		kick:          make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		flushEntries: metrics.Histogram("ray_gcs_batch_flush_entries",
			"Distinct keys committed per GCS batch flush.", telemetry.DefSizeBuckets),
		flushSeconds: metrics.Histogram("ray_gcs_batch_flush_seconds",
			"Wall time of each GCS batch chain commit.", telemetry.DefLatencyBuckets),
		flushErrors: metrics.Counter("ray_gcs_batch_flush_errors_total",
			"GCS batch chain commits that failed."),
	}
	go b.loop()
	return b
}

// enqueue deposits a write (deleted: a tombstone) into the pending buffer;
// the commit happens on the next flush, which hands value to the chain for
// good. It reports false — without enqueuing — once the batcher is closed,
// because the stopped flusher would never commit the entry; the caller must
// write through the chain directly instead.
func (b *shardBatcher) enqueue(key string, value []byte, deleted bool) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.seq++
	pw, ok := b.pending[key]
	if !pw.queued {
		b.order = append(b.order, key)
	}
	if ok {
		b.coalesced.Add(1)
	}
	b.pending[key] = pendingWrite{value: value, deleted: deleted, seq: b.seq, queued: true}
	full := len(b.order) >= b.maxEntries
	b.mu.Unlock()
	b.enqueued.Add(1)
	if full {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	return true
}

// lookup reads the pending overlay. pending=true means the key has an
// unflushed write (read-your-writes for this Store's clients): its value, or
// present=false for a tombstone, which reads as absent whatever the chain
// still holds.
func (b *shardBatcher) lookup(key string) (value []byte, present, pending bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pw, ok := b.pending[key]; ok {
		return pw.value, !pw.deleted, true
	}
	return nil, false, false
}

// pendingKeys returns the unflushed keys with the given prefix, so the span
// table's scan (Spans) observes entries that have not reached the chain yet.
func (b *shardBatcher) pendingKeys(prefix string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for key, pw := range b.pending {
		if !pw.deleted && strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
	}
	return out
}

func (b *shardBatcher) loop() {
	defer close(b.done)
	timer := time.NewTimer(b.flushInterval)
	defer timer.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-timer.C:
		case <-b.kick:
		}
		//lint:ignore ctxflow the background flusher is detached by design; its lifetime is the stop channel, and flush errors land in lastErr
		b.flush(context.Background())
		timer.Reset(b.flushInterval)
	}
}

// flush commits one snapshot of the pending buffer as a single chain batch.
// Entries stay visible in the overlay until the commit lands, so a reader can
// never observe a window where a write is neither pending nor in the chain.
func (b *shardBatcher) flush(ctx context.Context) error {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()

	b.mu.Lock()
	if len(b.order) == 0 {
		b.mu.Unlock()
		return nil
	}
	keys := b.order
	b.order = nil
	values := make([][]byte, len(keys))
	seqs := make([]uint64, len(keys))
	var deleted []bool // made at the first tombstone: most batches have none
	for i, key := range keys {
		pw := b.pending[key]
		values[i], seqs[i] = pw.value, pw.seq
		if pw.deleted {
			if deleted == nil {
				deleted = make([]bool, len(keys))
			}
			deleted[i] = true
		}
		pw.queued = false
		b.pending[key] = pw
	}
	// Every write with seq <= snapshotSeq is either in this snapshot (its
	// key's latest value) or superseded by one that is, so a successful
	// commit makes all of them durable for ack purposes.
	snapshotSeq := b.seq
	b.mu.Unlock()

	flushStart := time.Now()
	//lint:ignore mutexhold flushMu orders snapshot commits: an older snapshot must never land after a newer one
	err := b.chain.WriteBatch(ctx, keys, values, deleted)
	b.flushes.Add(1)
	b.flushEntries.Observe(float64(len(keys)))
	b.flushSeconds.Observe(time.Since(flushStart).Seconds())
	if err != nil {
		b.flushErrors.Inc()
	}

	b.mu.Lock()
	if err == nil {
		for i, key := range keys {
			// Drop the overlay entry only if no newer write superseded it
			// while the commit was in flight.
			if pw, ok := b.pending[key]; ok && pw.seq == seqs[i] && !pw.queued {
				delete(b.pending, key)
			}
		}
		if snapshotSeq > b.committedSeq {
			b.committedSeq = snapshotSeq
		}
		b.resolveWaitersLocked(nil)
	} else {
		// Keep the entries visible and re-queue them for the next flush so a
		// transient chain failure does not silently drop control state.
		for _, key := range keys {
			if pw, ok := b.pending[key]; ok && !pw.queued {
				pw.queued = true
				b.pending[key] = pw
				b.order = append(b.order, key)
			}
		}
	}
	b.mu.Unlock()

	if err != nil {
		b.errMu.Lock()
		if b.lastErr == nil {
			b.lastErr = err
		}
		b.errMu.Unlock()
	}
	return err
}

// commitFuture returns a future that resolves once every write enqueued on
// this shard so far is durably chain-committed — the flush-on-ack handle for
// callers that need durability before replying. A shard with nothing pending
// returns an already-resolved future.
func (b *shardBatcher) commitFuture() *CommitFuture {
	f := newCommitFuture()
	b.mu.Lock()
	if b.seq <= b.committedSeq {
		b.mu.Unlock()
		f.resolve(nil)
		return f
	}
	if b.closed {
		// The flusher is gone; close() has already drained (or is draining
		// under this mutex's exclusion) — whatever is still pending will never
		// commit through this batcher.
		err := b.err()
		b.mu.Unlock()
		f.resolve(err)
		return f
	}
	b.waiters = append(b.waiters, ackWaiter{seq: b.seq, f: f})
	b.mu.Unlock()
	// Make sure a flush happens promptly rather than waiting out the interval.
	select {
	case b.kick <- struct{}{}:
	default:
	}
	return f
}

// resolveWaitersLocked resolves every waiter whose sequence is covered by
// committedSeq (or all of them when err is non-nil, at close). Caller holds
// b.mu.
//
//guard:holds mu
func (b *shardBatcher) resolveWaitersLocked(err error) {
	kept := b.waiters[:0]
	for _, w := range b.waiters {
		if err != nil || w.seq <= b.committedSeq {
			w.f.resolve(err)
		} else {
			kept = append(kept, w)
		}
	}
	b.waiters = kept
}

// drain flushes until the pending buffer is empty. The initial flush call
// also synchronizes with any in-flight background commit (via flushMu), so
// when drain returns every write enqueued before it was called is committed.
func (b *shardBatcher) drain(ctx context.Context) error {
	for {
		if err := b.flush(ctx); err != nil {
			return err
		}
		b.mu.Lock()
		remaining := len(b.order)
		b.mu.Unlock()
		if remaining == 0 {
			return nil
		}
	}
}

// close stops the background flusher and commits everything still pending.
func (b *shardBatcher) close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return b.err()
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
	//lint:ignore ctxflow close follows the ctx-less io.Closer contract; the final drain must run to completion regardless of caller cancellation
	derr := b.drain(context.Background())
	// Whatever drain could not commit will never commit; release any commit
	// futures still waiting so their holders observe the failure rather than
	// hanging.
	b.mu.Lock()
	b.resolveWaitersLocked(derr)
	b.mu.Unlock()
	if derr != nil {
		return derr
	}
	return b.err()
}

func (b *shardBatcher) err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.lastErr
}
