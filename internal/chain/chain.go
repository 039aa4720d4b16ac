// Package chain implements chain replication (van Renesse & Schneider,
// OSDI'04) over the kv shard store. The Global Control Store uses one chain
// per shard to tolerate replica failures while preserving strong consistency:
// writes enter at the head and are acknowledged by the tail; reads are served
// by the tail.
//
// There is no commit hook: the GCS signals subscribers when a write is readable
// through the Store (batched: before it gets here); a commit makes it durable.
//
// A lightweight master (one per chain, as in the paper's "chain master")
// handles reconfiguration: when a replica failure is reported, the dead
// replica is cut out of the chain, and if a replica factory is configured a
// fresh replica joins at the tail after a state transfer. The Figure 10a
// experiment drives exactly this sequence and measures the client-observed
// latency spike.
package chain

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/kv"
	"ray/internal/netsim"
)

// ErrReplicaDown indicates an operation touched a failed replica before the
// master reconfigured the chain. Callers retry after reporting the failure.
var ErrReplicaDown = errors.New("chain: replica down")

// ErrNoReplicas indicates the chain has lost every replica.
var ErrNoReplicas = errors.New("chain: no replicas left")

// Replica is one member of a chain: a kv store plus liveness state.
type Replica struct {
	// ID names the replica for logging and failure injection.
	ID    string
	store *kv.Store
	alive atomic.Bool
}

// NewReplica creates a live replica with an empty store.
func NewReplica(id string) *Replica {
	r := &Replica{ID: id, store: kv.NewStore()}
	r.alive.Store(true)
	return r
}

// Alive reports whether the replica is up.
func (r *Replica) Alive() bool { return r.alive.Load() }

// Kill marks the replica as failed. Subsequent operations through it fail.
func (r *Replica) Kill() { r.alive.Store(false) }

// Store exposes the underlying kv store (used by tests and state transfer).
func (r *Replica) Store() *kv.Store { return r.store }

func (r *Replica) read(key string) ([]byte, bool, error) {
	if !r.Alive() {
		return nil, false, fmt.Errorf("%w: %s", ErrReplicaDown, r.ID)
	}
	v, ok := r.store.Get(key)
	return v, ok, nil
}

// Config controls chain behaviour.
type Config struct {
	// ReplicationFactor is the target chain length. The master restores the
	// chain to this length after failures when a ReplicaFactory is set.
	ReplicationFactor int
	// Network, when non-nil, charges one message latency per hop so
	// replication cost is visible in latency-sensitive experiments.
	Network *netsim.Network
	// ReconfigureDelay models the failure-detection plus membership-update
	// time during reconfiguration (scaled by the network's TimeScale when a
	// network is present, used directly otherwise).
	ReconfigureDelay time.Duration
	// StateTransferBytesPerEntry approximates the per-entry cost of state
	// transfer to a joining replica; combined with the network's bandwidth it
	// determines how long a rejoin takes.
	StateTransferBytesPerEntry int64
}

// DefaultConfig returns a two-way replicated chain with no simulated network.
func DefaultConfig() Config {
	return Config{ReplicationFactor: 2, StateTransferBytesPerEntry: 64}
}

// Chain is a chain-replicated key-value store.
type Chain struct {
	cfg Config //guard:init

	// writeMu serializes writes: each GCS shard is single-threaded, exactly
	// like the Redis instance per shard in the paper's implementation.
	writeMu sync.Mutex

	// configMu guards the replica list (the chain configuration).
	configMu sync.RWMutex
	replicas []*Replica //guard:by configMu.R

	// nextID numbers replicas created by the factory.
	nextID atomic.Uint64

	// reconfigurations counts master reconfiguration events (for tests and
	// the Figure 10a harness).
	reconfigurations atomic.Int64
}

// New creates a chain with cfg.ReplicationFactor live replicas.
func New(cfg Config) *Chain {
	if cfg.ReplicationFactor < 1 {
		cfg.ReplicationFactor = 1
	}
	c := &Chain{cfg: cfg}
	for i := 0; i < cfg.ReplicationFactor; i++ {
		c.replicas = append(c.replicas, NewReplica(fmt.Sprintf("replica-%d", c.nextID.Add(1))))
	}
	return c
}

// Replicas returns the current chain members, head first.
func (c *Chain) Replicas() []*Replica {
	c.configMu.RLock()
	defer c.configMu.RUnlock()
	out := make([]*Replica, len(c.replicas))
	copy(out, c.replicas)
	return out
}

// Reconfigurations returns how many times the master has reconfigured the chain.
func (c *Chain) Reconfigurations() int64 { return c.reconfigurations.Load() }

// Put writes key=value through the chain: a one-entry PutBatch.
func (c *Chain) Put(ctx context.Context, key string, value []byte) error {
	return c.PutBatch(ctx, []string{key}, [][]byte{value})
}

// PutBatch writes a group of key=value pairs through the chain as a single
// commit: the whole batch rides one message per hop, each replica applies it
// under one lock of its store (readers there see all of it or none), and the
// chain's write lock is taken once. The GCS batching write path uses it to
// amortize per-task control-plane appends (the paper's sharded-GCS throughput
// argument). Every replica adopts the value slices (kv.Store.PutBatch), so
// the caller must never write to them again. Pairs are applied in slice
// order, so a later duplicate key wins, exactly as with sequential Puts. On
// replica failure the master reconfigures the chain and the whole batch is
// retried, so callers see increased latency rather than an error (unless
// every replica is gone); replays are idempotent because writes are
// last-writer-wins per key.
func (c *Chain) PutBatch(ctx context.Context, keys []string, values [][]byte) error {
	return c.WriteBatch(ctx, keys, values, nil)
}

// WriteBatch is PutBatch with deletes: where deleted[i] is true, every
// replica removes keys[i] (kv.Store.WriteBatch) instead of storing values[i].
// Deletes ride the same commit as the puts beside them, under each replica's
// one lock, and replay as idempotently: deleting a key twice, or a key that
// is not there, leaves the same state. A nil deleted deletes nothing.
func (c *Chain) WriteBatch(ctx context.Context, keys []string, values [][]byte, deleted []bool) error {
	if len(keys) != len(values) || (deleted != nil && len(deleted) != len(keys)) {
		return fmt.Errorf("chain: batch size mismatch (%d keys, %d values, %d deletes)", len(keys), len(values), len(deleted))
	}
	if len(keys) == 0 {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for attempt := 0; attempt < 8; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := c.tryWriteBatch(ctx, keys, values, deleted)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrNoReplicas) || !errors.Is(err, ErrReplicaDown) {
			return err
		}
		if rerr := c.repair(ctx); rerr != nil {
			return rerr
		}
	}
	return fmt.Errorf("chain: commit of %d keys failed after repeated reconfigurations", len(keys))
}

func (c *Chain) tryWriteBatch(ctx context.Context, keys []string, values [][]byte, deleted []bool) error {
	c.configMu.RLock()
	replicas := make([]*Replica, len(c.replicas))
	copy(replicas, c.replicas)
	c.configMu.RUnlock()
	if len(replicas) == 0 {
		return ErrNoReplicas
	}
	for _, r := range replicas {
		// One message per hop for the whole batch — this is the batching win.
		if c.cfg.Network != nil {
			if err := c.cfg.Network.MessageDelay(ctx); err != nil {
				return err
			}
		}
		if !r.Alive() {
			return fmt.Errorf("%w: %s", ErrReplicaDown, r.ID)
		}
		r.store.WriteBatch(keys, values, deleted)
	}
	return nil
}

// Get reads key from the tail. On tail failure it reports the failure,
// repairs the chain, and retries. The value is the committed value, shared by
// every replica, never modified (see kv.Store.Get); the caller must not
// modify it either.
func (c *Chain) Get(ctx context.Context, key string) ([]byte, bool, error) {
	for attempt := 0; attempt < 8; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.configMu.RLock()
		var tail *Replica
		if n := len(c.replicas); n > 0 {
			tail = c.replicas[n-1]
		}
		c.configMu.RUnlock()
		if tail == nil {
			return nil, false, ErrNoReplicas
		}
		if c.cfg.Network != nil {
			if err := c.cfg.Network.MessageDelay(ctx); err != nil {
				return nil, false, err
			}
		}
		v, ok, err := tail.read(key)
		if err == nil {
			return v, ok, nil
		}
		if rerr := c.repair(ctx); rerr != nil {
			return nil, false, rerr
		}
	}
	return nil, false, errors.New("chain: get failed after repeated reconfigurations")
}

// KillReplica fails the replica at the given position (0 = head). It returns
// false if the position is out of range. The failure is *not* repaired until
// the next operation touches it or ReportFailure is called, mirroring the
// paper's setup where failures are detected via client errors or timeouts.
func (c *Chain) KillReplica(position int) bool {
	c.configMu.RLock()
	defer c.configMu.RUnlock()
	if position < 0 || position >= len(c.replicas) {
		return false
	}
	c.replicas[position].Kill()
	return true
}

// ReportFailure tells the master to reconfigure immediately (remove dead
// replicas and restore the replication factor).
func (c *Chain) ReportFailure(ctx context.Context) error {
	return c.repair(ctx)
}

// repair is the master's reconfiguration procedure: drop dead replicas, then
// add fresh replicas (with state transfer from the current tail) until the
// chain is back at its replication factor.
func (c *Chain) repair(ctx context.Context) error {
	c.configMu.Lock()
	defer c.configMu.Unlock()

	alive := c.replicas[:0]
	removed := 0
	for _, r := range c.replicas {
		if r.Alive() {
			alive = append(alive, r)
		} else {
			removed++
		}
	}
	c.replicas = alive
	if removed == 0 && len(c.replicas) >= c.cfg.ReplicationFactor {
		return nil
	}
	c.reconfigurations.Add(1)

	// Failure detection + membership update delay.
	if c.cfg.ReconfigureDelay > 0 {
		d := c.cfg.ReconfigureDelay
		if c.cfg.Network != nil {
			d = c.cfg.Network.Scale(d)
		}
		if d > 0 {
			timer := time.NewTimer(d)
			//lint:ignore mutexhold repair intentionally blocks config readers: no write may observe the chain mid-reconfiguration
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
	}

	if len(c.replicas) == 0 {
		return ErrNoReplicas
	}

	// Restore replication factor by joining new replicas at the tail with a
	// state transfer from the current tail.
	for len(c.replicas) < c.cfg.ReplicationFactor {
		tail := c.replicas[len(c.replicas)-1]
		fresh := NewReplica(fmt.Sprintf("replica-%d", c.nextID.Add(1)))
		snapshot := tail.Store().Snapshot()
		if c.cfg.Network != nil && c.cfg.StateTransferBytesPerEntry > 0 {
			size := int64(len(snapshot)) * c.cfg.StateTransferBytesPerEntry
			//lint:ignore mutexhold state transfer must complete under configMu so the joining tail sees no writes it missed
			if err := c.cfg.Network.Transfer(ctx, size, c.cfg.Network.Config().MaxParallelStreams); err != nil {
				return err
			}
		}
		fresh.Store().Restore(snapshot)
		c.replicas = append(c.replicas, fresh)
	}
	return nil
}

// Len returns the number of keys stored (as observed at the tail).
func (c *Chain) Len() int {
	c.configMu.RLock()
	defer c.configMu.RUnlock()
	if len(c.replicas) == 0 {
		return 0
	}
	return c.replicas[len(c.replicas)-1].Store().Len()
}

// Bytes returns the approximate resident bytes at the tail replica.
func (c *Chain) Bytes() int64 {
	c.configMu.RLock()
	defer c.configMu.RUnlock()
	if len(c.replicas) == 0 {
		return 0
	}
	return c.replicas[len(c.replicas)-1].Store().Bytes()
}
