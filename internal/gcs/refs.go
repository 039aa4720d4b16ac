package gcs

import (
	"context"
	"sync"

	"ray/internal/types"
)

// Reference counting (ownership-rooted reclamation).
//
// Every object is owned by the worker or driver that created it. The owner
// holds one reference from creation (the submitter/put reference), every
// pending task that names the object as an argument holds one more, and
// transient Get pins hold one while a fetch is in flight. When the count
// reaches zero the object is unreachable — no live reference can ever name
// it again short of lineage replay — so the ledger invokes the reclaimer,
// which deletes every store copy and withdraws the GCS locations. This
// replaces wait-until-job-exit GC as the primary memory release path; the
// job hooks remain as a backstop for leaked references.
//
// The ledger is a plain in-memory map on the GCS rather than chain state:
// counts are high-churn (every task submission and completion touches them)
// and reconstructible — after a GCS failover, lineage replay regenerates any
// object whose count was lost, so durability buys nothing.

type refLedger struct {
	mu        sync.Mutex
	counts    map[types.ObjectID]int64                     //guard:by mu
	reclaimer func(ctx context.Context, id types.ObjectID) //guard:by mu
}

func (s *Store) refs() *refLedger {
	s.refOnce.Do(func() {
		s.refLedger = &refLedger{counts: make(map[types.ObjectID]int64)}
	})
	return s.refLedger
}

// SetReclaimer installs the callback invoked (outside the ledger lock) when
// an object's reference count reaches zero. The cluster wires this to
// store-copy deletion plus location withdrawal.
func (s *Store) SetReclaimer(fn func(ctx context.Context, id types.ObjectID)) {
	r := s.refs()
	r.mu.Lock()
	r.reclaimer = fn
	r.mu.Unlock()
}

// IncObjectRefs adds delta references to each object. Call it before the
// action that hands the reference off (task submission, Put registration) so
// the count can never be observed at zero while the reference is live.
func (s *Store) IncObjectRefs(delta int64, ids ...types.ObjectID) {
	if len(ids) == 0 {
		return
	}
	r := s.refs()
	r.mu.Lock()
	for _, id := range ids {
		r.counts[id] += delta
	}
	r.mu.Unlock()
}

// DecObjectRefs removes one reference from each object. Objects whose count
// reaches zero are forgotten by the ledger and handed to the reclaimer
// synchronously, outside the lock. Decrements for unknown objects are
// ignored (the ledger may have been purged by job GC).
func (s *Store) DecObjectRefs(ctx context.Context, ids ...types.ObjectID) {
	if len(ids) == 0 {
		return
	}
	r := s.refs()
	var dead []types.ObjectID
	r.mu.Lock()
	for _, id := range ids {
		c, ok := r.counts[id]
		if !ok {
			continue
		}
		c--
		if c > 0 {
			r.counts[id] = c
			continue
		}
		delete(r.counts, id)
		dead = append(dead, id)
	}
	reclaim := r.reclaimer
	r.mu.Unlock()
	if reclaim == nil {
		return
	}
	for _, id := range dead {
		reclaim(ctx, id)
	}
}

// ObjectRefCount reports the current count for one object (0 if untracked).
func (s *Store) ObjectRefCount(id types.ObjectID) int64 {
	r := s.refs()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[id]
}

// TrackedObjectRefs reports how many objects currently hold a nonzero count
// (for tests and stats).
func (s *Store) TrackedObjectRefs() int {
	r := s.refs()
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counts)
}

// ForgetObjectRefs drops ledger entries without reclaiming — the job-exit
// backstop calls it after force-releasing a job's objects so leaked counts
// do not pin map entries forever.
func (s *Store) ForgetObjectRefs(ids ...types.ObjectID) {
	if len(ids) == 0 {
		return
	}
	r := s.refs()
	r.mu.Lock()
	for _, id := range ids {
		delete(r.counts, id)
	}
	r.mu.Unlock()
}
