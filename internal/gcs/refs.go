package gcs

import (
	"context"
	"errors"
	"sync"

	"ray/internal/task"
	"ray/internal/types"
)

// Reference counting and lineage reachability (ownership-rooted collection).
//
// Every object is owned by the worker or driver that created it. The owner
// holds one reference from creation (the submitter/put reference), every
// pending task that names the object as an argument holds one more, and
// transient Get pins hold one while a fetch is in flight. An object also
// carries pins: one per retained task-table entry that names it as an
// argument, because replaying that task needs the argument again.
//
//   - At zero references no program can name the object: the reclaimer
//     deletes every store copy and withdraws its locations. While pins remain
//     the directory entry stays, so lineage replay can rebuild the object.
//   - At zero references and zero pins nothing can reach the object: its
//     directory entry is deleted too.
//   - A normal task's entry is retained until its final status is written
//     and every one of its return objects is gone. Deleting it unpins its
//     arguments, which may make them unreachable in turn: an iterative
//     cascade up the lineage, run under one lock acquisition.
//   - Actor task entries stay, because actor replay walks them; so do the
//     pins they hold. Their return objects are collected like any other.
//
// This is what bounds the control plane's memory: the paper flushes lineage
// to disk because it cannot tell when lineage is dead (Figure 10b); these
// counts can. Job exit remains the backstop for references a program leaks.
//
// The ledger is a plain in-memory map on the GCS rather than chain state:
// counts are high-churn (every task submission and completion touches them)
// and reconstructible — after a GCS failover, lineage replay regenerates any
// object whose count was lost, so durability buys nothing.

// objRef is one object's ledger record. It exists while refs > 0 or pins > 0.
type objRef struct {
	refs int64
	pins int32
	// creator is the tracked task this object is a return of; nil for puts
	// and for returns of tasks submitted without lineage.
	creator *taskRec
}

// taskRec is one task whose entry the ledger will retire.
type taskRec struct {
	id  types.TaskID
	job types.JobID
	// deps are the arguments the task's entry pins, one pin per occurrence.
	deps []types.ObjectID
	// returns is the task's return count; live counts the returns that
	// still have a ledger record.
	returns, live int32
	// final is set once the task's final status is written: until then a
	// return that dies may not be stored yet, so completion collects it again.
	final bool
	// keep marks an actor task: its entry and pins outlive the record.
	keep bool
}

type refLedger struct {
	mu      sync.Mutex
	objects map[types.ObjectID]objRef //guard:by mu
	// tasks holds each job's records, so job exit reads only its own.
	tasks map[types.JobID]map[types.TaskID]*taskRec //guard:by mu
	// reclaimer drops an object's store copies; unreachable says its entry
	// goes as well. Nil (a GCS with no stores) leaves objects where they are.
	reclaimer func(ctx context.Context, id types.ObjectID, unreachable bool) //guard:by mu
}

// sweep is what one ledger call made unreachable: collected under the lock,
// applied outside it.
type sweep struct {
	objects []reclaim
	tasks   []types.TaskID
	// unpin is the cascade's worklist: arguments of retired task entries.
	unpin []types.ObjectID
	// reclaimer is the ledger's, read under the lock.
	reclaimer func(ctx context.Context, id types.ObjectID, unreachable bool)
}

type reclaim struct {
	id          types.ObjectID
	unreachable bool
}

func (s *Store) refs() *refLedger {
	s.refOnce.Do(func() {
		s.refLedger = &refLedger{
			objects: make(map[types.ObjectID]objRef),
			tasks:   make(map[types.JobID]map[types.TaskID]*taskRec),
		}
	})
	return s.refLedger
}

// SetReclaimer installs the callback invoked (outside the ledger lock) when
// an object's reference count reaches zero: it deletes the object's store
// copies, and when unreachable is set (no pins either) its directory entry
// through DeleteObject. The cluster wires this to its stores.
func (s *Store) SetReclaimer(fn func(ctx context.Context, id types.ObjectID, unreachable bool)) {
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
		o := r.objects[id]
		o.refs += delta
		r.objects[id] = o
	}
	r.mu.Unlock()
}

// AcquireObjectRef adds one reference to an object the ledger tracks and
// reports whether it did. False means no reference or pin holds the object:
// it was freed, or its job exited, or it was never counted.
func (s *Store) AcquireObjectRef(id types.ObjectID) bool {
	r := s.refs()
	r.mu.Lock()
	defer r.mu.Unlock()
	o, ok := r.objects[id]
	if ok {
		o.refs++
		r.objects[id] = o
	}
	return ok
}

// DecObjectRefs removes one reference from each object and collects what
// that makes unreachable (see the package comment above), synchronously and
// outside the lock. Decrements for unknown objects are ignored (the ledger
// may have been purged by job GC).
func (s *Store) DecObjectRefs(ctx context.Context, ids ...types.ObjectID) {
	if len(ids) == 0 {
		return
	}
	r := s.refs()
	var sw sweep
	r.mu.Lock()
	for _, id := range ids {
		r.releaseLocked(id, 1, 0, &sw)
	}
	r.endLocked(&sw)
	r.mu.Unlock()
	s.apply(ctx, &sw)
}

// TrackTask roots a submitted task's references: one on each return (the
// submitter's) and one on each object argument (the pending task's). With
// lineage, the task's entry is recorded in the task table, so it also pins
// each argument and the ledger retires the entry once the task is done and
// its returns are gone. Call it before AddTask.
func (s *Store) TrackTask(spec *task.Spec, lineage bool) {
	r := s.refs()
	var t *taskRec
	if lineage {
		n := int32(spec.NumReturns)
		t = &taskRec{id: spec.ID, job: spec.Job, deps: spec.Dependencies(), returns: n, live: n, keep: spec.IsActorTask()}
	}
	var pins int32
	r.mu.Lock()
	if t != nil {
		tasks, ok := r.tasks[spec.Job]
		if !ok {
			tasks = make(map[types.TaskID]*taskRec)
			r.tasks[spec.Job] = tasks
		}
		tasks[spec.ID] = t
		pins = 1
	}
	for i := 0; i < spec.NumReturns; i++ {
		id := types.ReturnObjectID(spec.ID, i)
		o := r.objects[id]
		o.refs++
		o.creator = t
		r.objects[id] = o
	}
	for _, a := range spec.Args {
		if a.Kind == task.ArgObjectRef {
			o := r.objects[a.Ref]
			o.refs++
			o.pins += pins
			r.objects[a.Ref] = o
		}
	}
	r.mu.Unlock()
}

// UntrackTask takes back what TrackTask gave a task that never entered the
// system (its submission failed): the references, the pins, and its entry if
// AddTask wrote one.
func (s *Store) UntrackTask(ctx context.Context, spec *task.Spec) {
	r := s.refs()
	var sw sweep
	r.mu.Lock()
	t := r.tasks[spec.Job][spec.ID]
	if t != nil {
		t.keep = false // no actor replay will walk an entry of a task that never ran
	}
	for i := 0; i < spec.NumReturns; i++ {
		r.releaseLocked(types.ReturnObjectID(spec.ID, i), 1, 0, &sw)
	}
	r.completeLocked(spec, t, &sw)
	r.releaseArgsLocked(spec, &sw)
	r.endLocked(&sw)
	r.mu.Unlock()
	s.apply(ctx, &sw)
}

// CompleteTask records a finished task's final status (UpdateTaskStatus) and
// then runs FinishTask. The entry is retired only after the status write, so
// a return freed between its store and this call cannot make the write
// fail. An entry that is already gone (the job exited, or the replay
// outlived its lineage) is no error.
func (s *Store) CompleteTask(ctx context.Context, spec *task.Spec, status types.TaskStatus, node types.NodeID, releaseArgs bool) error {
	if err := s.UpdateTaskStatus(ctx, spec.ID, status, node); err != nil && !errors.Is(err, types.ErrTaskNotFound) {
		return err
	}
	s.FinishTask(ctx, spec, releaseArgs)
	return nil
}

// FinishTask collects what a finished task's completion makes unreachable:
// returns that were freed before they were stored, and the task's own entry
// if every return is gone. releaseArgs drops the pending task's references
// on its arguments; a lineage replay passes false, because its submission
// never took them. It is CompleteTask's ledger half, and all of completion
// for a task run without lineage, which has no status to write.
func (s *Store) FinishTask(ctx context.Context, spec *task.Spec, releaseArgs bool) {
	r := s.refs()
	var sw sweep
	r.mu.Lock()
	r.completeLocked(spec, r.tasks[spec.Job][spec.ID], &sw)
	if releaseArgs {
		r.releaseArgsLocked(spec, &sw)
	}
	r.endLocked(&sw)
	r.mu.Unlock()
	s.apply(ctx, &sw)
}

// ForgetJob drops an exiting job's ledger state without waiting for its
// references: the records of the objects it owns (owned, from
// ObjectsForJob) and of its tasks, and its object index. It deletes the
// job's normal-task entries and releases the pins its tasks held,
// collecting what that makes unreachable in other jobs. The caller deletes
// the owned objects' entries first.
func (s *Store) ForgetJob(ctx context.Context, job types.JobID, owned []types.ObjectID) {
	r := s.refs()
	var sw sweep
	r.mu.Lock()
	for _, id := range owned {
		delete(r.objects, id)
	}
	for id, t := range r.tasks[job] {
		for i := 0; i < int(t.returns); i++ {
			if ret := types.ReturnObjectID(id, i); r.objects[ret].creator == t {
				delete(r.objects, ret)
			}
		}
		if !t.keep {
			sw.tasks = append(sw.tasks, id)
		}
		sw.unpin = append(sw.unpin, t.deps...)
	}
	delete(r.tasks, job)
	r.endLocked(&sw)
	r.mu.Unlock()
	s.apply(ctx, &sw)
	for i := range s.objByJob {
		s.objByJob[i].drop(job)
	}
}

// ObjectTracked reports whether a reference or a pin holds the object.
func (s *Store) ObjectTracked(id types.ObjectID) bool {
	r := s.refs()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracked(id)
}

// ObjectRefCount reports the current count for one object (0 if untracked).
func (s *Store) ObjectRefCount(id types.ObjectID) int64 {
	r := s.refs()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.objects[id].refs
}

// completeLocked marks the task of spec (record t, nil if untracked) final:
// returns no reference or pin holds are collected — they may have died
// before they were stored — and the task is retired if none is left.
// Caller holds r.mu.
//
//guard:holds mu
func (r *refLedger) completeLocked(spec *task.Spec, t *taskRec, sw *sweep) {
	if t != nil {
		t.final = true
	}
	for i := 0; i < spec.NumReturns; i++ {
		if id := types.ReturnObjectID(spec.ID, i); !r.tracked(id) {
			sw.objects = append(sw.objects, reclaim{id, true})
		}
	}
	if t != nil && t.live == 0 {
		r.retireLocked(t, sw)
	}
}

// tracked reports whether id has a ledger record. Caller holds r.mu.
//
//guard:holds mu
func (r *refLedger) tracked(id types.ObjectID) bool {
	_, ok := r.objects[id]
	return ok
}

// releaseArgsLocked drops the references spec's pending task holds on its
// arguments. Caller holds r.mu.
//
//guard:holds mu
func (r *refLedger) releaseArgsLocked(spec *task.Spec, sw *sweep) {
	for _, a := range spec.Args {
		if a.Kind == task.ArgObjectRef {
			r.releaseLocked(a.Ref, 1, 0, sw)
		}
	}
}

// releaseLocked takes refs references and pins pins off id and records in sw
// what that makes unreachable. Caller holds r.mu.
//
//guard:holds mu
func (r *refLedger) releaseLocked(id types.ObjectID, refs int64, pins int32, sw *sweep) {
	o, ok := r.objects[id]
	if !ok {
		return
	}
	referenced := o.refs > 0
	o.refs -= refs
	o.pins -= pins
	switch {
	case o.refs > 0:
		r.objects[id] = o
	case o.pins > 0:
		r.objects[id] = o
		if referenced {
			sw.objects = append(sw.objects, reclaim{id, false})
		}
	default:
		// A return of a running task may not be stored yet: FinishTask
		// collects it once more after storing it.
		delete(r.objects, id)
		sw.objects = append(sw.objects, reclaim{id, true})
		if t := o.creator; t != nil {
			if t.live--; t.final && t.live == 0 {
				r.retireLocked(t, sw)
			}
		}
	}
}

// retireLocked drops a task's record; a normal task's entry goes with it and
// its pins join the cascade. Caller holds r.mu.
//
//guard:holds mu
func (r *refLedger) retireLocked(t *taskRec, sw *sweep) {
	delete(r.tasks[t.job], t.id)
	if !t.keep {
		sw.tasks = append(sw.tasks, t.id)
		sw.unpin = append(sw.unpin, t.deps...)
	}
}

// endLocked runs the cascade — unpinning retired entries' arguments, which
// may retire more entries — until nothing is left to unpin, and captures the
// reclaimer for apply. Caller holds r.mu.
//
//guard:holds mu
func (r *refLedger) endLocked(sw *sweep) {
	for n := len(sw.unpin); n > 0; n = len(sw.unpin) {
		id := sw.unpin[n-1]
		sw.unpin = sw.unpin[:n-1]
		r.releaseLocked(id, 0, 1, sw)
	}
	sw.reclaimer = r.reclaimer
}

// apply carries out a sweep: every collected object through the reclaimer,
// then every retired task entry's delete.
func (s *Store) apply(ctx context.Context, sw *sweep) {
	if sw.reclaimer != nil {
		for _, rc := range sw.objects {
			sw.reclaimer(ctx, rc.id, rc.unreachable)
		}
	}
	for _, id := range sw.tasks {
		//lint:ignore errdrop a task entry whose delete fails stays behind, as it would without collection
		_ = s.remove(ctx, idRef(s, id, taskKey(id)), nil)
	}
}
