package gcs

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// --- Object table ------------------------------------------------------------

// tableKey builds the table prefix followed by id's 16 raw bytes in a stack
// buffer, so a key costs the one allocation of its string. The raw bytes may
// be anything, '/' and 0x00 included: keys are only hashed, compared and
// matched on their table prefix, and displayKey renders them for people.
func tableKey(prefix string, id types.UniqueID) string {
	var buf [len(keyPrefixJob) + types.IDSize]byte // keyPrefixJob is the longest prefix
	n := copy(buf[:], prefix)
	n += copy(buf[n:], id[:])
	return string(buf[:n])
}

// displayKey renders a key where a person reads it: an ID table's key as its
// prefix followed by the ID in hex, any other key as it is.
func displayKey(key string) string {
	for _, prefix := range []string{keyPrefixObject, keyPrefixTask, keyPrefixActor, keyPrefixNode, keyPrefixJob} {
		if len(key) == len(prefix)+types.IDSize && strings.HasPrefix(key, prefix) {
			return prefix + hex.EncodeToString([]byte(key[len(prefix):]))
		}
	}
	return key
}

// jobIndex maps each job to the IDs of the entries it owns, so job-exit
// cleanup reads O(the job's entries) instead of scanning the cluster. IDs are
// added when a table write names an owning job, removed when their entry is
// deleted (objects only: actor entries live until job exit), and dropped
// wholesale when the job's resources are released.
type jobIndex[ID comparable] struct {
	mu    sync.Mutex
	owned map[types.JobID]map[ID]struct{} //guard:by mu — made in New
}

func (x *jobIndex[ID]) add(job types.JobID, id ID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	owned, ok := x.owned[job]
	if !ok {
		owned = make(map[ID]struct{})
		x.owned[job] = owned
	}
	owned[id] = struct{}{}
}

// remove drops one ID. The job's set stays, empty or not, until drop: a job
// whose live entries come and go would otherwise make a set per entry.
func (x *jobIndex[ID]) remove(job types.JobID, id ID) {
	x.mu.Lock()
	delete(x.owned[job], id)
	x.mu.Unlock()
}

func (x *jobIndex[ID]) list(job types.JobID) []ID {
	return x.appendTo(nil, job)
}

func (x *jobIndex[ID]) appendTo(out []ID, job types.JobID) []ID {
	x.mu.Lock()
	defer x.mu.Unlock()
	for id := range x.owned[job] {
		out = append(out, id)
	}
	return out
}

func (x *jobIndex[ID]) drop(job types.JobID) {
	x.mu.Lock()
	delete(x.owned, job)
	x.mu.Unlock()
}

func objectKey(id types.ObjectID) string { return tableKey(keyPrefixObject, types.UniqueID(id)) }

// AddObjectLocation records that node holds a replica of the object. It
// creates the entry if needed and preserves existing locations (and the
// owning job, once known). The write signals every subscriber waiting on the
// object as soon as GetObject returns it (the callback mechanism of paper
// Figure 7b). A nil job leaves the recorded owner untouched — replicas made
// by pulls re-register locations without knowing the producer's job.
func (s *Store) AddObjectLocation(ctx context.Context, id types.ObjectID, node types.NodeID, size int64, creator types.TaskID, job types.JobID) error {
	r := idRef(s, id, objectKey(id))
	return s.update(ctx, r, func(raw []byte, ok bool) ([]byte, error) {
		entry := &ObjectEntry{Size: size, Creator: creator, Job: job}
		indexed := false
		if ok {
			var err error
			if entry, err = unmarshalObjectEntry(raw); err != nil {
				return nil, err
			}
			indexed = !entry.Job.IsNil()
			if size > 0 {
				entry.Size = size
			}
			if !creator.IsNil() {
				entry.Creator = creator
			}
			if !job.IsNil() {
				entry.Job = job
			}
		}
		if !entry.HasLocation(node) {
			entry.Locations = append(entry.Locations, node)
		}
		if !indexed && !entry.Job.IsNil() {
			s.objIndex(r).add(entry.Job, id)
		}
		return entry.marshal(), nil
	})
}

// DeleteObject deletes the object's entry and its ID from the index of job,
// the owner the entry names. The ref ledger's reclaimer calls it once
// nothing can reach the object; job exit calls it for every object the job
// owned.
func (s *Store) DeleteObject(ctx context.Context, id types.ObjectID, job types.JobID) error {
	r := idRef(s, id, objectKey(id))
	return s.remove(ctx, r, func() { s.objIndex(r).remove(job, id) })
}

// objIndex returns the stripe of the object ownership index that holds r's
// ID. The index is striped like keyLocks, so the add of a task's output and
// the remove of a freed object rarely wait on each other.
func (s *Store) objIndex(r entryRef) *jobIndex[types.ObjectID] {
	return &s.objByJob[r.stripe%uint64(len(s.objByJob))]
}

// ObjectsForJob lists the objects one job owns, pending writes included:
// O(the job's entries), which the ref ledger keeps down to the objects still
// referenced or pinned by lineage.
func (s *Store) ObjectsForJob(job types.JobID) []types.ObjectID {
	var out []types.ObjectID
	for i := range s.objByJob {
		out = s.objByJob[i].appendTo(out, job)
	}
	return out
}

// RemoveObjectLocation removes the given nodes from the object's location set
// (eviction, node failure, reclamation of every replica) in one
// read-modify-write. Removing the last location leaves an entry with no
// locations, signalling that reconstruction is required. An entry that is
// gone stays gone.
func (s *Store) RemoveObjectLocation(ctx context.Context, id types.ObjectID, nodes ...types.NodeID) error {
	return s.update(ctx, idRef(s, id, objectKey(id)), func(raw []byte, ok bool) ([]byte, error) {
		if !ok {
			return nil, nil
		}
		entry, err := unmarshalObjectEntry(raw)
		if err != nil {
			return nil, err
		}
		entry.Locations = slices.DeleteFunc(entry.Locations, func(n types.NodeID) bool { return slices.Contains(nodes, n) })
		return entry.marshal(), nil
	})
}

// GetObject returns the object table entry, or ok=false if the object has
// never been created.
func (s *Store) GetObject(ctx context.Context, id types.ObjectID) (*ObjectEntry, bool, error) {
	return read(ctx, s, idRef(s, id, objectKey(id)), unmarshalObjectEntry)
}

// SubscribeObject returns a channel signalled whenever the table entry of one
// of the objects is written, and a cancel that releases the subscription. A
// signal says only "re-read": it is sent once GetObject returns the write,
// durable or not. Subscribe, read, then wait: in that order no write is missed.
func (s *Store) SubscribeObject(ids ...types.ObjectID) (<-chan struct{}, func()) {
	return subscribe(s, keyPrefixObject, ids)
}

// --- Task table ---------------------------------------------------------------

func taskKey(id types.TaskID) string { return tableKey(keyPrefixTask, types.UniqueID(id)) }

// AddTask records a task spec in the lineage table with PENDING status.
func (s *Store) AddTask(ctx context.Context, spec *task.Spec) error {
	entry := &TaskEntry{Spec: spec, Status: types.TaskPending}
	return s.put(ctx, s.shardFor(types.UniqueID(spec.ID)), taskKey(spec.ID), entry.marshal())
}

// UpdateTaskStatus records a task's new status and (optionally) the node it
// was placed on. The spec behind the entry's header is carried over as bytes,
// not decoded.
func (s *Store) UpdateTaskStatus(ctx context.Context, id types.TaskID, status types.TaskStatus, node types.NodeID) error {
	return s.update(ctx, idRef(s, id, taskKey(id)), func(raw []byte, ok bool) ([]byte, error) {
		if !ok {
			return nil, fmt.Errorf("gcs: update status of unknown task %s: %w", id, types.ErrTaskNotFound)
		}
		return patchTaskEntry(raw, status, node)
	})
}

// GetTask returns the lineage entry for a task.
func (s *Store) GetTask(ctx context.Context, id types.TaskID) (*TaskEntry, bool, error) {
	return read(ctx, s, idRef(s, id, taskKey(id)), unmarshalTaskEntry)
}

// --- Actor table ---------------------------------------------------------------

func actorKey(id types.ActorID) string { return tableKey(keyPrefixActor, types.UniqueID(id)) }

// PutActor writes the actor table entry (creation, relocation, state change,
// checkpoint update all go through here), indexing the actor under its
// owning job so job-exit cleanup finds it even while it is pending,
// reconstructing, or stranded on a dead node.
func (s *Store) PutActor(ctx context.Context, id types.ActorID, entry *ActorEntry) error {
	if !entry.Job.IsNil() {
		s.actorsByJob.add(entry.Job, id)
	}
	return s.put(ctx, s.shardFor(types.UniqueID(id)), actorKey(id), entry.marshal())
}

// ActorsForJob lists the actors owned by one job, via the ownership index.
func (s *Store) ActorsForJob(job types.JobID) []types.ActorID { return s.actorsByJob.list(job) }

// DropJobActorIndex discards a job's actor ownership index entries once its
// actors have been stopped.
func (s *Store) DropJobActorIndex(job types.JobID) { s.actorsByJob.drop(job) }

// SubscribeActor is SubscribeObject for one actor's table entry (GetActor).
func (s *Store) SubscribeActor(id types.ActorID) (<-chan struct{}, func()) {
	return subscribe(s, keyPrefixActor, []types.ActorID{id})
}

// GetActor returns the actor table entry.
func (s *Store) GetActor(ctx context.Context, id types.ActorID) (*ActorEntry, bool, error) {
	return read(ctx, s, idRef(s, id, actorKey(id)), unmarshalActorEntry)
}

// --- Function table -------------------------------------------------------------

func functionKey(name string) string { return keyPrefixFunction + name }

// RegisterFunction publishes a remote function or actor class definition.
// In the paper this is what ships the function to every worker; here workers
// share a registry in-process, but the table is still the source of truth the
// debugging tools and tests inspect.
func (s *Store) RegisterFunction(ctx context.Context, entry *FunctionEntry) error {
	if entry.Name == "" {
		return fmt.Errorf("gcs: function name must be non-empty")
	}
	return s.put(ctx, s.shardForKey(entry.Name), functionKey(entry.Name), entry.marshal())
}

// AddActorMethod appends one method's declared shape to an actor class's
// function entry, creating the entry if the class has none yet.
func (s *Store) AddActorMethod(ctx context.Context, class string, method MethodInfo) error {
	return s.update(ctx, s.nameRef(class, functionKey(class)), func(raw []byte, ok bool) ([]byte, error) {
		entry := &FunctionEntry{Name: class, IsActorClass: true}
		if ok {
			var err error
			if entry, err = unmarshalFunctionEntry(raw); err != nil {
				return nil, err
			}
		}
		entry.Methods = append(entry.Methods, method)
		return entry.marshal(), nil
	})
}

// GetFunction returns a registered function definition.
func (s *Store) GetFunction(ctx context.Context, name string) (*FunctionEntry, bool, error) {
	return read(ctx, s, s.nameRef(name, functionKey(name)), unmarshalFunctionEntry)
}

// --- Node table ------------------------------------------------------------------

func nodeKey(id types.NodeID) string { return tableKey(keyPrefixNode, types.UniqueID(id)) }

// idList is the list of one table's IDs, in registration order.
type idList[ID comparable] struct {
	mu  sync.RWMutex
	ids []ID //guard:by mu.R
}

func (l *idList[ID]) add(id ID) {
	l.mu.Lock()
	if !slices.Contains(l.ids, id) {
		l.ids = append(l.ids, id)
	}
	l.mu.Unlock()
}

// readAll reads the entry of every ID on l with get, skipping IDs whose entry
// does not exist. The chain reads run outside l's lock.
func readAll[ID comparable, E any](ctx context.Context, l *idList[ID], get func(context.Context, ID) (E, bool, error)) ([]E, error) {
	l.mu.RLock()
	ids := slices.Clone(l.ids)
	l.mu.RUnlock()
	out := make([]E, 0, len(ids))
	for _, id := range ids {
		entry, ok, err := get(ctx, id)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, entry)
		}
	}
	return out, nil
}

// RegisterNode adds a node to the cluster membership table.
func (s *Store) RegisterNode(ctx context.Context, entry *NodeEntry) error {
	if entry.HeartbeatUnixNano == 0 {
		entry.HeartbeatUnixNano = time.Now().UnixNano()
	}
	if err := s.put(ctx, s.shardFor(types.UniqueID(entry.ID)), nodeKey(entry.ID), entry.marshal()); err != nil {
		return err
	}
	s.nodeIDs.add(entry.ID)
	return nil
}

// HeartbeatUpdate is one node's load report.
type HeartbeatUpdate struct {
	ID             types.NodeID
	Available      map[string]float64
	QueueLength    int
	AvgTaskMillis  float64
	MemoryUsed     int64
	MemoryCapacity int64
}

// HeartbeatBatch refreshes many nodes' load, resource availability and
// object-store occupancy; the global scheduler consumes these entries to
// estimate queueing delay per node and to steer work away from
// memory-pressured nodes. The cluster's heartbeat aggregator sends every
// node's update in one batch, and the shard batchers commit a tick's updates
// together, so the per-tick chain commits stay constant as the cluster grows
// (the control-plane scaling property behind Figure 8b). Nodes not present in
// the membership table (not yet registered) or no longer alive (racing a
// concurrent kill) are skipped rather than failing the whole batch.
func (s *Store) HeartbeatBatch(ctx context.Context, updates []HeartbeatUpdate) error {
	now := time.Now().UnixNano()
	for _, u := range updates {
		err := s.update(ctx, idRef(s, u.ID, nodeKey(u.ID)), func(raw []byte, ok bool) ([]byte, error) {
			if !ok {
				return nil, nil
			}
			entry, err := unmarshalNodeEntry(raw)
			if err != nil || entry.State != types.NodeAlive {
				// Writing the update back would resurrect a dead node's entry.
				return nil, err
			}
			entry.AvailableResources = u.Available
			entry.QueueLength = u.QueueLength
			entry.AvgTaskMillis = u.AvgTaskMillis
			entry.MemoryUsed = u.MemoryUsed
			entry.MemoryCapacity = u.MemoryCapacity
			entry.HeartbeatUnixNano = now
			return entry.marshal(), nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// MarkNodeDead records a node failure. Schedulers and object managers learn
// about it on their next read of the node table.
func (s *Store) MarkNodeDead(ctx context.Context, id types.NodeID) error {
	return s.update(ctx, idRef(s, id, nodeKey(id)), func(raw []byte, ok bool) ([]byte, error) {
		if !ok {
			return nil, fmt.Errorf("gcs: mark dead: %w", types.ErrNodeNotFound)
		}
		entry, err := unmarshalNodeEntry(raw)
		if err != nil {
			return nil, err
		}
		entry.State = types.NodeDead
		return entry.marshal(), nil
	})
}

// GetNode returns the membership entry for one node.
func (s *Store) GetNode(ctx context.Context, id types.NodeID) (*NodeEntry, bool, error) {
	return read(ctx, s, idRef(s, id, nodeKey(id)), unmarshalNodeEntry)
}

// Nodes returns every registered node, sorted by ID for determinism. The
// global scheduler calls this on every placement decision, so it reads
// through the membership index — O(nodes) point reads that also observe
// writes still pending in the batching overlay — rather than scanning every
// resident key.
func (s *Store) Nodes(ctx context.Context) ([]*NodeEntry, error) {
	out, err := readAll(ctx, &s.nodeIDs, s.GetNode)
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].ID[:], out[j].ID[:]) < 0 })
	return out, err
}

// AliveNodes returns the subset of Nodes that are alive.
func (s *Store) AliveNodes(ctx context.Context) ([]*NodeEntry, error) {
	all, err := s.Nodes(ctx)
	if err != nil {
		return nil, err
	}
	alive := all[:0]
	for _, n := range all {
		if n.State == types.NodeAlive {
			alive = append(alive, n)
		}
	}
	return alive, nil
}

// --- Job table -------------------------------------------------------------------

func jobKey(id types.JobID) string { return tableKey(keyPrefixJob, types.UniqueID(id)) }

// RegisterJob records a new job in the job table. Weights below 1 are
// normalized to 1 (the default fair share).
func (s *Store) RegisterJob(ctx context.Context, entry *JobEntry) error {
	if entry.ID.IsNil() {
		return fmt.Errorf("gcs: register job with nil id")
	}
	if entry.Weight < 1 {
		entry.Weight = 1
	}
	if entry.StartUnixNano == 0 {
		entry.StartUnixNano = time.Now().UnixNano()
	}
	if err := s.put(ctx, s.shardFor(types.UniqueID(entry.ID)), jobKey(entry.ID), entry.marshal()); err != nil {
		return err
	}
	s.jobIDs.add(entry.ID)
	return nil
}

// GetJob returns the job table entry, or ok=false for unknown jobs.
func (s *Store) GetJob(ctx context.Context, id types.JobID) (*JobEntry, bool, error) {
	return read(ctx, s, idRef(s, id, jobKey(id)), unmarshalJobEntry)
}

// UpdateJobState transitions a job's lifecycle state. Terminal transitions
// record the finish time; a job already terminal stays in its first terminal
// state (finish/kill races resolve to whoever got there first). changed
// reports whether THIS call performed the transition — the caller that wins
// the race owns the job's cleanup.
func (s *Store) UpdateJobState(ctx context.Context, id types.JobID, state types.JobState) (entry *JobEntry, changed bool, err error) {
	err = s.update(ctx, idRef(s, id, jobKey(id)), func(raw []byte, ok bool) ([]byte, error) {
		if !ok {
			return nil, fmt.Errorf("gcs: update state of unknown job %s: %w", id, types.ErrJobNotFound)
		}
		var err error
		if entry, err = unmarshalJobEntry(raw); err != nil || entry.State.Terminal() {
			return nil, err
		}
		entry.State = state
		if state.Terminal() {
			entry.FinishUnixNano = time.Now().UnixNano()
		}
		changed = true
		return entry.marshal(), nil
	})
	if err != nil {
		return nil, false, err
	}
	return entry, changed, nil
}

// Jobs returns every registered job, sorted by start time then ID for
// determinism, via O(jobs) point reads through the jobIDs index.
func (s *Store) Jobs(ctx context.Context) ([]*JobEntry, error) {
	out, err := readAll(ctx, &s.jobIDs, s.GetJob)
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNano != out[j].StartUnixNano {
			return out[i].StartUnixNano < out[j].StartUnixNano
		}
		return bytes.Compare(out[i].ID[:], out[j].ID[:]) < 0
	})
	return out, err
}

// --- Span table -------------------------------------------------------------

// shardKeys lists the keys with the given prefix on shard si: the chain
// tail's resident keys plus any pending batched writes, deduplicated.
func (s *Store) shardKeys(si int, prefix string) []string {
	var keys []string
	if reps := s.shards[si].Replicas(); len(reps) > 0 {
		keys = reps[len(reps)-1].Store().Keys(prefix)
	}
	if s.batchers == nil {
		return keys
	}
	pending := s.batchers[si].pendingKeys(prefix)
	if len(pending) == 0 {
		return keys
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	for _, k := range pending {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	return keys
}

// AppendEvent records an event (a node death, a job transition, an actor
// reconstruction) in the span table as an instant span of phase
// telemetry.PhaseEvent named kind. A node or job subject goes in the span's
// Node or Job; any other subject is printed into Task.
func (s *Store) AppendEvent(ctx context.Context, kind string, subject any) error {
	sp := telemetry.Span{Phase: telemetry.PhaseEvent, Name: kind, StartUnixNano: time.Now().UnixNano()}
	switch id := subject.(type) {
	case types.NodeID:
		sp.Node = id.String()
	case types.JobID:
		sp.Job = id.String()
	default:
		sp.Task = fmt.Sprint(subject)
	}
	return s.AppendSpans(ctx, []telemetry.Span{sp})
}

// AppendSpans persists a batch of spans into the span table, assigning each
// its global sequence number, and counts the entry in LogBytes. The span
// table is another "added benefit" of routing all control state through the
// GCS: the task timeline and the cluster's events are an ordinary queryable
// table. Implements telemetry.SpanSink.
func (s *Store) AppendSpans(ctx context.Context, spans []telemetry.Span) error {
	if len(spans) == 0 {
		return nil
	}
	// The whole flush batch lands under one key: spans arrive thousands at a
	// time from the tracer, and one control-plane write per heartbeat keeps
	// span persistence invisible next to the per-task table traffic.
	for i := range spans {
		spans[i].Seq = s.spanSeq.Add(1)
	}
	key := fmt.Sprintf("%s%020d", keyPrefixSpan, spans[0].Seq)
	value := telemetry.MarshalSpans(spans)
	if err := s.put(ctx, s.shardForKey(key), key, value); err != nil {
		return err
	}
	s.logBytes.Add(int64(len(key) + len(value)))
	return nil
}

// Spans returns every span, events included, ordered by sequence number;
// writes pending in the batching overlay are read too.
func (s *Store) Spans(ctx context.Context) ([]telemetry.Span, error) {
	var out []telemetry.Span
	for si := range s.shards {
		for _, key := range s.shardKeys(si, keyPrefixSpan) {
			batch, ok, err := read(ctx, s, entryRef{shard: si, key: key}, telemetry.UnmarshalSpans)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, batch...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
