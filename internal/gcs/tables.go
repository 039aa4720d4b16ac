package gcs

import (
	"context"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
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
		if len(key) == len(prefix)+types.IDSize && hasPrefix(key, prefix) {
			return prefix + hex.EncodeToString([]byte(key[len(prefix):]))
		}
	}
	return key
}

func objectKey(id types.ObjectID) string { return tableKey(keyPrefixObject, types.UniqueID(id)) }

// AddObjectLocation records that node holds a replica of the object. It
// creates the entry if needed and preserves existing locations (and the
// owning job, once known). The write signals every subscriber waiting on the
// object as soon as GetObject returns it (the callback mechanism of paper
// Figure 7b). A nil job leaves the recorded owner untouched — replicas made
// by pulls re-register locations without knowing the producer's job.
func (s *Store) AddObjectLocation(ctx context.Context, id types.ObjectID, node types.NodeID, size int64, creator types.TaskID, job types.JobID) error {
	shard := s.shardFor(types.UniqueID(id))
	key := objectKey(id)
	mu := s.keyLock(types.UniqueID(id))
	mu.Lock()
	defer mu.Unlock()
	raw, ok, err := s.get(ctx, shard, key)
	if err != nil {
		return err
	}
	entry := &ObjectEntry{Size: size, Creator: creator, Job: job}
	if ok {
		if existing, derr := unmarshalObjectEntry(raw); derr == nil {
			entry = existing
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
	}
	if !entry.HasLocation(node) {
		entry.Locations = append(entry.Locations, node)
	}
	if !entry.Job.IsNil() {
		s.objIdxMu.Lock()
		owned, ok := s.objByJob[entry.Job]
		if !ok {
			owned = make(map[types.ObjectID]struct{})
			s.objByJob[entry.Job] = owned
		}
		owned[id] = struct{}{}
		s.objIdxMu.Unlock()
	}
	return s.put(ctx, shard, key, entry.marshal())
}

// ObjectsForJob lists the objects owned by one job, via the ownership index
// (O(the job's objects), not a cluster-wide scan).
func (s *Store) ObjectsForJob(job types.JobID) []types.ObjectID {
	s.objIdxMu.Lock()
	defer s.objIdxMu.Unlock()
	owned := s.objByJob[job]
	out := make([]types.ObjectID, 0, len(owned))
	for id := range owned {
		out = append(out, id)
	}
	return out
}

// DropJobObjectIndex discards a job's ownership index entries once its
// objects have been released (job-exit cleanup's final step).
func (s *Store) DropJobObjectIndex(job types.JobID) {
	s.objIdxMu.Lock()
	delete(s.objByJob, job)
	s.objIdxMu.Unlock()
}

// RemoveObjectLocation removes the given nodes from the object's location set
// (eviction, node failure, reclamation of every replica) in one
// read-modify-write. Removing the last location leaves an entry with no
// locations, signalling that reconstruction is required.
func (s *Store) RemoveObjectLocation(ctx context.Context, id types.ObjectID, nodes ...types.NodeID) error {
	shard := s.shardFor(types.UniqueID(id))
	key := objectKey(id)
	mu := s.keyLock(types.UniqueID(id))
	mu.Lock()
	defer mu.Unlock()
	raw, ok, err := s.get(ctx, shard, key)
	if err != nil || !ok {
		return err
	}
	entry, err := unmarshalObjectEntry(raw)
	if err != nil {
		return err
	}
	kept := entry.Locations[:0]
	for _, n := range entry.Locations {
		if !slices.Contains(nodes, n) {
			kept = append(kept, n)
		}
	}
	entry.Locations = kept
	return s.put(ctx, shard, key, entry.marshal())
}

// GetObject returns the object table entry, or ok=false if the object has
// never been created.
func (s *Store) GetObject(ctx context.Context, id types.ObjectID) (*ObjectEntry, bool, error) {
	raw, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), objectKey(id))
	if err != nil || !ok {
		return nil, false, err
	}
	entry, err := unmarshalObjectEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
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
	shard := s.shardFor(types.UniqueID(id))
	key := taskKey(id)
	mu := s.keyLock(types.UniqueID(id))
	mu.Lock()
	defer mu.Unlock()
	raw, ok, err := s.get(ctx, shard, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("gcs: update status of unknown task %s: %w", id, types.ErrTaskNotFound)
	}
	patched, err := patchTaskEntry(raw, status, node)
	if err != nil {
		return err
	}
	return s.put(ctx, shard, key, patched)
}

// GetTask returns the lineage entry for a task.
func (s *Store) GetTask(ctx context.Context, id types.TaskID) (*TaskEntry, bool, error) {
	raw, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), taskKey(id))
	if err != nil || !ok {
		return nil, false, err
	}
	entry, err := unmarshalTaskEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
}

// --- Actor table ---------------------------------------------------------------

func actorKey(id types.ActorID) string { return tableKey(keyPrefixActor, types.UniqueID(id)) }

// PutActor writes the actor table entry (creation, relocation, state change,
// checkpoint update all go through here), indexing the actor under its
// owning job so job-exit cleanup finds it even while it is pending,
// reconstructing, or stranded on a dead node.
func (s *Store) PutActor(ctx context.Context, id types.ActorID, entry *ActorEntry) error {
	if !entry.Job.IsNil() {
		s.actorIdxMu.Lock()
		owned, ok := s.actorsByJob[entry.Job]
		if !ok {
			owned = make(map[types.ActorID]struct{})
			s.actorsByJob[entry.Job] = owned
		}
		owned[id] = struct{}{}
		s.actorIdxMu.Unlock()
	}
	return s.put(ctx, s.shardFor(types.UniqueID(id)), actorKey(id), entry.marshal())
}

// ActorsForJob lists the actors owned by one job, via the ownership index.
func (s *Store) ActorsForJob(job types.JobID) []types.ActorID {
	s.actorIdxMu.Lock()
	defer s.actorIdxMu.Unlock()
	owned := s.actorsByJob[job]
	out := make([]types.ActorID, 0, len(owned))
	for id := range owned {
		out = append(out, id)
	}
	return out
}

// DropJobActorIndex discards a job's actor ownership index entries once its
// actors have been stopped.
func (s *Store) DropJobActorIndex(job types.JobID) {
	s.actorIdxMu.Lock()
	delete(s.actorsByJob, job)
	s.actorIdxMu.Unlock()
}

// SubscribeActor is SubscribeObject for one actor's table entry (GetActor).
func (s *Store) SubscribeActor(id types.ActorID) (<-chan struct{}, func()) {
	return subscribe(s, keyPrefixActor, []types.ActorID{id})
}

// GetActor returns the actor table entry.
func (s *Store) GetActor(ctx context.Context, id types.ActorID) (*ActorEntry, bool, error) {
	raw, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), actorKey(id))
	if err != nil || !ok {
		return nil, false, err
	}
	entry, err := unmarshalActorEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
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

// GetFunction returns a registered function definition.
func (s *Store) GetFunction(ctx context.Context, name string) (*FunctionEntry, bool, error) {
	raw, ok, err := s.get(ctx, s.shardForKey(name), functionKey(name))
	if err != nil || !ok {
		return nil, false, err
	}
	entry, err := unmarshalFunctionEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
}

// --- Node table ------------------------------------------------------------------

func nodeKey(id types.NodeID) string { return tableKey(keyPrefixNode, types.UniqueID(id)) }

// RegisterNode adds a node to the cluster membership table.
func (s *Store) RegisterNode(ctx context.Context, entry *NodeEntry) error {
	if entry.HeartbeatUnixNano == 0 {
		entry.HeartbeatUnixNano = time.Now().UnixNano()
	}
	if err := s.put(ctx, s.shardFor(types.UniqueID(entry.ID)), nodeKey(entry.ID), entry.marshal()); err != nil {
		return err
	}
	s.nodeMu.Lock()
	known := false
	for _, id := range s.nodeIDs {
		if id == entry.ID {
			known = true
			break
		}
	}
	if !known {
		s.nodeIDs = append(s.nodeIDs, entry.ID)
	}
	s.nodeMu.Unlock()
	return nil
}

// Heartbeat refreshes a node's load, resource availability and object-store
// occupancy. The global scheduler consumes these entries to estimate queueing
// delay per node and to steer work away from memory-pressured nodes.
func (s *Store) Heartbeat(ctx context.Context, u HeartbeatUpdate) error {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	shard := s.shardFor(types.UniqueID(u.ID))
	key := nodeKey(u.ID)
	raw, ok, err := s.get(ctx, shard, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("gcs: heartbeat from unregistered node %s: %w", u.ID, types.ErrNodeNotFound)
	}
	entry, err := unmarshalNodeEntry(raw)
	if err != nil {
		return err
	}
	applyHeartbeat(entry, u, time.Now().UnixNano())
	return s.put(ctx, shard, key, entry.marshal())
}

// HeartbeatUpdate is one node's load report, sent alone or inside a coalesced
// heartbeat batch.
type HeartbeatUpdate struct {
	ID             types.NodeID
	Available      map[string]float64
	QueueLength    int
	AvgTaskMillis  float64
	MemoryUsed     int64
	MemoryCapacity int64
}

func applyHeartbeat(entry *NodeEntry, u HeartbeatUpdate, now int64) {
	entry.AvailableResources = u.Available
	entry.QueueLength = u.QueueLength
	entry.AvgTaskMillis = u.AvgTaskMillis
	entry.MemoryUsed = u.MemoryUsed
	entry.MemoryCapacity = u.MemoryCapacity
	entry.HeartbeatUnixNano = now
}

// HeartbeatBatch records many nodes' heartbeats with one chain commit per
// shard instead of one per node. The cluster's heartbeat aggregator uses it
// so the per-tick GCS write load stays constant as the cluster grows (the
// control-plane scaling property behind Figure 8b). Nodes not present in the
// membership table (not yet registered) or no longer alive (racing a
// concurrent kill) are skipped rather than failing the whole batch.
func (s *Store) HeartbeatBatch(ctx context.Context, updates []HeartbeatUpdate) error {
	if len(updates) == 0 {
		return nil
	}
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	now := time.Now().UnixNano()
	perShardKeys := make(map[int][]string)
	perShardValues := make(map[int][][]byte)
	for _, u := range updates {
		si := s.shardFor(types.UniqueID(u.ID))
		key := nodeKey(u.ID)
		raw, ok, err := s.get(ctx, si, key)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		entry, err := unmarshalNodeEntry(raw)
		if err != nil {
			return err
		}
		if entry.State != types.NodeAlive {
			// Writing the update back would resurrect a dead node's entry.
			continue
		}
		applyHeartbeat(entry, u, now)
		perShardKeys[si] = append(perShardKeys[si], key)
		perShardValues[si] = append(perShardValues[si], entry.marshal())
	}
	for si, keys := range perShardKeys {
		values := perShardValues[si]
		if s.batchers != nil {
			for i, key := range keys {
				if err := s.put(ctx, si, key, values[i]); err != nil {
					return err
				}
			}
			continue
		}
		s.puts.Add(int64(len(keys))) // nothing to publish: membership keys have no subscribers
		//lint:ignore mutexhold hbMu must span the commit or a heartbeat read-modify-write can resurrect a node just marked dead
		if err := s.shards[si].PutBatch(ctx, keys, values); err != nil {
			return fmt.Errorf("gcs: heartbeat batch: %w", err)
		}
	}
	return nil
}

// MarkNodeDead records a node failure. Schedulers and object managers learn
// about it on their next read (or via SubscribeNodeEvents).
func (s *Store) MarkNodeDead(ctx context.Context, id types.NodeID) error {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	shard := s.shardFor(types.UniqueID(id))
	key := nodeKey(id)
	raw, ok, err := s.get(ctx, shard, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("gcs: mark dead: %w", types.ErrNodeNotFound)
	}
	entry, err := unmarshalNodeEntry(raw)
	if err != nil {
		return err
	}
	entry.State = types.NodeDead
	return s.put(ctx, shard, key, entry.marshal())
}

// GetNode returns the membership entry for one node.
func (s *Store) GetNode(ctx context.Context, id types.NodeID) (*NodeEntry, bool, error) {
	raw, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), nodeKey(id))
	if err != nil || !ok {
		return nil, false, err
	}
	entry, err := unmarshalNodeEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
}

// Nodes returns every registered node, sorted by ID for determinism. The
// global scheduler calls this on every placement decision, so it reads
// through the membership index — O(nodes) point reads that also observe
// writes still pending in the batching overlay — rather than scanning every
// resident key.
func (s *Store) Nodes(ctx context.Context) ([]*NodeEntry, error) {
	s.nodeMu.RLock()
	ids := make([]types.NodeID, len(s.nodeIDs))
	copy(ids, s.nodeIDs)
	s.nodeMu.RUnlock()
	out := make([]*NodeEntry, 0, len(ids))
	for _, id := range ids {
		raw, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), nodeKey(id))
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		entry, err := unmarshalNodeEntry(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Hex() < out[j].ID.Hex() })
	return out, nil
}

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
	s.jobIDMu.Lock()
	known := false
	for _, id := range s.jobIDs {
		if id == entry.ID {
			known = true
			break
		}
	}
	if !known {
		s.jobIDs = append(s.jobIDs, entry.ID)
	}
	s.jobIDMu.Unlock()
	return nil
}

// GetJob returns the job table entry, or ok=false for unknown jobs.
func (s *Store) GetJob(ctx context.Context, id types.JobID) (*JobEntry, bool, error) {
	raw, ok, err := s.get(ctx, s.shardFor(types.UniqueID(id)), jobKey(id))
	if err != nil || !ok {
		return nil, false, err
	}
	entry, err := unmarshalJobEntry(raw)
	if err != nil {
		return nil, false, err
	}
	return entry, true, nil
}

// UpdateJobState transitions a job's lifecycle state. Terminal transitions
// record the finish time; a job already terminal stays in its first terminal
// state (finish/kill races resolve to whoever got there first). changed
// reports whether THIS call performed the transition — the caller that wins
// the race owns the job's cleanup.
func (s *Store) UpdateJobState(ctx context.Context, id types.JobID, state types.JobState) (entry *JobEntry, changed bool, err error) {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	shard := s.shardFor(types.UniqueID(id))
	key := jobKey(id)
	raw, ok, err := s.get(ctx, shard, key)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, fmt.Errorf("gcs: update state of unknown job %s: %w", id, types.ErrJobNotFound)
	}
	entry, err = unmarshalJobEntry(raw)
	if err != nil {
		return nil, false, err
	}
	if entry.State.Terminal() {
		return entry, false, nil
	}
	entry.State = state
	if state.Terminal() {
		entry.FinishUnixNano = time.Now().UnixNano()
	}
	if err := s.put(ctx, shard, key, entry.marshal()); err != nil {
		return nil, false, err
	}
	return entry, true, nil
}

// Jobs returns every registered job, sorted by start time then ID for
// determinism, via O(jobs) point reads through the jobIDs index.
func (s *Store) Jobs(ctx context.Context) ([]*JobEntry, error) {
	s.jobIDMu.RLock()
	ids := make([]types.JobID, len(s.jobIDs))
	copy(ids, s.jobIDs)
	s.jobIDMu.RUnlock()
	out := make([]*JobEntry, 0, len(ids))
	for _, id := range ids {
		entry, ok, err := s.GetJob(ctx, id)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, entry)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNano != out[j].StartUnixNano {
			return out[i].StartUnixNano < out[j].StartUnixNano
		}
		return out[i].ID.Hex() < out[j].ID.Hex()
	})
	return out, nil
}

// --- Event log -------------------------------------------------------------------

// AppendEvent records a diagnostic event in the event log.
func (s *Store) AppendEvent(ctx context.Context, kind, message string) error {
	seq := s.eventSeq.Add(1)
	e := &Event{Seq: seq, UnixNano: time.Now().UnixNano(), Kind: kind, Message: message}
	key := fmt.Sprintf("%s%020d", keyPrefixEvent, seq)
	return s.put(ctx, s.shardForKey(key), key, e.marshal())
}

// Events returns every event still resident in memory, ordered by sequence
// number. Flushed events are excluded (they live in the flush log).
func (s *Store) Events(ctx context.Context) ([]*Event, error) {
	var out []*Event
	for si := range s.shards {
		for _, key := range s.shardKeys(si, keyPrefixEvent) {
			raw, ok, err := s.get(ctx, si, key)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			e, err := unmarshalEvent(raw)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// --- Span table ------------------------------------------------------------------

// AppendSpans persists a batch of task-lifecycle spans into the span table,
// assigning each its global sequence number. The span table is another
// "added benefit" of routing all control state through the GCS: the task
// timeline is an ordinary queryable, flushable table. Implements
// telemetry.SpanSink.
func (s *Store) AppendSpans(ctx context.Context, spans []telemetry.Span) error {
	if len(spans) == 0 {
		return nil
	}
	// The whole flush batch lands under one key: spans arrive thousands at a
	// time from the tracer, and one control-plane write per heartbeat keeps
	// span persistence invisible next to the per-task event traffic.
	for i := range spans {
		spans[i].Seq = s.spanSeq.Add(1)
	}
	key := fmt.Sprintf("%s%020d", keyPrefixSpan, spans[0].Seq)
	return s.put(ctx, s.shardForKey(key), key, telemetry.MarshalSpans(spans))
}

// Spans returns every span still resident in memory, ordered by sequence
// number. Flushed spans are excluded (they live in the flush log).
func (s *Store) Spans(ctx context.Context) ([]telemetry.Span, error) {
	var out []telemetry.Span
	for si := range s.shards {
		for _, key := range s.shardKeys(si, keyPrefixSpan) {
			raw, ok, err := s.get(ctx, si, key)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			batch, err := telemetry.UnmarshalSpans(raw)
			if err != nil {
				return nil, err
			}
			out = append(out, batch...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
