// Package objectmanager moves objects between nodes. When a task is about to
// run on a node that lacks one of its inputs, the object manager looks the
// object up in the GCS object table, pulls a replica from a node that has it,
// stores it locally, and records the new location back in the GCS.
//
// Large objects move over a chunked, pipelined pull protocol, as Ray stripes
// large objects across TCP connections: the object is split into ChunkBytes
// chunks, consecutive chunks are grouped into windows of PipelineDepth (one
// message latency buys a whole window), and windows are fetched by
// TransferStreams concurrent workers that assemble directly into a
// store-owned buffer reserved up front (objectstore.BeginPut) and committed
// once complete. Workers stripe windows across every live replica of the
// object, so a hot object is pulled from several sources at once, and a
// window whose source dies mid-transfer fails over to another replica
// without restarting the object. Objects no larger than one chunk keep the
// single-message fast path.
//
// Because object location metadata lives in the GCS rather than in the
// scheduler, transfers never involve the scheduler — the decoupling of task
// dispatch from task scheduling that Section 4.2.1 argues is essential for
// communication-intensive primitives like allreduce.
package objectmanager

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ray/internal/gcs"
	"ray/internal/netsim"
	"ray/internal/objectstore"
	"ray/internal/parallel"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// PeerResolver resolves a node ID to that node's object store. The cluster
// provides the implementation; returning ok=false means the node is dead or
// unknown.
type PeerResolver interface {
	ResolveStore(node types.NodeID) (*objectstore.Store, bool)
}

// Config controls manager behaviour.
type Config struct {
	// TransferStreams is the number of parallel streams used per pull: the
	// stripe width of a single-message transfer, and the number of
	// concurrent chunk workers of a pipelined one. Ray uses multiple; the
	// OpenMPI-like baseline in the allreduce experiment uses 1. Zero means 8.
	TransferStreams int
	// ChunkBytes is the chunk granularity of the pipelined pull path.
	// Objects no larger than one chunk use the single-message fast path.
	// Zero means 1 MiB.
	ChunkBytes int64
	// PipelineDepth is how many consecutive chunks one worker fetches per
	// message round trip (the in-flight window per stream); higher depths
	// amortize the per-message latency over more bytes. Zero means 4.
	PipelineDepth int
	// PullTimeout bounds how long a pull waits for the object to appear in
	// the object table before giving up (the lineage layer then decides
	// whether to reconstruct). Zero means wait until the context is done.
	PullTimeout time.Duration
	// Metrics receives transfer instrumentation (bytes pulled, pull latency,
	// pipeline occupancy). A nil registry still works: handles degrade to
	// detached metrics.
	Metrics *telemetry.Registry
	// Tracer records object-transfer spans; nil disables span recording.
	Tracer *telemetry.Tracer
}

// DefaultChunkBytes is the chunk granularity used when Config.ChunkBytes is
// zero, mirroring Ray's ~1 MiB transfer chunks.
const DefaultChunkBytes = 1 << 20

// DefaultConfig returns the zero Config, which New turns into an 8-stream
// pipelined transfer configuration (1 MiB chunks, 4-chunk windows).
func DefaultConfig() Config { return Config{} }

// Manager is one node's object manager.
type Manager struct {
	cfg     Config
	nodeID  types.NodeID
	local   *objectstore.Store
	gcs     *gcs.Store
	network *netsim.Network
	peers   PeerResolver

	// inflight deduplicates concurrent pulls of the same object; partial
	// parks a chunked assembly whose originator was cancelled mid-transfer so
	// a restarted pull resumes from the windows already fetched instead of
	// re-fetching from chunk 0. Only the current pull originator (single-
	// flight via inflight) touches a parked assembly. A slot's channel is made
	// by the first Pull that has to wait on it: a held slot maps to nil.
	mu       sync.Mutex
	inflight map[types.ObjectID]chan error //guard:by mu
	partial  map[types.ObjectID]*assembly  //guard:by mu

	// Telemetry handles, always non-nil (a nil registry hands back detached
	// metrics) — see Config.Metrics/Tracer.
	xferBytes   *telemetry.Counter   //guard:init
	pullLatency *telemetry.Histogram //guard:init
	inflightWin *telemetry.Gauge     //guard:init
	rescues     *telemetry.Counter   //guard:init
	tracer      *telemetry.Tracer    //guard:init

	pulls          atomic.Int64
	bytesPulled    atomic.Int64
	transferNanos  atomic.Int64
	chunkedPulls   atomic.Int64
	chunksPulled   atomic.Int64
	resumedPulls   atomic.Int64
	resumedWindows atomic.Int64
	repollRescues  atomic.Int64
}

// assembly is the transfer state of one chunked pull: the store-side
// reservation plus per-window completion. It outlives a cancelled originator
// so the next pull of the same object reuses the fetched windows.
type assembly struct {
	pending     *objectstore.PendingPut
	done        []bool // per-window; workers own disjoint indices
	chunkBytes  int64
	windowBytes int64
	windows     int
	chunks      int
	size        int64
}

// New creates an object manager for the given node.
func New(cfg Config, nodeID types.NodeID, local *objectstore.Store, store *gcs.Store, network *netsim.Network, peers PeerResolver) *Manager {
	if cfg.TransferStreams < 1 {
		cfg.TransferStreams = 8
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.PipelineDepth < 1 {
		cfg.PipelineDepth = 4
	}
	return &Manager{
		cfg:      cfg,
		nodeID:   nodeID,
		local:    local,
		gcs:      store,
		network:  network,
		peers:    peers,
		inflight: make(map[types.ObjectID]chan error),
		partial:  make(map[types.ObjectID]*assembly),
		tracer:   cfg.Tracer,
		xferBytes: cfg.Metrics.Counter("ray_objectmanager_transfer_bytes_total",
			"Object payload bytes pulled from remote replicas."),
		pullLatency: cfg.Metrics.Histogram("ray_objectmanager_pull_seconds",
			"Wall time of successful remote object transfers.", telemetry.DefLatencyBuckets),
		inflightWin: cfg.Metrics.Gauge("ray_objectmanager_pipeline_windows_inflight",
			"Chunk windows currently in flight across all pipelined pulls."),
		rescues: cfg.Metrics.Counter("ray_objectmanager_pull_repoll_rescues_total",
			"Pulls that ended on the safety re-poll with no notification pending."),
	}
}

// Config returns the configuration the manager runs with, defaults applied.
func (m *Manager) Config() Config { return m.cfg }

// Local returns the node's local object store.
func (m *Manager) Local() *objectstore.Store { return m.local }

// NodeID returns the owning node's ID.
func (m *Manager) NodeID() types.NodeID { return m.nodeID }

// Put stores a locally produced object and registers its location in the GCS
// object table (which also signals the subscriptions of waiting ray.get
// calls). If a previous copy of the object was just evicted from the
// local store, the location registration waits for the eviction's location
// removal to land first, so the directory never loses track of a resident
// replica to out-of-order updates. Like PutOwned, it hands data over to the
// store: the caller must not write to it again.
func (m *Manager) Put(ctx context.Context, id types.ObjectID, data []byte, isError bool, creator types.TaskID) error {
	return m.PutOwned(ctx, id, data, isError, creator, types.NilJobID)
}

// PutOwned is Put with the owning job recorded in the object table, so
// job-exit cleanup can find and release the job's objects. The worker pool
// stores task outputs through it; a nil job (system objects, tests) leaves
// the object unowned. Locally produced objects are primary copies: under
// memory pressure they spill to disk instead of evicting (replicas fetched
// from other nodes just evict — the primary can always serve them again).
// The store adopts data instead of copying it (objectstore.Store.PutPrimary):
// the producer — a task's encoded result, TaskContext.Put's encoded value —
// never writes to the buffer again, so the encode is the one copy on this hop.
// While it stores and registers, the producer holds the inflight slot (unless
// a pull does: that one reads the directory), so Pull calls the object local
// only once its location is readable: freed sooner, copy and location leak.
func (m *Manager) PutOwned(ctx context.Context, id types.ObjectID, data []byte, isError bool, creator types.TaskID, job types.JobID) error {
	m.mu.Lock()
	if _, pulling := m.inflight[id]; !pulling {
		m.inflight[id] = nil
		defer m.vacate(id, nil)
	}
	m.mu.Unlock()
	if err := m.local.PutPrimary(id, data, isError); err != nil {
		return err
	}
	return m.registerLocation(ctx, id, int64(len(data)), creator, job)
}

// registerLocation orders the GCS location add after any in-flight eviction
// notification for the same object on this node (the evict/re-put race: a
// stale RemoveObjectLocation landing after our AddObjectLocation would leave
// the directory blind to a resident replica).
func (m *Manager) registerLocation(ctx context.Context, id types.ObjectID, size int64, creator types.TaskID, job types.JobID) error {
	if err := m.local.WaitEvictions(ctx, id); err != nil {
		return err
	}
	return m.gcs.AddObjectLocation(ctx, id, m.nodeID, size, creator, job)
}

// Pull ensures the object is in the local store, fetching a replica from a
// remote node if necessary. It blocks until the object is local, the pull
// times out, or the context is cancelled. A timeout with a known-but-lost
// object returns types.ErrObjectLost so callers can trigger reconstruction.
//
// Concurrent pulls of the same object are deduplicated: one originator
// transfers, the rest wait on its result. A waiter that inherits a context
// error from the originator (the originator's caller was cancelled or timed
// out — nothing wrong with the object) retries the pull under its own
// context instead of failing with someone else's cancellation.
func (m *Manager) Pull(ctx context.Context, id types.ObjectID) error {
	for {
		// Deduplicate concurrent pulls. A producer takes the slot before it stores,
		// so a copy seen (outside mu) before the slot is found free is registered.
		local := m.local.Contains(id)
		m.mu.Lock()
		if ch, ok := m.inflight[id]; ok {
			if ch == nil {
				ch = make(chan error, 1)
				m.inflight[id] = ch
			}
			m.mu.Unlock()
			select {
			case err := <-ch:
				// Propagate and re-signal for any other waiter.
				select {
				case ch <- err:
				default:
				}
				if err == nil || (isContextError(err) && ctx.Err() == nil) {
					// The holder is done (a producer may have failed), or its
					// cancellation is not ours: look again from the top.
					continue
				}
				return err
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if local {
			m.mu.Unlock()
			return nil
		}
		if err := ctx.Err(); err != nil {
			m.mu.Unlock()
			return err
		}
		m.inflight[id] = nil
		m.mu.Unlock()

		err := m.pull(ctx, id)
		m.vacate(id, err)
		return err
	}
}

// vacate frees id's inflight slot and hands err to whoever waits on it.
func (m *Manager) vacate(id types.ObjectID, err error) {
	m.mu.Lock()
	ch := m.inflight[id]
	delete(m.inflight, id)
	m.mu.Unlock()
	if ch != nil {
		ch <- err
	}
}

// isContextError reports whether err is (or wraps) a context cancellation or
// deadline error — the class of failures that belong to a specific caller's
// context rather than to the object being pulled.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (m *Manager) pull(ctx context.Context, id types.ObjectID) error {
	m.pulls.Add(1)
	// caller distinguishes the caller's own cancellation or deadline (a
	// property of that caller, reported as a context error so dedup waiters
	// can retry) from our PullTimeout firing (a property of the object:
	// reported as ErrObjectNotFound so lineage can decide to reconstruct).
	caller := ctx
	if m.cfg.PullTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.PullTimeout)
		defer cancel()
	}

	// Subscribe before reading so a concurrent creation cannot be missed.
	notify, cancel := m.gcs.SubscribeObject(id)
	defer cancel()

	// repoll is the safety net behind the subscription; a pull that ends on its
	// tick (onRepoll) with still no signal in sight is counted as rescued by it.
	repoll := time.NewTicker(10 * time.Millisecond)
	defer repoll.Stop()
	onRepoll := false
	defer func() {
		if onRepoll && len(notify) == 0 && ctx.Err() == nil {
			m.repollRescues.Add(1)
			m.rescues.Inc()
		}
	}()
	for {
		if ctx.Err() != nil {
			if cause := caller.Err(); cause != nil {
				// The caller's own context ended: report the context error, so
				// dedup waiters with live contexts retry instead of inheriting it.
				return fmt.Errorf("objectmanager: pull %s: %w", id, cause)
			}
			return fmt.Errorf("objectmanager: pull %s: %w", id, types.ErrObjectNotFound)
		}
		entry, ok, err := m.gcs.GetObject(ctx, id)
		if err != nil {
			return err
		}
		if ok && len(entry.Locations) > 0 {
			if err := m.fetchFrom(ctx, id, entry); err == nil {
				return nil
			} else if ctx.Err() != nil {
				return ctx.Err()
			}
			// Fall through and retry: the replica we chose may have died.
		}
		if ok && len(entry.Locations) == 0 {
			// The object existed but every replica is gone (node failure or
			// eviction of the last copy). Report it immediately so the
			// lineage layer can reconstruct it; waiting would never help.
			return fmt.Errorf("objectmanager: %s has no replicas: %w", id, types.ErrObjectLost)
		}
		// Not created yet: wait for a table update or timeout (reported above).
		select {
		case <-ctx.Done():
		case <-notify:
			onRepoll = false
		case <-repoll.C:
			onRepoll = len(notify) == 0
		}
	}
}

// fetchFrom copies the object from the entry's locations: a single
// whole-object transfer for objects no larger than one chunk, the chunked
// pipeline for everything else.
func (m *Manager) fetchFrom(ctx context.Context, id types.ObjectID, entry *gcs.ObjectEntry) error {
	// Already local (e.g. we produced it between checks).
	if m.local.Contains(id) {
		return nil
	}
	sources := m.liveSources(entry)
	if len(sources) == 0 {
		return fmt.Errorf("objectmanager: no usable replica for %s: %w", id, types.ErrObjectLost)
	}
	if entry.Size > m.cfg.ChunkBytes {
		return m.fetchChunked(ctx, id, entry, sources)
	}
	return m.fetchWhole(ctx, id, entry, sources)
}

// liveSources filters the entry's locations down to resolvable peers,
// shuffled so load spreads across replicas of hot objects.
func (m *Manager) liveSources(entry *gcs.ObjectEntry) []types.NodeID {
	sources := make([]types.NodeID, 0, len(entry.Locations))
	for _, src := range entry.Locations {
		if src == m.nodeID {
			// The table says we have it but the store does not (evicted
			// concurrently); skip ourselves.
			continue
		}
		if _, ok := m.peers.ResolveStore(src); ok {
			sources = append(sources, src)
		}
	}
	rand.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
	return sources
}

// fetchWhole moves the object as one blocking transfer striped over
// TransferStreams streams — the small-object fast path.
func (m *Manager) fetchWhole(ctx context.Context, id types.ObjectID, entry *gcs.ObjectEntry, sources []types.NodeID) error {
	var lastErr error
	for _, src := range sources {
		store, ok := m.peers.ResolveStore(src)
		if !ok {
			lastErr = fmt.Errorf("objectmanager: source node %s unavailable: %w", src, types.ErrNodeDead)
			continue
		}
		obj, ok := store.Get(id)
		if !ok {
			lastErr = fmt.Errorf("objectmanager: %s missing on %s", id, src)
			continue
		}
		// Simulate the wire time, then copy the payload into the local store.
		start := time.Now()
		if m.network != nil {
			if err := m.network.Transfer(ctx, obj.Size(), m.cfg.TransferStreams); err != nil {
				return err
			}
		}
		if err := m.local.Put(id, obj.Data, obj.IsError); err != nil {
			return err
		}
		elapsed := time.Since(start)
		m.bytesPulled.Add(obj.Size())
		m.transferNanos.Add(elapsed.Nanoseconds())
		m.xferBytes.Add(obj.Size())
		m.pullLatency.Observe(elapsed.Seconds())
		m.recordTransfer(id, src, start, elapsed, obj.Size())
		return m.registerLocation(ctx, id, obj.Size(), entry.Creator, entry.Job)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("objectmanager: no usable replica for %s: %w", id, types.ErrObjectLost)
	}
	return lastErr
}

// fetchChunked assembles the object from ChunkBytes chunks fetched by up to
// TransferStreams concurrent workers. Consecutive chunks are grouped into
// windows of PipelineDepth so each message latency is paid once per window,
// and windows are striped across every live replica. A window whose source
// dies mid-transfer fails over to the remaining replicas; only when a window
// is unavailable everywhere does the whole fetch fail (the caller re-reads
// the object table and retries).
func (m *Manager) fetchChunked(ctx context.Context, id types.ObjectID, entry *gcs.ObjectEntry, sources []types.NodeID) error {
	// The directory entry carries the authoritative size; a replica confirms
	// it (and the error flag) before the buffer is reserved.
	var size int64
	var isError bool
	found := false
	for _, src := range sources {
		if store, ok := m.peers.ResolveStore(src); ok {
			if obj, ok := store.Get(id); ok {
				size, isError = obj.Size(), obj.IsError
				found = true
				break
			}
		}
	}
	if !found {
		return fmt.Errorf("objectmanager: no usable replica for %s: %w", id, types.ErrObjectLost)
	}

	a, err := m.assemblyFor(id, size, isError)
	if err != nil {
		return err
	}
	if a == nil {
		// Resident already (another path re-put it); nothing to transfer.
		return nil
	}

	// Fetch only the windows not already assembled by a previous, cancelled
	// pull of this object.
	var todo []int
	for i := 0; i < a.windows; i++ {
		if !a.done[i] {
			todo = append(todo, i)
		}
	}
	if len(todo) < a.windows {
		m.resumedPulls.Add(1)
		m.resumedWindows.Add(int64(a.windows - len(todo)))
	}
	workers := m.cfg.TransferStreams
	if workers > len(todo) {
		workers = len(todo)
	}

	start := time.Now()
	err = parallel.ForEach(ctx, workers, len(todo), func(fetchCtx context.Context, i int) error {
		w := todo[i]
		m.inflightWin.Inc()
		defer m.inflightWin.Dec()
		if err := m.fetchWindow(fetchCtx, id, a.pending.Data(), a.windowBytes, w, sources); err != nil {
			return err
		}
		a.done[w] = true
		// Count chunks at window granularity so resumed pulls account each
		// chunk exactly once across attempts.
		lo := int64(w) * a.windowBytes
		hi := lo + a.windowBytes
		if hi > a.size {
			hi = a.size
		}
		m.chunksPulled.Add((hi - lo + a.chunkBytes - 1) / a.chunkBytes)
		return nil
	})
	if err != nil {
		if isContextError(err) || ctx.Err() != nil {
			// The caller went away, not the object: park the assembly (the
			// reservation stays pinned in the store) so the next pull resumes
			// from the windows that completed instead of chunk 0.
			m.mu.Lock()
			m.partial[id] = a
			m.mu.Unlock()
		} else {
			a.pending.Abort()
		}
		return err
	}
	a.pending.Commit()
	elapsed := time.Since(start)
	m.bytesPulled.Add(size)
	m.chunkedPulls.Add(1)
	m.transferNanos.Add(elapsed.Nanoseconds())
	m.xferBytes.Add(size)
	m.pullLatency.Observe(elapsed.Seconds())
	m.recordTransfer(id, sources[0], start, elapsed, size)
	return m.registerLocation(ctx, id, size, entry.Creator, entry.Job)
}

// assemblyFor returns the transfer state for a chunked pull of id: a parked
// partial assembly if a cancelled pull left one (and its geometry still
// matches), otherwise a fresh reservation. nil with no error means the
// object became resident in the meantime.
func (m *Manager) assemblyFor(id types.ObjectID, size int64, isError bool) (*assembly, error) {
	m.mu.Lock()
	parked, ok := m.partial[id]
	if ok {
		delete(m.partial, id)
	}
	m.mu.Unlock()
	if parked != nil {
		if parked.size == size && !m.local.Contains(id) {
			return parked, nil
		}
		// Superseded (object re-put locally, or the directory entry changed
		// size — shouldn't happen for immutable objects, but be safe).
		parked.pending.Abort()
		if m.local.Contains(id) {
			return nil, nil
		}
	}

	pending, ok, err := m.local.BeginPut(id, size, isError)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}

	// Shrink the chunk when the object has fewer full chunks than streams,
	// so every stream still carries a share (a 2 MB object over 8 streams
	// moves as 8 × 256 KB, not 2 × 1 MB over a quarter of the streams) —
	// matching the full striping fetchWhole gets from Transfer.
	chunkBytes := m.cfg.ChunkBytes
	if perStream := (size + int64(m.cfg.TransferStreams) - 1) / int64(m.cfg.TransferStreams); chunkBytes > perStream {
		chunkBytes = perStream
	}
	chunks := int((size + chunkBytes - 1) / chunkBytes)
	// Likewise shrink the window when the object is small relative to the
	// stream count: keeping every stream busy beats deep windows (a
	// full-depth window on an object with few chunks would idle streams).
	depth := m.cfg.PipelineDepth
	if perStream := (chunks + m.cfg.TransferStreams - 1) / m.cfg.TransferStreams; depth > perStream {
		depth = perStream
	}
	windowBytes := chunkBytes * int64(depth)
	windows := int((size + windowBytes - 1) / windowBytes)
	return &assembly{
		pending:     pending,
		done:        make([]bool, windows),
		chunkBytes:  chunkBytes,
		windowBytes: windowBytes,
		windows:     windows,
		chunks:      chunks,
		size:        size,
	}, nil
}

// fetchWindow copies one window of chunks into buf, trying each replica in
// turn (starting at a per-window offset so concurrent windows stripe across
// replicas) and re-resolving the source on every attempt so a replica that
// died mid-transfer is skipped.
func (m *Manager) fetchWindow(ctx context.Context, id types.ObjectID, buf []byte, windowBytes int64, window int, sources []types.NodeID) error {
	lo := int64(window) * windowBytes
	hi := lo + windowBytes
	if hi > int64(len(buf)) {
		hi = int64(len(buf))
	}
	var lastErr error
	for attempt := 0; attempt < len(sources); attempt++ {
		src := sources[(window+attempt)%len(sources)]
		store, ok := m.peers.ResolveStore(src)
		if !ok {
			lastErr = fmt.Errorf("objectmanager: source node %s unavailable: %w", src, types.ErrNodeDead)
			continue
		}
		obj, ok := store.Get(id)
		if !ok || obj.Size() != int64(len(buf)) {
			lastErr = fmt.Errorf("objectmanager: %s missing on %s", id, src)
			continue
		}
		if m.network != nil {
			if err := m.network.TransferChunk(ctx, hi-lo); err != nil {
				return err
			}
		}
		copy(buf[lo:hi], obj.Data[lo:hi])
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("objectmanager: window %d of %s unavailable: %w", window, id, types.ErrObjectLost)
	}
	return lastErr
}

// recordTransfer emits the transfer span for a completed pull, attributed
// to the pulling node (src rides along in the span name's source field via
// Task).
func (m *Manager) recordTransfer(id types.ObjectID, src types.NodeID, start time.Time, elapsed time.Duration, size int64) {
	if !m.tracer.Sampled(id[15]) {
		return
	}
	m.tracer.Record(telemetry.Span{
		Task: id.String() + "<-" + src.String(), Name: id.String(), Phase: telemetry.PhaseTransfer,
		Node: m.nodeID.String(), StartUnixNano: start.UnixNano(),
		DurationNanos: elapsed.Nanoseconds(), Bytes: size,
	})
}

// Stats is a snapshot of transfer counters.
type Stats struct {
	Pulls         int64
	BytesPulled   int64
	TransferNanos int64
	// ChunkedPulls counts pulls that went through the chunked pipeline.
	ChunkedPulls int64
	// ChunksPulled counts individual chunks fetched by the pipeline, each
	// exactly once even across a cancelled-and-resumed pull.
	ChunksPulled int64
	// ResumedPulls counts chunked pulls that picked up a parked partial
	// assembly; ResumedWindows is how many windows they skipped re-fetching.
	ResumedPulls   int64
	ResumedWindows int64
	RepollRescues  int64 // pulls that ended on a re-poll tick, no signal before or since
}

// Stats returns a snapshot of transfer counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Pulls:          m.pulls.Load(),
		BytesPulled:    m.bytesPulled.Load(),
		TransferNanos:  m.transferNanos.Load(),
		ChunkedPulls:   m.chunkedPulls.Load(),
		ChunksPulled:   m.chunksPulled.Load(),
		ResumedPulls:   m.resumedPulls.Load(),
		ResumedWindows: m.resumedWindows.Load(),
		RepollRescues:  m.repollRescues.Load(),
	}
}

// StatsName implements telemetry.Reporter (namespaced per node by callers).
func (m *Manager) StatsName() string { return "objectmanager" }

// StatsSnapshot implements telemetry.Reporter.
func (m *Manager) StatsSnapshot() any { return m.Stats() }
