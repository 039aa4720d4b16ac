package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ray/internal/chain"
	"ray/internal/codec"
	"ray/internal/gcs"
	"ray/internal/job"
	"ray/internal/kv"
	"ray/internal/netsim"
	"ray/internal/objectmanager"
	"ray/internal/objectstore"
	"ray/internal/resources"
	"ray/internal/scheduler"
	"ray/internal/task"
	"ray/internal/telemetry"
	"ray/internal/types"
	"ray/internal/worker"
)

// probeRounds is how many times a probe repeats its fixed iteration count;
// the median round is reported.
const probeRounds = 3

// cost is one probe's per-operation cost.
type cost struct {
	ns     float64
	allocs float64
	bytes  float64 // allocated bytes per op
}

// timeOps runs setup then n calls of op, probeRounds times over, from this
// goroutine alone, and returns the median round's per-op time and
// allocation. setup returns the op so each round starts from fresh state
// (an empty store, an unseen set of IDs).
func timeOps(n int, setup func() func(i int)) cost {
	var ns, allocs, bytes []float64
	for round := 0; round < probeRounds; round++ {
		op := setup()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(elapsed)/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return cost{ns: median(ns), allocs: median(allocs), bytes: median(bytes)}
}

// p50Micros times n sequential calls of op one by one and returns the median
// in microseconds.
func p50Micros(n int, op func(i int)) float64 {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		op(i)
		samples[i] = float64(time.Since(start)) / 1e3
	}
	return median(samples)
}

// must turns a probe's unexpected error into a panic: probes drive layers
// with inputs that cannot fail, so an error is a broken benchmark, reported
// by runProbes as an error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// noopSpec is the task spec an empty_tasks submit produces: no arguments, one
// return, the default 1-CPU request.
func noopSpec(jobID types.JobID, driver types.DriverID) *task.Spec {
	return &task.Spec{
		ID:         types.NewTaskID(),
		Job:        jobID,
		Driver:     driver,
		ParentTask: types.NewTaskID(),
		Function:   "noop",
		NumReturns: 1,
		Resources:  resources.CPUs(1),
	}
}

func noopSpecs(n int) []*task.Spec {
	jobID, driver := types.NewJobID(), types.NewDriverID()
	specs := make([]*task.Spec, n)
	for i := range specs {
		specs[i] = noopSpec(jobID, driver)
	}
	return specs
}

func objectIDs(n int) []types.ObjectID {
	ids := make([]types.ObjectID, n)
	for i := range ids {
		ids[i] = types.NewObjectID()
	}
	return ids
}

// probeSizes are the iteration counts of the probes; scale shrinks them for
// the smoke test.
type probeSizes struct {
	small  int // sub-microsecond to microsecond operations
	medium int // tens of microseconds (64 KiB payloads)
	large  int // milliseconds (4 MiB payloads)
	timed  int // operations that wait for a timer (commit, notify)
}

func scaledProbeSizes(scale float64) probeSizes {
	n := func(base int) int { return max(int(float64(base)*scale), 20) }
	return probeSizes{small: n(20000), medium: n(1000), large: max(int(24*scale), 4), timed: n(250)}
}

// runProbes drives each layer stand-alone, from its exported constructor and
// one goroutine, with inputs shaped like the workloads' (the noop task spec;
// 1 KiB, 64 KiB and 4 MiB payloads), and returns the probe metrics.
func runProbes(sz probeSizes) (m metricSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer probe: %v", r)
		}
	}()
	m = metricSet{}
	ctx := context.Background()
	probeTaskCodec(m, sz)
	probeKVChain(ctx, m, sz)
	probeGCS(ctx, m, sz)
	probeFairQueue(m, sz)
	probeScheduler(ctx, m, sz)
	probeWorker(ctx, m, sz)
	probeObjectStore(m, sz)
	probeObjectManager(ctx, m, sz)
	probeTelemetry(m, sz)

	// One empty task's path, each layer counted once: add_task holds the
	// spec marshal, local_submit the fair queue, pool_run the 1-byte store
	// put, the status update and the location publish; the driver's Get reads
	// the directory and the store, and its Free withdraws the location (priced
	// as the publish).
	m["budget.sum_layers_us"] = (m["gcs.add_task_ns"] + m["scheduler.local_submit_ns"] + m["worker.pool_run_ns"] +
		m["gcs.get_object_ns"] + m["objectstore.get_ns"] + m["gcs.add_location_ns"]) / 1e3
	return m, nil
}

func probeTaskCodec(m metricSet, sz probeSizes) {
	spec := noopSpec(types.NewJobID(), types.NewDriverID())
	data := spec.Marshal()
	marshal := timeOps(sz.small, func() func(int) { return func(int) { data = spec.Marshal() } })
	unmarshal := timeOps(sz.small, func() func(int) {
		return func(int) {
			_, err := task.Unmarshal(data)
			must(err)
		}
	})
	m["task.marshal_ns"] = marshal.ns
	m["task.marshal_allocs"] = marshal.allocs
	m["task.unmarshal_ns"] = unmarshal.ns
	m["task.spec_bytes"] = float64(len(data))

	page := payload(1, pageBytes)
	encoded := codec.MustEncode(page)
	m["codec.encode_4k_ns"] = timeOps(sz.small, func() func(int) {
		return func(int) { encoded = codec.MustEncode(page) }
	}).ns
	m["codec.decode_4k_ns"] = timeOps(sz.small, func() func(int) {
		return func(int) {
			var out []byte
			must(codec.Decode(encoded, &out))
		}
	}).ns
}

func keys(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%032x", prefix, i)
	}
	return out
}

func probeKVChain(ctx context.Context, m metricSet, sz probeSizes) {
	const batch = 256
	value := payload(2, 192) // about one task-table entry
	ks := keys("task/", sz.small)
	m["kv.put_ns"] = timeOps(len(ks), func() func(int) {
		store := kv.NewStore()
		return func(i int) { store.Put(ks[i], value) }
	}).ns
	m["chain.put_rf2_ns"] = timeOps(len(ks), func() func(int) {
		c := chain.New(chain.Config{ReplicationFactor: 2})
		return func(i int) { must(c.Put(ctx, ks[i], value)) }
	}).ns
	values := make([][]byte, batch)
	for i := range values {
		values[i] = value
	}
	batches := max(len(ks)/batch, 1)
	bk := keys("task/", batches*batch)
	perBatch := timeOps(batches, func() func(int) {
		c := chain.New(chain.Config{ReplicationFactor: 2})
		return func(i int) { must(c.PutBatch(ctx, bk[i*batch:(i+1)*batch], values)) }
	})
	m["chain.putbatch256_rf2_ns_per_entry"] = perBatch.ns / batch
}

// freshStore closes *s if it is open and replaces it with the GCS the cluster
// config builds: 8 shards, RF 2, batching.
func freshStore(s **gcs.Store) {
	closeStore(s)
	*s = gcs.New(gcs.Config{Shards: 8, ReplicationFactor: 2})
}

// closeStore stops *s's flushers; probes defer it so none outlives them.
func closeStore(s **gcs.Store) {
	if *s != nil {
		must((*s).Close())
		*s = nil
	}
}

func probeGCS(ctx context.Context, m metricSet, sz probeSizes) {
	node := types.NewNodeID()
	jobID := types.NewJobID()
	n := sz.small
	var store *gcs.Store
	defer closeStore(&store)
	fresh := func() { freshStore(&store) }

	var specs []*task.Spec
	addTask := timeOps(n, func() func(int) {
		fresh()
		specs = noopSpecs(n)
		return func(i int) { must(store.AddTask(ctx, specs[i])) }
	})
	m["gcs.add_task_ns"] = addTask.ns
	m["gcs.add_task_allocs"] = addTask.allocs
	// The last round's tasks are all in the table; update each once. The
	// rounds after the first rewrite the same status, which costs the same.
	m["gcs.update_status_ns"] = timeOps(n, func() func(int) {
		return func(i int) { must(store.UpdateTaskStatus(ctx, specs[i].ID, types.TaskFinished, node)) }
	}).ns

	var ids []types.ObjectID
	m["gcs.add_location_ns"] = timeOps(n, func() func(int) {
		fresh()
		ids = objectIDs(n)
		return func(i int) { must(store.AddObjectLocation(ctx, ids[i], node, 1, specs[i].ID, jobID)) }
	}).ns
	m["gcs.get_object_ns"] = timeOps(n, func() func(int) {
		return func(i int) {
			_, ok, err := store.GetObject(ctx, ids[i])
			must(err)
			if !ok {
				panic("gcs probe: object entry missing")
			}
		}
	}).ns

	fresh()
	timedSpecs := noopSpecs(sz.timed)
	m["gcs.commit_wait_p50_us"] = p50Micros(sz.timed, func(i int) {
		must(store.AddTask(ctx, timedSpecs[i]))
		must(store.CommitFuture(types.UniqueID(timedSpecs[i].ID)).Wait(ctx))
	})
	timedIDs := objectIDs(sz.timed)
	m["gcs.notify_p50_us"] = p50Micros(sz.timed, func(i int) {
		ch, cancel := store.SubscribeObject(timedIDs[i])
		defer cancel()
		must(store.AddObjectLocation(ctx, timedIDs[i], node, 1, timedSpecs[i].ID, jobID))
		<-ch
	})
}

func probeFairQueue(m metricSet, sz probeSizes) {
	const depth = 256 // the queue a W=256 driver keeps
	pair := func(jobs []types.JobID) float64 {
		return timeOps(sz.small, func() func(int) {
			q := job.NewFairQueue[int](nil)
			for i := 0; i < depth; i++ {
				q.Push(jobs[i%len(jobs)], i)
			}
			return func(i int) {
				q.Push(jobs[i%len(jobs)], i)
				q.Pop()
			}
		}).ns
	}
	jobs := []types.JobID{types.NewJobID(), types.NewJobID(), types.NewJobID(), types.NewJobID()}
	m["job.fairqueue_1job_ns"] = pair(jobs[:1])
	m["job.fairqueue_4jobs_ns"] = pair(jobs)
}

// noopRunner completes every task at once and signals each completion.
type noopRunner struct{ done chan struct{} }

func (r noopRunner) Run(context.Context, *task.Spec) error {
	r.done <- struct{}{}
	return nil
}
func (noopRunner) Fail(context.Context, *task.Spec, error) error        { return nil }
func (noopRunner) Pull(context.Context, types.ObjectID) error           { return nil }
func (noopRunner) ForwardTask(context.Context, *task.Spec) error        { return nil }
func (noopRunner) ResolveStore(types.NodeID) (*objectstore.Store, bool) { return nil, false }

func probeScheduler(ctx context.Context, m metricSet, sz probeSizes) {
	n := sz.small
	newLocal := func(r noopRunner) *scheduler.Local {
		return scheduler.NewLocal(scheduler.LocalConfig{
			NodeID: types.NewNodeID(),
			Pool:   resources.NewNodePool(4, 0, 0),
			// One job submits the whole probe; it must queue, not spill.
			SpilloverThreshold: n + 1,
		}, r, r, r)
	}
	var specs []*task.Spec
	submit := timeOps(1, func() func(int) {
		// done is buffered for every completion so the runner never blocks a
		// slot; the op is "submit n, then drain".
		r := noopRunner{done: make(chan struct{}, n)}
		l := newLocal(r)
		specs = noopSpecs(n)
		return func(int) {
			for _, s := range specs {
				must(l.Submit(ctx, s))
			}
			for range specs {
				<-r.done
			}
		}
	})
	m["scheduler.local_submit_ns"] = submit.ns / float64(n)
	m["scheduler.local_submit_allocs"] = submit.allocs / float64(n)

	r := noopRunner{done: make(chan struct{}, 1)}
	l := newLocal(r)
	one := noopSpecs(sz.medium)
	m["scheduler.local_latency_p50_us"] = p50Micros(len(one), func(i int) {
		must(l.Submit(ctx, one[i]))
		<-r.done
	})

	var store *gcs.Store
	freshStore(&store)
	defer closeStore(&store)
	for i := 0; i < 4; i++ {
		caps := map[string]float64{resources.CPU: 4}
		must(store.RegisterNode(ctx, &gcs.NodeEntry{ID: types.NewNodeID(), State: types.NodeAlive,
			TotalResources: caps, AvailableResources: caps}))
	}
	g := scheduler.NewGlobal(scheduler.DefaultGlobalConfig(), store)
	spec := specs[0]
	m["scheduler.global_schedule_ns"] = timeOps(sz.medium, func() func(int) {
		return func(int) {
			_, err := g.Schedule(ctx, spec)
			must(err)
		}
	}).ns
}

func probeWorker(ctx context.Context, m metricSet, sz probeSizes) {
	n := sz.small
	registry := worker.NewRegistry()
	result := [][]byte{codec.MustEncode(true)}
	must(registry.Register("noop", func(*worker.TaskContext, [][]byte) ([][]byte, error) { return result, nil }))
	var store *gcs.Store
	defer closeStore(&store)
	run := timeOps(n, func() func(int) {
		freshStore(&store)
		node := types.NewNodeID()
		local := nodeStore()
		objects := objectmanager.New(objectmanager.DefaultConfig(), node, local, store, netsim.New(netsim.InstantConfig()), noopRunner{})
		pool := worker.NewPool(worker.PoolConfig{NodeID: node, RecordLineage: true}, registry, objects, store, types.NewIDGenerator(1))
		specs := noopSpecs(n)
		for _, s := range specs {
			must(store.AddTask(ctx, s))
		}
		return func(i int) { must(pool.Run(ctx, specs[i])) }
	})
	m["worker.pool_run_ns"] = run.ns
	m["worker.pool_run_allocs"] = run.allocs
}

// nodeStore is the object store a node builds (1 GiB, 8 copy threads).
func nodeStore() *objectstore.Store { return objectstore.New(objectstore.Config{CopyThreads: 8}) }

func probeObjectStore(m metricSet, sz probeSizes) {
	put := func(n, size int) cost {
		data := payload(3, size)
		ids := objectIDs(n)
		return timeOps(n, func() func(int) {
			s := nodeStore()
			return func(i int) { must(s.Put(ids[i], data, false)) }
		})
	}
	m["objectstore.put_1k_ns"] = put(sz.small, 1<<10).ns
	m["objectstore.put_64k_ns"] = put(sz.medium, rolloutBytes).ns
	big := put(sz.large, remoteArgBytes)
	m["objectstore.put_4m_mb_per_s"] = ratio(remoteArgBytes/1e6, big.ns/1e9)
	m["objectstore.put_copies_4m"] = big.bytes / remoteArgBytes

	s := nodeStore()
	ids := objectIDs(sz.small)
	small := payload(4, 1<<10)
	for _, id := range ids {
		must(s.Put(id, small, false))
	}
	m["objectstore.get_ns"] = timeOps(len(ids), func() func(int) {
		return func(i int) {
			if _, ok := s.Get(ids[i]); !ok {
				panic("objectstore probe: object missing")
			}
		}
	}).ns
	m["objectstore.getpin_unpin_ns"] = timeOps(len(ids), func() func(int) {
		return func(i int) {
			if _, ok := s.GetPin(ids[i]); !ok {
				panic("objectstore probe: object missing")
			}
			s.Unpin(ids[i])
		}
	}).ns
	bigIDs := objectIDs(sz.large)
	m["objectstore.beginput_commit_4m_us"] = timeOps(len(bigIDs), func() func(int) {
		s := nodeStore()
		return func(i int) {
			p, ok, err := s.BeginPut(bigIDs[i], remoteArgBytes, false)
			must(err)
			if !ok {
				panic("objectstore probe: reservation refused")
			}
			p.Commit()
		}
	}).ns / 1e3
}

// peerStores resolves the two probe nodes' stores for each other.
type peerStores map[types.NodeID]*objectstore.Store

func (p peerStores) ResolveStore(id types.NodeID) (*objectstore.Store, bool) {
	s, ok := p[id]
	return s, ok
}

func probeObjectManager(ctx context.Context, m metricSet, sz probeSizes) {
	// The floor under a pull: the model's transfer of the payload over every
	// stream, as the simulated network really sleeps it (timer overshoot
	// included).
	net := netsim.New(realTimeNetwork())
	wire := func(n int, size int64) float64 {
		return p50Micros(n, func(int) { must(net.Transfer(ctx, size, net.Config().MaxParallelStreams)) })
	}
	m["netsim.wire_4m_ms"] = wire(sz.large, remoteArgBytes) / 1e3
	m["netsim.wire_64k_us"] = wire(sz.medium/4, rolloutBytes)

	pull := func(n, size int) cost {
		data := payload(5, size)
		var store *gcs.Store
		defer closeStore(&store)
		return timeOps(n, func() func(int) {
			freshStore(&store)
			src, dst := types.NewNodeID(), types.NewNodeID()
			peers := peerStores{src: nodeStore(), dst: nodeStore()}
			from := objectmanager.New(objectmanager.DefaultConfig(), src, peers[src], store, net, peers)
			to := objectmanager.New(objectmanager.DefaultConfig(), dst, peers[dst], store, net, peers)
			ids := objectIDs(n)
			for _, id := range ids {
				must(from.Put(ctx, id, data, false, types.NilTaskID))
			}
			return func(i int) { must(to.Pull(ctx, ids[i])) }
		})
	}
	m["objectmanager.pull_64k_us"] = pull(max(sz.medium/4, 20), rolloutBytes).ns / 1e3
	big := pull(sz.large, remoteArgBytes)
	m["objectmanager.pull_4m_ms"] = big.ns / 1e6
	m["objectmanager.pull_copies_4m"] = big.bytes / remoteArgBytes
}

func probeTelemetry(m metricSet, sz probeSizes) {
	h := telemetry.NewRegistry().Histogram("probe_seconds", "probe", telemetry.DefLatencyBuckets)
	m["telemetry.observe_ns"] = timeOps(sz.small, func() func(int) {
		return func(i int) { h.Observe(float64(i%1000) * 1e-6) }
	}).ns
	sp := telemetry.Span{Task: "task:00000000", Name: "noop", Phase: telemetry.PhaseExec, Node: "node:00000000",
		Job: "job:00000000", DurationNanos: 1000}
	m["telemetry.record_span_ns"] = timeOps(sz.small, func() func(int) {
		tr := telemetry.NewTracer(sz.small + 1)
		// Distinct start times spread the spans over the tracer's shards as
		// real timestamps do.
		return func(i int) {
			sp.StartUnixNano = int64(i)
			tr.Record(sp)
		}
	}).ns
}
