package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"ray/internal/core"
	"ray/internal/telemetry"
	"ray/ray"
)

// repDeadline bounds one repetition: every driver is attached with a context
// that expires after it, so a hung Get becomes counted failures, never a
// stuck run.
const repDeadline = 60 * time.Second

// warmupShare is the share of a repetition's op count run untimed first.
const warmupShare = 0.05

// forwardProbeOps is how many node-pinned round trips a full-size repetition
// would make after its timed section (cluster.forward_roundtrip_p50_ms); it
// scales with the repetition like the op count, to 200 in the traced run.
const forwardProbeOps = 500

// repConfig selects one repetition.
type repConfig struct {
	w    workload
	seed uint64
	// scale multiplies the workload's op count (1 for end-to-end
	// repetitions, tracedScale for the traced run).
	scale float64
	// traced turns on benchmark spans and TraceSampleEvery = 1.
	traced bool
}

// repResult is what one repetition measured.
type repResult struct {
	setupS    float64
	wallS     float64
	attempted int
	failed    int
	verified  int // timed ops whose value was checked
	firstErr  error
	// latencyMs holds one submit->verified-Get sample per verified timed op.
	latencyMs      []float64
	retainedHeapMB float64
	// delta is the change of every program counter over the timed section;
	// end holds the gauges read after it.
	delta counters
	end   gauges
	trace *repTrace // nil unless traced, and once inSitu is derived
	// inSitu holds a traced repetition's per-layer metrics.
	inSitu metricSet
}

// repTrace is the extra material of a traced repetition.
type repTrace struct {
	epoch        time.Time
	timedStart   int64 // ns since epoch
	timedEnd     int64
	perDriver    [][]span
	program      []telemetry.Span
	forwardP50Ms float64
}

// tasksPerS is the repetition's throughput in verified tasks per second.
func (r *repResult) tasksPerS(w workload) float64 {
	return ratio(float64(r.verified*w.tasksPerOp), r.wallS)
}

// slot is one in-flight op of a driver's window.
type slot struct {
	start int64 // ns since epoch, taken just before submit
	live  bool
}

// driverState is one driver goroutine's closed loop.
type driverState struct {
	d      *ray.Driver
	runner opRunner
	rec    *recorder
	epoch  time.Time
	slots  []slot

	attempted, failed, verified int
	firstErr                    error
	latencyNs                   []int64
}

func (ds *driverState) fail(op int, err error) {
	ds.failed++
	if ds.firstErr == nil {
		ds.firstErr = fmt.Errorf("op %d: %w", op, err)
	}
}

// run issues ops [first, first+n) closed-loop: at most len(slots) in flight,
// the oldest retired (Get, check, then Free) before the next submit. Untimed phases (warm-up) count
// failures but record no samples.
func (ds *driverState) run(first, n int, timed bool) {
	w := len(ds.slots)
	for op := first; op < first+n; op++ {
		if op-w >= first {
			ds.retire(op-w, timed)
		}
		ds.attempted++
		err := ds.runner.prepare(op)
		start := int64(time.Since(ds.epoch))
		if err == nil {
			err = ds.runner.submit(op)
		}
		if err != nil {
			ds.fail(op, err)
			continue
		}
		ds.slots[op%w] = slot{start: start, live: true}
	}
	for op := max(first, first+n-w); op < first+n; op++ {
		ds.retire(op, timed)
	}
}

func (ds *driverState) retire(op int, timed bool) {
	s := &ds.slots[op%len(ds.slots)]
	if !s.live {
		return
	}
	s.live = false
	err := ds.runner.get(op)
	end := int64(time.Since(ds.epoch))
	ds.runner.free(op)
	if err != nil {
		ds.fail(op, err)
		return
	}
	if timed {
		ds.verified++
		ds.latencyNs = append(ds.latencyNs, end-s.start)
		ds.rec.add(spanOp, op, s.start, end)
	}
}

// clusterConfig is the cluster every workload runs on: the defaults a user
// gets (4 nodes x 4 CPUs, RF 2, lineage, batching, telemetry on), 8 GCS
// shards and labelled nodes. No ablation knob is set.
func clusterConfig(w workload, traced bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.GCSShards = 8
	cfg.LabelNodes = true
	cfg.Network = w.network
	if traced {
		cfg.TraceSampleEvery = 1
	}
	return cfg
}

// repOps returns a repetition's timed and warm-up op counts per driver.
func repOps(w workload, scale float64) (ops, warm int) {
	ops = max(int(float64(w.ops)*scale), 1)
	return ops, max(int(float64(ops)*warmupShare), 1)
}

// runRep runs one repetition: fresh runtime, register, attach drivers, create
// actors, warm up (all of that is setup_s), then the fixed timed op count.
// The error is a harness failure (the cluster could not be built); failed
// ops are counted in the result instead.
func runRep(rc repConfig) (*repResult, error) {
	w := rc.w
	ops, warm := repOps(w, rc.scale)

	epoch := time.Now()
	rt, err := ray.Init(context.Background(), clusterConfig(w, rc.traced))
	if err != nil {
		return nil, fmt.Errorf("%s: init: %w", w.name, err)
	}
	defer rt.Shutdown()
	factory, err := w.register(rt)
	if err != nil {
		return nil, fmt.Errorf("%s: register: %w", w.name, err)
	}
	var pinned ray.Func1[int64, int64]
	if rc.traced {
		if pinned, err = ray.Register1(rt, "pinned_add1", "forward-path probe",
			func(_ *ray.Context, x int64) (int64, error) { return x + 1, nil }); err != nil {
			return nil, fmt.Errorf("%s: register: %w", w.name, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
	defer cancel()
	nodes := rt.Cluster().NodeList()
	drivers := make([]*driverState, w.drivers)
	for i := range drivers {
		d, err := rt.NewDriverOn(ctx, nodes[i%len(nodes)])
		if err != nil {
			return nil, fmt.Errorf("%s: attach driver %d: %w", w.name, i, err)
		}
		var rec *recorder
		if rc.traced {
			rec = newRecorder(epoch, 5*(ops+warm))
		}
		runner, err := factory(d, i, w.window, rc.seed, rec)
		if err != nil {
			return nil, fmt.Errorf("%s: driver %d: %w", w.name, i, err)
		}
		drivers[i] = &driverState{d: d, runner: runner, rec: rec, epoch: epoch,
			slots: make([]slot, w.window), latencyNs: make([]int64, 0, ops)}
	}
	phase := func(first, n int, timed bool) {
		var wg sync.WaitGroup
		for _, ds := range drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ds.run(first, n, timed)
			}()
		}
		wg.Wait()
	}
	phase(0, warm, false)
	res := &repResult{setupS: time.Since(epoch).Seconds()}

	for _, ds := range drivers {
		if ds.rec != nil {
			ds.rec.spans = ds.rec.spans[:0]
		}
	}
	before := readCounters(rt)
	timedStart := time.Since(epoch)
	phase(warm, ops, true)
	timedEnd := time.Since(epoch)
	after := readCounters(rt)

	res.wallS = (timedEnd - timedStart).Seconds()
	res.delta = after.sub(before)
	res.retainedHeapMB = (after[cHeapAlloc] - before[cHeapAlloc]) / (1 << 20)
	res.end = readGauges(rt)
	for _, ds := range drivers {
		res.attempted += ds.attempted
		res.failed += ds.failed
		res.verified += ds.verified
		if res.firstErr == nil {
			res.firstErr = ds.firstErr
		}
		for _, ns := range ds.latencyNs {
			res.latencyMs = append(res.latencyMs, float64(ns)/1e6)
		}
	}
	if rc.traced {
		tr := &repTrace{epoch: epoch, timedStart: int64(timedStart), timedEnd: int64(timedEnd)}
		for _, ds := range drivers {
			tr.perDriver = append(tr.perDriver, ds.rec.spans)
		}
		if tr.program, err = programSpans(ctx, rt, epoch, tr.timedStart, tr.timedEnd); err != nil {
			return nil, fmt.Errorf("%s: read spans: %w", w.name, err)
		}
		tr.forwardP50Ms = forwardRoundTrips(drivers[0], pinned, max(int(forwardProbeOps*rc.scale), 5), res)
		res.trace = tr
	}
	for _, ds := range drivers {
		if _, err := ray.Shutdown(ctx, ds.d); err != nil && res.firstErr == nil {
			res.firstErr = fmt.Errorf("driver shutdown: %w", err)
		}
	}
	return res, nil
}

// programSpans flushes the program's tracer and returns the phase spans that
// started inside the timed section.
func programSpans(ctx context.Context, rt *ray.Runtime, epoch time.Time, start, end int64) ([]telemetry.Span, error) {
	cl := rt.Cluster()
	if err := cl.FlushTelemetry(ctx); err != nil {
		return nil, err
	}
	if err := cl.GCS().Sync(ctx); err != nil {
		return nil, err
	}
	all, err := cl.GCS().Spans(ctx)
	if err != nil {
		return nil, err
	}
	lo, hi := epoch.UnixNano()+start, epoch.UnixNano()+end
	var out []telemetry.Span
	for _, sp := range all {
		if sp.StartUnixNano >= lo && sp.StartUnixNano < hi {
			out = append(out, sp)
		}
	}
	return out, nil
}

// forwardRoundTrips measures the forwarded path beside the local one:
// sequential submit->Get round trips pinned to node 1 from the driver on
// node 0, on the workload's own cluster. Failures count like any op's.
func forwardRoundTrips(ds *driverState, pinned ray.Func1[int64, int64], n int, res *repResult) float64 {
	samples := make([]float64, 0, n)
	for i := int64(0); i < int64(n); i++ {
		res.attempted++
		start := time.Now()
		ref, err := pinned.Remote(ds.d, i, ray.OnNode(1))
		var got int64
		if err == nil {
			got, err = ray.Get(ds.d, ref)
			ray.Free(ds.d, ref)
		}
		if err == nil && got != i+1 {
			err = fmt.Errorf("pinned_add1 returned %d, want %d", got, i+1)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("forward probe %d: %w", i, err)
			}
			continue
		}
		samples = append(samples, float64(time.Since(start))/1e6)
	}
	return median(samples)
}

// --- program counters ---------------------------------------------------------

// counter indexes one monotonic figure read from the program's public Stats
// snapshots, the Go runtime or getrusage. Layer metrics are ratios of their
// deltas over a timed section.
type counter int

const (
	cCPUMicros counter = iota
	cMallocs
	cAllocBytes
	cGCPauseNs
	cHeapAlloc // after two forced GCs; its delta is retained_heap_mb
	cGCSPuts
	cGCSGets
	cGCSBatched
	cGCSCoalesced
	cGCSCommits
	cGCSResidentBytes
	cForwards
	cActorRoutes
	cGlobalDecisions
	cReclaimed
	cSchedLocal
	cSchedForwarded
	cSchedFailed
	cTasksRun
	cMethodsRun
	cAppErrors
	cStorePuts
	cStoreGets
	cStoreHits
	cEvictions
	cPulls
	cBytesPulled
	cTransferNs
	cChunks
	cReplays
	cSpansDropped
	numCounters
)

type counters [numCounters]float64

func (c counters) sub(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

// gauges are levels read once, after the timed section and its frees.
type gauges struct {
	storeUsedBytes     float64
	pendingWithdrawals float64
}

// readCounters settles the heap (two forced collections, so HeapAlloc is
// live data only) and snapshots every counter.
func readCounters(rt *ray.Runtime) counters {
	var c counters
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs] = float64(ms.Mallocs)
	c[cAllocBytes] = float64(ms.TotalAlloc)
	c[cGCPauseNs] = float64(ms.PauseTotalNs)
	c[cHeapAlloc] = float64(ms.HeapAlloc)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c[cCPUMicros] = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
	}
	cl := rt.Cluster()
	cs := cl.Stats()
	c[cForwards] = float64(cs.Forwards)
	c[cActorRoutes] = float64(cs.ActorRoutes)
	c[cGlobalDecisions] = float64(cs.GlobalDecisions)
	c[cReclaimed] = float64(cs.ObjectsReclaimed)
	gs := cl.GCS().Stats()
	c[cGCSPuts] = float64(gs.Puts)
	c[cGCSGets] = float64(gs.Gets)
	c[cGCSBatched] = float64(gs.BatchedWrites)
	c[cGCSCoalesced] = float64(gs.BatchCoalesced)
	c[cGCSCommits] = float64(gs.BatchCommits)
	c[cGCSResidentBytes] = float64(gs.ResidentBytes)
	for _, n := range cl.NodeList() {
		ns := n.Stats()
		c[cSchedLocal] += float64(ns.Scheduler.ScheduledLocally)
		c[cSchedForwarded] += float64(ns.Scheduler.Forwarded)
		c[cSchedFailed] += float64(ns.Scheduler.Failed)
		c[cTasksRun] += float64(ns.Workers.TasksRun)
		c[cMethodsRun] += float64(ns.Workers.MethodsRun)
		c[cAppErrors] += float64(ns.Workers.AppErrors)
		c[cStorePuts] += float64(ns.Objects.Puts)
		c[cStoreGets] += float64(ns.Objects.Gets)
		c[cStoreHits] += float64(ns.Objects.Hits)
		c[cEvictions] += float64(ns.Objects.Evictions)
		c[cPulls] += float64(ns.Transfers.Pulls)
		c[cBytesPulled] += float64(ns.Transfers.BytesPulled)
		c[cTransferNs] += float64(ns.Transfers.TransferNanos)
		c[cChunks] += float64(ns.Transfers.ChunksPulled)
		c[cReplays] += float64(ns.Lineage.ReconstructedTasks)
	}
	c[cSpansDropped] = float64(cl.Tracer().Dropped())
	return c
}

func readGauges(rt *ray.Runtime) gauges {
	var g gauges
	cl := rt.Cluster()
	for _, n := range cl.NodeList() {
		g.storeUsedBytes += float64(n.Stats().Objects.Used)
	}
	g.pendingWithdrawals = float64(cl.PendingWithdrawals())
	return g
}
