package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"ray/internal/chain"
	"ray/internal/gcs"
	"ray/internal/netsim"
	"ray/internal/objectstore"
	"ray/internal/task"
	"ray/internal/types"
	"ray/ray"
)

// Fig8aLocality reproduces Figure 8a: mean task latency for tasks with one
// object dependency, with and without locality-aware placement, as the object
// size grows.
func Fig8aLocality(scale Scale) (*Table, error) {
	sizes := []int{100 << 10, 1 << 20, 10 << 20}
	tasksPerSize := 16
	if scale == Full {
		sizes = append(sizes, 100<<20)
		tasksPerSize = 100
	}
	table := &Table{
		Name:        "Figure 8a",
		Description: "locality-aware vs unaware placement: mean task latency vs input size",
		Columns:     []string{"object size", "aware mean (ms)", "unaware mean (ms)", "unaware/aware"},
	}
	for _, size := range sizes {
		aware, err := localityRun(true, size, tasksPerSize)
		if err != nil {
			return nil, err
		}
		unaware, err := localityRun(false, size, tasksPerSize)
		if err != nil {
			return nil, err
		}
		ratio := float64(unaware) / float64(aware)
		table.AddRow(byteSize(size), ms(aware), ms(unaware), f(ratio))
	}
	return table, nil
}

func localityRun(aware bool, objectSize, numTasks int) (time.Duration, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 2
	cfg.CPUs = 8
	cfg.LabelNodes = true
	cfg.LocalityAware = aware
	cfg.SpilloverThreshold = 1 // force every task through the global scheduler
	cfg.Network = realisticNetwork(1.0)
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return 0, err
	}
	// Create one dependency object per task (the paper's tasks each depend on
	// a random object), pinned alternately to the two nodes. Wait for them to
	// exist (without pulling them to the driver) so each object has exactly
	// one replica, on the node that produced it.
	numObjects := numTasks
	objects := make([]ray.ObjectRef[[]byte], numObjects)
	for i := range objects {
		ref, err := fns.makeBytes.Remote(d, objectSize, ray.OnNode(i%2))
		if err != nil {
			return 0, err
		}
		objects[i] = ref
	}
	if _, _, err := ray.Wait(d, objects, len(objects), 0); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(7))
	start := time.Now()
	refs := make([]ray.ObjectRef[int], numTasks)
	for i := 0; i < numTasks; i++ {
		dep := objects[rng.Intn(numObjects)]
		ref, err := fns.consume.RemoteRef(d, dep, ray.ZeroResources())
		if err != nil {
			return 0, err
		}
		refs[i] = ref
	}
	for _, ref := range refs {
		if _, err := ray.Get(d, ref); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(numTasks), nil
}

// Fig8bScalability reproduces Figure 8b: aggregate empty-task throughput as
// the cluster grows.
func Fig8bScalability(scale Scale) (*Table, error) {
	nodeCounts := []int{1, 2, 4}
	tasksPerNode := 2000
	if scale == Full {
		nodeCounts = []int{1, 2, 4, 8, 16}
		tasksPerNode = 5000
	}
	table := &Table{
		Name:        "Figure 8b",
		Description: "empty-task throughput vs cluster size (one driver per node)",
		Columns:     []string{"nodes", "tasks", "tasks/sec", "speedup vs 1 node"},
	}
	var base float64
	for _, nodes := range nodeCounts {
		throughput, total, err := scalabilityRun(nodes, tasksPerNode)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = throughput
		}
		table.AddRow(fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", total), f(throughput), f(throughput/base))
	}
	return table, nil
}

func scalabilityRun(nodes, tasksPerNode int) (float64, int, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = nodes
	cfg.RecordLineage = false // the paper's empty tasks measure scheduler+GCS dispatch throughput
	cfg.GCSShards = 8
	return throughputRun(cfg, tasksPerNode)
}

// throughputRun measures aggregate empty-task throughput on a cluster built
// from cfg, with one driver per node submitting its own task stream.
func throughputRun(cfg ray.Config, tasksPerNode int) (float64, int, error) {
	rt, _, err := newCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return 0, 0, err
	}
	// One driver per node, each submitting its own stream of empty tasks,
	// exactly like the paper's per-node drivers.
	ctx := context.Background()
	drivers := make([]*ray.Driver, 0, cfg.Nodes)
	for _, n := range rt.Cluster().AliveNodes() {
		d, err := rt.NewDriverOn(ctx, n)
		if err != nil {
			return 0, 0, err
		}
		drivers = append(drivers, d)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(drivers))
	total := tasksPerNode * len(drivers)
	start := time.Now()
	for _, d := range drivers {
		wg.Add(1)
		go func(d *ray.Driver) {
			defer wg.Done()
			for i := 0; i < tasksPerNode; i++ {
				if _, err := fns.noop.Remote(d, ray.ZeroResources()); err != nil {
					errs <- err
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, 0, err
	}
	// Wait for execution to drain by polling the schedulers' completion
	// counters (O(nodes) per poll). Polling each pending future through the
	// GCS instead would add O(tasks) control-plane reads per tick and drown
	// the submission cost this experiment measures.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var done int64
		for _, n := range rt.Cluster().NodeList() {
			st := n.Stats().Scheduler
			done += st.Completed + st.Failed
		}
		if done >= int64(total) {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("bench: %d of %d tasks finished before timeout", done, total)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()
	return float64(total) / elapsed, total, nil
}

// Fig9ObjectStore reproduces Figure 9: single-client object store write
// throughput for large objects and IOPS for small objects, as the number of
// copy threads varies.
func Fig9ObjectStore(scale Scale) (*Table, error) {
	largeSizes := []int{1 << 20, 16 << 20, 64 << 20}
	iopsObjects := 3000
	if scale == Full {
		largeSizes = append(largeSizes, 256<<20)
		iopsObjects = 20000
	}
	table := &Table{
		Name:        "Figure 9",
		Description: "object store write throughput (large objects) and IOPS (1KB objects)",
		Columns:     []string{"object size", "copy threads", "throughput (GB/s)", "IOPS"},
	}
	for _, threads := range []int{1, 8} {
		for _, size := range largeSizes {
			gbps, err := storeWriteThroughput(size, threads, 1<<30)
			if err != nil {
				return nil, err
			}
			table.AddRow(byteSize(size), fmt.Sprintf("%d", threads), f(gbps), "-")
		}
	}
	// IOPS for 1KB objects (single thread; the copy is trivially small).
	store := objectstore.New(objectstore.Config{CapacityBytes: 1 << 30, CopyThreads: 1})
	payload := make([]byte, 1024)
	start := time.Now()
	for i := 0; i < iopsObjects; i++ {
		if err := store.Put(types.NewObjectID(), payload, false); err != nil {
			return nil, err
		}
	}
	iops := float64(iopsObjects) / time.Since(start).Seconds()
	table.AddRow("1KB", "1", "-", f(iops))
	return table, nil
}

func storeWriteThroughput(size, threads int, capacity int64) (float64, error) {
	store := objectstore.New(objectstore.Config{CapacityBytes: capacity, CopyThreads: threads, CopyThreshold: 256 << 10})
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	iterations := int(capacity / int64(size) / 2)
	if iterations < 2 {
		iterations = 2
	}
	if iterations > 32 {
		iterations = 32
	}
	start := time.Now()
	var written int64
	for i := 0; i < iterations; i++ {
		if err := store.Put(types.NewObjectID(), payload, false); err != nil {
			return 0, err
		}
		written += int64(size)
	}
	secs := time.Since(start).Seconds()
	return float64(written) / secs / 1e9, nil
}

// Fig10aGCSFaultTolerance reproduces Figure 10a: GCS read/write latency as
// observed by a client while a chain replica is killed and the chain
// reconfigures.
func Fig10aGCSFaultTolerance(scale Scale) (*Table, error) {
	ops := 2000
	if scale == Full {
		ops = 20000
	}
	net := netsim.New(netsim.Config{
		BandwidthBytesPerSec: 3.125e9,
		LatencyPerMessage:    50 * time.Microsecond,
		MaxParallelStreams:   8,
		TimeScale:            0.05,
	})
	c := chain.New(chain.Config{
		ReplicationFactor:          2,
		Network:                    net,
		ReconfigureDelay:           20 * time.Millisecond,
		StateTransferBytesPerEntry: 512 + 25,
	})
	ctx := context.Background()
	value := make([]byte, 512)
	var maxBefore, maxDuring, maxAfter time.Duration
	killAt := ops / 2
	recordWindow := ops / 10
	for i := 0; i < ops; i++ {
		if i == killAt {
			c.KillReplica(1)
		}
		key := fmt.Sprintf("task-%025d", i%4096)
		start := time.Now()
		if err := c.Put(ctx, key, value); err != nil {
			return nil, err
		}
		if _, _, err := c.Get(ctx, key); err != nil {
			return nil, err
		}
		latency := time.Since(start)
		switch {
		case i < killAt:
			if latency > maxBefore {
				maxBefore = latency
			}
		case i < killAt+recordWindow:
			if latency > maxDuring {
				maxDuring = latency
			}
		default:
			if latency > maxAfter {
				maxAfter = latency
			}
		}
	}
	table := &Table{
		Name:        "Figure 10a",
		Description: "GCS chain replication: max client-observed latency around a replica failure",
		Columns:     []string{"phase", "max latency (ms)", "reconfigurations"},
	}
	table.AddRow("before failure", ms(maxBefore), "0")
	table.AddRow("during reconfiguration", ms(maxDuring), fmt.Sprintf("%d", c.Reconfigurations()))
	table.AddRow("after recovery", ms(maxAfter), fmt.Sprintf("%d", c.Reconfigurations()))
	return table, nil
}

// Fig10bGCSFlush reproduces Figure 10b: GCS memory with and without flushing
// while a driver submits a long stream of tasks.
func Fig10bGCSFlush(scale Scale) (*Table, error) {
	tasks := 5000
	if scale == Full {
		tasks = 50000
	}
	table := &Table{
		Name:        "Figure 10b",
		Description: "GCS resident memory while recording task lineage, with and without flushing",
		Columns:     []string{"mode", "tasks recorded", "peak resident (KB)", "flushed entries"},
	}
	for _, flush := range []bool{false, true} {
		peak, flushed, err := gcsFlushRun(tasks, flush)
		if err != nil {
			return nil, err
		}
		mode := "no flush"
		if flush {
			mode = "flush enabled"
		}
		table.AddRow(mode, fmt.Sprintf("%d", tasks), fmt.Sprintf("%d", peak/1024), fmt.Sprintf("%d", flushed))
	}
	return table, nil
}

func gcsFlushRun(tasks int, flush bool) (peakBytes int64, flushed int64, err error) {
	// The synchronous write path isolates what the figure measures (resident
	// memory vs flushing) from batch-flush timing.
	cfg := gcs.Config{Shards: 2, ReplicationFactor: 1, SyncWrites: true}
	if flush {
		cfg.FlushThresholdBytes = 256 * 1024
		cfg.FlushWriter = io.Discard
	}
	store := gcs.New(cfg)
	ctx := context.Background()
	driver := types.NewDriverID()
	for i := 0; i < tasks; i++ {
		spec := &task.Spec{ID: types.NewTaskID(), Driver: driver, Function: "noop", NumReturns: 1}
		if err := store.AddTask(ctx, spec); err != nil {
			return 0, 0, err
		}
		if err := store.UpdateTaskStatus(ctx, spec.ID, types.TaskFinished, types.NilNodeID); err != nil {
			return 0, 0, err
		}
		if b := store.Bytes(); b > peakBytes {
			peakBytes = b
		}
	}
	return peakBytes, store.Stats().FlushedEntries, nil
}

// byteSize renders a size in human-friendly units.
func byteSize(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
