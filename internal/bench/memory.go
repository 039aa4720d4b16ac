package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"ray/ray"
)

// LargerThanMemory drives a working set several times the cluster's aggregate
// object-store capacity through a produce→consume→free cycle and measures how
// the system degrades. The driver frees each payload as soon as it is
// consumed, so ownership reference counting reclaims it eagerly: resident
// bytes stay bounded well below capacity and the run barely touches disk
// (spill-to-disk is on, for whatever memory pressure displaces anyway).
func LargerThanMemory(scale Scale) (*Table, error) {
	storeBytes := int64(256 << 10) // per node; 4 nodes → 1 MiB aggregate
	objectSize := 32 << 10
	multiple := 3 // working set = multiple × aggregate capacity
	if scale == Full {
		storeBytes = 2 << 20
		objectSize = 128 << 10
		multiple = 4
	}
	nodes := 4
	aggregate := storeBytes * int64(nodes)
	numObjects := int(multiple * int(aggregate) / objectSize)

	table := &Table{
		Name:        "larger_than_memory",
		Description: fmt.Sprintf("working set %s = %d× aggregate store capacity %s; refcounting reclaims eagerly, spill enabled", byteSize(numObjects*objectSize), multiple, byteSize(int(aggregate))),
		Columns:     []string{"throughput (MB/s)", "p50 (ms)", "p99 (ms)", "peak resident", "peak spilled", "reclaimed", "spills"},
	}
	res, err := memoryRun(nodes, storeBytes, objectSize, numObjects)
	if err != nil {
		return nil, err
	}
	table.AddRow(f(res.throughputMBps), f(res.p50Millis), f(res.p99Millis),
		byteSize(int(res.peakResident)), byteSize(int(res.peakSpilled)),
		fmt.Sprintf("%d", res.reclaimed), fmt.Sprintf("%d", res.spills))
	return table, nil
}

// memoryRunResult carries one run's measurements.
type memoryRunResult struct {
	throughputMBps float64
	p50Millis      float64
	p99Millis      float64
	peakResident   int64
	peakSpilled    int64
	reclaimed      int64
	spills         int64
}

func memoryRun(nodes int, storeBytes int64, objectSize, numObjects int) (memoryRunResult, error) {
	var res memoryRunResult
	spillDir, err := os.MkdirTemp("", "bench-spill-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(spillDir)

	cfg := ray.DefaultConfig()
	cfg.Nodes = nodes
	cfg.ObjectStoreBytes = storeBytes
	cfg.SpillDir = spillDir
	rt, d, err := newCluster(cfg)
	if err != nil {
		return res, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return res, err
	}

	sample := func() {
		var resident, spilled int64
		for _, n := range rt.Cluster().NodeList() {
			resident += n.Store().Used()
			spilled += n.Store().SpilledBytes()
		}
		if resident > res.peakResident {
			res.peakResident = resident
		}
		if spilled > res.peakSpilled {
			res.peakSpilled = spilled
		}
	}

	latencies := make([]time.Duration, 0, numObjects)
	start := time.Now()
	for i := 0; i < numObjects; i++ {
		t0 := time.Now()
		payload, err := fns.makeBytes.Remote(d, objectSize)
		if err != nil {
			return res, err
		}
		size, err := fns.consume.RemoteRef(d, payload, ray.ZeroResources())
		if err != nil {
			return res, err
		}
		got, err := ray.Get(d, size)
		if err != nil {
			return res, fmt.Errorf("object %d/%d: %w", i, numObjects, err)
		}
		if got != objectSize {
			return res, fmt.Errorf("object %d: consumed %d bytes, want %d", i, got, objectSize)
		}
		latencies = append(latencies, time.Since(t0))
		sample()
		// The driver is done with this pair: its references were the last,
		// so these frees reclaim both objects.
		ray.Free(d, payload)
		ray.Free(d, size)
		sample()
	}
	elapsed := time.Since(start)

	res.throughputMBps = float64(numObjects*objectSize) / (1 << 20) / elapsed.Seconds()
	res.p50Millis = percentileMillis(latencies, 0.50)
	res.p99Millis = percentileMillis(latencies, 0.99)
	res.reclaimed = rt.Cluster().Stats().ObjectsReclaimed
	for _, n := range rt.Cluster().NodeList() {
		res.spills += n.Store().Stats().Spills
	}
	return res, nil
}

// percentileMillis returns the p-th percentile (0..1) of the samples in
// milliseconds.
func percentileMillis(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}
