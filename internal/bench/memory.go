package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"ray/internal/core"
	"ray/ray"
)

// LargerThanMemory drives a working set several times the cluster's aggregate
// object-store capacity through a produce→consume→free cycle and measures how
// the system degrades. With ownership reference counting on, the driver frees
// each payload as soon as it is consumed, so eager reclamation keeps resident
// bytes bounded well below capacity and the run barely touches disk. With
// refcounting off (the -no-refcount ablation) every payload lives until
// job-exit GC: the stores fill, primary copies spill to disk, and the run
// completes only because spill-to-disk absorbs the overflow. Both variants
// must finish — the gap is in resident/spilled bytes and latency, not in
// completion.
//
// `raybench -persist` writes the run's numbers to
// BENCH_larger_than_memory.json at the repository root.
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
		Description: fmt.Sprintf("working set %s = %d× aggregate store capacity %s; refcounting vs -no-refcount, spill enabled", byteSize(numObjects*objectSize), multiple, byteSize(int(aggregate))),
		Columns:     []string{"variant", "throughput (MB/s)", "p50 (ms)", "p99 (ms)", "peak resident", "peak spilled", "reclaimed", "spills"},
	}

	variants := []struct {
		name       string
		noRefcount bool
	}{
		{"refcount", false},
		{"no-refcount", true},
	}
	var rows []map[string]any
	var primary memoryRunResult
	for _, v := range variants {
		res, err := memoryRun(nodes, storeBytes, objectSize, numObjects, v.noRefcount)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if !v.noRefcount {
			primary = res
		}
		table.AddRow(v.name, f(res.throughputMBps), f(res.p50Millis), f(res.p99Millis),
			byteSize(int(res.peakResident)), byteSize(int(res.peakSpilled)),
			fmt.Sprintf("%d", res.reclaimed), fmt.Sprintf("%d", res.spills))
		rows = append(rows, map[string]any{
			"variant":            v.name,
			"throughput_mbps":    res.throughputMBps,
			"p50_millis":         res.p50Millis,
			"p99_millis":         res.p99Millis,
			"peak_resident":      res.peakResident,
			"peak_spilled":       res.peakSpilled,
			"objects_reclaimed":  res.reclaimed,
			"spills":             res.spills,
			"restores":           res.restores,
			"working_set_bytes":  int64(numObjects * objectSize),
			"aggregate_capacity": aggregate,
		})
	}

	table.Result = &Result{
		Experiment: "larger_than_memory",
		Config: map[string]any{
			"nodes":                    nodes,
			"object_store_bytes":       storeBytes,
			"object_size":              objectSize,
			"objects":                  numObjects,
			"working_set_multiple":     multiple,
			"aggregate_capacity_bytes": aggregate,
		},
		Throughput:     primary.throughputMBps,
		ThroughputUnit: "MB/s",
		P50Millis:      primary.p50Millis,
		P99Millis:      primary.p99Millis,
		Rows:           rows,
	}
	return table, nil
}

// memoryRunResult carries one variant's measurements.
type memoryRunResult struct {
	throughputMBps float64
	p50Millis      float64
	p99Millis      float64
	peakResident   int64
	peakSpilled    int64
	reclaimed      int64
	spills         int64
	restores       int64
}

func memoryRun(nodes int, storeBytes int64, objectSize, numObjects int, noRefcount bool) (memoryRunResult, error) {
	var res memoryRunResult
	spillDir, err := os.MkdirTemp("", "bench-spill-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(spillDir)

	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CPUsPerNode = 4
	cfg.ObjectStoreBytes = storeBytes
	cfg.SpillDir = spillDir
	cfg.DisableRefCounting = noRefcount
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
		// The driver is done with this pair; with refcounting on, these
		// become reclaims, with it off they are no-ops and the working set
		// accumulates until spill absorbs it.
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
		st := n.Store().Stats()
		res.spills += st.Spills
		res.restores += st.Restores
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
