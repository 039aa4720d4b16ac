package bench

import (
	"fmt"
	"time"

	"ray/internal/core"
	"ray/ray"
)

// TransferPipelining measures the chunked, pipelined object-transfer path
// against the blocking baseline on the workload the paper's data plane is
// built for (Section 5.1): tasks whose inputs are several large objects
// resident on other nodes. The blocking baseline pulls each input as one
// whole-object transfer, one input at a time — so a two-input task pays both
// transfers back to back. The pipelined path splits each object into chunks
// fetched over concurrent streams and pulls both inputs at once, overlapping
// everything. Both modes run the same cluster shape and the same simulated
// 25 Gbps interconnect.
func TransferPipelining(scale Scale) (*Table, error) {
	objectSize := 32 << 20
	tasks := 5
	if scale == Full {
		objectSize = 64 << 20
		tasks = 12
	}
	table := &Table{
		Name:        "Transfer pipelining",
		Description: "two-input large-object tasks: chunked+overlapped pulls vs blocking single-stream baseline",
		Columns:     []string{"mode", "object size", "tasks", "mean task (ms)", "speedup vs blocking"},
	}
	var base time.Duration
	var primaryMBps float64
	var rows []map[string]any
	for _, blocking := range []bool{true, false} {
		mean, err := transferRun(blocking, objectSize, tasks)
		if err != nil {
			return nil, err
		}
		mode := "pipelined"
		// Each task moves both of its inputs across the simulated network, so
		// the effective transfer rate is 2*objectSize per mean task latency.
		mbps := float64(2*objectSize) / (1 << 20) / mean.Seconds()
		if blocking {
			mode = "blocking"
			base = mean
		} else {
			primaryMBps = mbps
		}
		table.AddRow(mode, byteSize(objectSize), fmt.Sprintf("%d", tasks),
			ms(mean), f(float64(base)/float64(mean)))
		rows = append(rows, map[string]any{
			"mode":                mode,
			"object_size":         objectSize,
			"tasks":               tasks,
			"mean_task_millis":    float64(mean.Microseconds()) / 1000,
			"transfer_mbps":       mbps,
			"speedup_vs_blocking": float64(base) / float64(mean),
		})
	}
	table.Result = &Result{
		Experiment: "transfer_pipelining",
		Config: map[string]any{
			"nodes":           3,
			"object_size":     objectSize,
			"tasks":           tasks,
			"inputs_per_task": 2,
		},
		Throughput:     primaryMBps,
		ThroughputUnit: "MB/s",
		Rows:           rows,
	}
	return table, nil
}

// transferRun measures the mean latency of tasks that each consume two fresh
// objectSize-byte objects created on the two non-driver nodes, so every task
// input crosses the simulated network exactly once.
func transferRun(blocking bool, objectSize, numTasks int) (time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Nodes = 3
	cfg.CPUsPerNode = 8
	cfg.LabelNodes = true
	cfg.BlockingTransfers = blocking
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
	// Create both inputs of every task up front — one replica each, on the
	// two nodes the driver is not attached to — and wait for them to exist
	// without pulling them to the driver.
	left := make([]ray.ObjectRef[[]byte], numTasks)
	right := make([]ray.ObjectRef[[]byte], numTasks)
	for i := 0; i < numTasks; i++ {
		if left[i], err = fns.makeBytes.Remote(d, objectSize, ray.OnNode(1)); err != nil {
			return 0, err
		}
		if right[i], err = fns.makeBytes.Remote(d, objectSize, ray.OnNode(2)); err != nil {
			return 0, err
		}
	}
	if _, _, err := ray.Wait(d, append(append([]ray.ObjectRef[[]byte]{}, left...), right...), 0, 0); err != nil {
		return 0, err
	}
	// Tasks run on the driver's node (node 0), so both inputs must cross the
	// network. Tasks run one at a time: the experiment isolates per-task
	// transfer latency, not aggregate throughput.
	var total time.Duration
	for i := 0; i < numTasks; i++ {
		start := time.Now()
		ref, err := fns.consume2.RemoteRef(d, left[i], right[i], ray.OnNode(0))
		if err != nil {
			return 0, err
		}
		got, err := ray.Get(d, ref)
		if err != nil {
			return 0, err
		}
		if got != 2*objectSize {
			return 0, fmt.Errorf("bench: consume2 returned %d, want %d", got, 2*objectSize)
		}
		total += time.Since(start)
	}
	return total / time.Duration(numTasks), nil
}
