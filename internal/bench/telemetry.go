package bench

import (
	"fmt"

	"ray/internal/core"
)

// TelemetryOverhead measures the cost of leaving telemetry on: empty-task
// throughput with the metrics registry + task-lifecycle tracer enabled (the
// default) vs fully disabled. The acceptance bar is enabled within 5% of
// disabled at Quick scale — cheap enough that tracing defaults on, which is
// what lets the -timeline export and /metrics endpoint describe production
// runs rather than special instrumented ones.
func TelemetryOverhead(scale Scale) (*Table, error) {
	nodes := 4
	tasksPerNode := 4000
	if scale == Full {
		nodes = 8
		tasksPerNode = 5000
	}
	table := &Table{
		Name:        "Telemetry overhead",
		Description: "empty-task throughput with metrics+tracing enabled vs disabled",
		Columns:     []string{"mode", "tasks", "tasks/sec", "enabled/disabled"},
	}
	// Best of five interleaved runs per mode: the experiment measures a
	// fixed software cost, and alternating modes while keeping each mode's
	// best filters out external machine contention that would otherwise
	// swamp a 5% bound at Quick scale (a run is some 100 ms, its end is
	// polled for at 1 ms, and `go test ./...` runs other packages beside it).
	const reps = 5
	var best [2]float64
	var totals [2]int
	for rep := 0; rep < reps; rep++ {
		for i, on := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Nodes = nodes
			cfg.CPUsPerNode = 4
			cfg.GCSShards = 8
			cfg.RecordLineage = true
			cfg.DisableTelemetry = !on
			tp, n, err := throughputRun(cfg, tasksPerNode)
			if err != nil {
				return nil, err
			}
			if tp > best[i] {
				best[i], totals[i] = tp, n
			}
		}
	}
	for i, mode := range []string{"disabled", "enabled"} {
		table.AddRow(mode, fmt.Sprintf("%d", totals[i]), f(best[i]), f(best[i]/best[0]))
	}
	return table, nil
}
