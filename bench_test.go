// Package main's bench_test.go exposes one testing.B benchmark per table and
// figure in the paper's evaluation (Section 5). Each benchmark delegates to
// the shared harness in internal/bench at Quick scale and reports the
// resulting table through b.Log, so
//
//	go test -bench=. -benchmem
//
// regenerates every experiment. cmd/raybench runs the same harness as a CLI
// (including at -scale full).
package main

import (
	"testing"

	"ray/internal/bench"
)

// runExperiment executes one harness experiment once per benchmark iteration
// and logs its result table.
func runExperiment(b *testing.B, fn func(bench.Scale) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := fn(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.String())
		}
	}
}

// BenchmarkFig8aLocality regenerates Figure 8a (locality-aware placement).
func BenchmarkFig8aLocality(b *testing.B) { runExperiment(b, bench.Fig8aLocality) }

// BenchmarkFig8bScalability regenerates Figure 8b (task throughput scaling).
func BenchmarkFig8bScalability(b *testing.B) { runExperiment(b, bench.Fig8bScalability) }

// BenchmarkFig9ObjectStore regenerates Figure 9 (object store throughput/IOPS).
func BenchmarkFig9ObjectStore(b *testing.B) { runExperiment(b, bench.Fig9ObjectStore) }

// BenchmarkFig10aGCSFaultTolerance regenerates Figure 10a (chain replication
// failure and reconfiguration latency).
func BenchmarkFig10aGCSFaultTolerance(b *testing.B) { runExperiment(b, bench.Fig10aGCSFaultTolerance) }

// BenchmarkFig10bGCSCollection regenerates Figure 10b (collection bounds GCS
// memory).
func BenchmarkFig10bGCSCollection(b *testing.B) { runExperiment(b, bench.Fig10bGCSCollection) }

// BenchmarkFig11aTaskReconstruction regenerates Figure 11a (task lineage
// reconstruction under node failure).
func BenchmarkFig11aTaskReconstruction(b *testing.B) {
	runExperiment(b, bench.Fig11aTaskReconstruction)
}

// BenchmarkFig11bActorReconstruction regenerates Figure 11b (actor
// reconstruction with and without checkpointing).
func BenchmarkFig11bActorReconstruction(b *testing.B) {
	runExperiment(b, bench.Fig11bActorReconstruction)
}

// BenchmarkFig12aAllreduce regenerates Figure 12a (allreduce vs OpenMPI model).
func BenchmarkFig12aAllreduce(b *testing.B) { runExperiment(b, bench.Fig12aAllreduce) }

// BenchmarkFig12bSchedulerAblation regenerates Figure 12b (allreduce vs
// injected scheduler latency).
func BenchmarkFig12bSchedulerAblation(b *testing.B) {
	runExperiment(b, bench.Fig12bSchedulerAblation)
}

// BenchmarkFig13DistributedSGD regenerates Figure 13 (distributed SGD
// throughput by strategy).
func BenchmarkFig13DistributedSGD(b *testing.B) { runExperiment(b, bench.Fig13DistributedSGD) }

// BenchmarkTable3Serving regenerates Table 3 (serving throughput, REST vs Ray).
func BenchmarkTable3Serving(b *testing.B) { runExperiment(b, bench.Table3Serving) }

// BenchmarkTable4Simulation regenerates Table 4 (simulation throughput,
// BSP vs Ray async).
func BenchmarkTable4Simulation(b *testing.B) { runExperiment(b, bench.Table4Simulation) }

// BenchmarkFig14aES regenerates Figure 14a (ES: Ray vs reference system).
func BenchmarkFig14aES(b *testing.B) { runExperiment(b, bench.Fig14aES) }

// BenchmarkFig14bPPO regenerates Figure 14b (PPO: Ray async vs MPI-style BSP).
func BenchmarkFig14bPPO(b *testing.B) { runExperiment(b, bench.Fig14bPPO) }

// BenchmarkMultiDriver regenerates the multi-driver contention experiment
// (per-driver fair-share throughput + mid-run job kill).
func BenchmarkMultiDriver(b *testing.B) { runExperiment(b, bench.MultiDriver) }
