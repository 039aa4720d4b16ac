package bench

import (
	"strconv"
	"strings"
	"testing"
)

// parseCell parses a numeric table cell rendered by f().
func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

// TestFig8bScalabilitySmoke exercises the 1.4k-line harness end to end at
// Quick scale: build clusters, drive per-node submitters, render the table.
func TestFig8bScalabilitySmoke(t *testing.T) {
	table, err := Fig8bScalability(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("Fig8b Quick produced %d rows, want 3 (1/2/4 nodes)", len(table.Rows))
	}
	for _, row := range table.Rows {
		if tp := parseCell(t, row[2]); tp <= 0 {
			t.Fatalf("non-positive throughput in row %v", row)
		}
	}
	if !strings.Contains(table.String(), "tasks/sec") {
		t.Fatal("rendered table missing header")
	}
}

// TestThroughputBatchedBeatsBaseline is the acceptance check for the batched
// control-plane hot path: at Quick scale, batched GCS writes + coalesced
// heartbeats + slot-pool dispatch must deliver more tasks/sec than the
// synchronous per-task baseline on the same hardware. One retry absorbs
// scheduler noise on loaded CI machines.
func TestThroughputBatchedBeatsBaseline(t *testing.T) {
	const attempts = 3
	var lastRatio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		table, err := ThroughputBatched(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Rows) != 2 {
			t.Fatalf("expected unbatched+batched rows, got %v", table.Rows)
		}
		unbatched := parseCell(t, table.Rows[0][2])
		batched := parseCell(t, table.Rows[1][2])
		lastRatio = batched / unbatched
		if batched > unbatched {
			t.Logf("batched %.0f tasks/sec vs unbatched %.0f (%.2fx)", batched, unbatched, lastRatio)
			return
		}
		t.Logf("attempt %d: batched %.0f <= unbatched %.0f, retrying", attempt, batched, unbatched)
	}
	t.Fatalf("batched hot path never beat the baseline (last ratio %.2fx)", lastRatio)
}

// TestTelemetryOverheadWithinBound is the acceptance check for default-on
// telemetry: with the metrics registry and task-lifecycle tracer enabled,
// empty-task throughput must stay within 5% of the fully disabled baseline.
// Retries absorb scheduler noise on loaded CI machines.
func TestTelemetryOverheadWithinBound(t *testing.T) {
	const attempts = 3
	var lastRatio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		table, err := TelemetryOverhead(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Rows) != 2 {
			t.Fatalf("expected disabled+enabled rows, got %v", table.Rows)
		}
		disabled := parseCell(t, table.Rows[0][2])
		enabled := parseCell(t, table.Rows[1][2])
		lastRatio = enabled / disabled
		if lastRatio >= 0.95 {
			t.Logf("enabled %.0f tasks/sec vs disabled %.0f (%.2fx)", enabled, disabled, lastRatio)
			return
		}
		t.Logf("attempt %d: enabled/disabled %.2f < 0.95, retrying", attempt, lastRatio)
	}
	t.Fatalf("telemetry overhead exceeded 5%% (last enabled/disabled ratio %.2f)", lastRatio)
}

// TestTransferPipeliningBeatsBlocking is the acceptance check for the
// chunked, pipelined transfer path: at Quick scale, chunked pulls with
// overlapped multi-input fetching must beat the blocking single-transfer
// baseline on two-input large-object tasks. Retries absorb scheduler noise
// on loaded CI machines.
func TestTransferPipeliningBeatsBlocking(t *testing.T) {
	const attempts = 3
	var lastRatio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		table, err := TransferPipelining(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Rows) != 2 {
			t.Fatalf("expected blocking+pipelined rows, got %v", table.Rows)
		}
		blocking := parseCell(t, table.Rows[0][3])
		pipelined := parseCell(t, table.Rows[1][3])
		lastRatio = blocking / pipelined
		if pipelined < blocking {
			t.Logf("pipelined %.2fms vs blocking %.2fms per task (%.2fx)", pipelined, blocking, lastRatio)
			return
		}
		t.Logf("attempt %d: pipelined %.2fms >= blocking %.2fms, retrying", attempt, pipelined, blocking)
	}
	t.Fatalf("pipelined transfers never beat the blocking baseline (last ratio %.2fx)", lastRatio)
}

// TestMultiDriverFairShare is the acceptance check for the job subsystem:
// with 4 concurrent drivers (2 micro + paramserver + greedy flood) under
// fair-share scheduling, the minimum per-driver micro throughput must stay
// at or above 50% of the single-driver baseline, and the experiment itself
// validates that killing the greedy driver mid-run cancels its tasks, stops
// its actor, and releases its objects while the survivors keep producing
// correct results (MultiDriver fails on any cleanup or correctness
// violation). Retries absorb scheduler noise on loaded CI machines.
func TestMultiDriverFairShare(t *testing.T) {
	const attempts = 3
	var lastRatio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		table, err := MultiDriver(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Rows) != 2 {
			t.Fatalf("expected fair+fifo rows, got %v", table.Rows)
		}
		fairRatio := parseCell(t, table.Rows[0][3])
		fifoMin := parseCell(t, table.Rows[1][2])
		fairMin := parseCell(t, table.Rows[0][2])
		lastRatio = fairRatio
		if fairRatio >= 0.5 {
			t.Logf("fair-share min/solo = %.2f (min %.0f tasks/s); fifo min %.0f tasks/s", fairRatio, fairMin, fifoMin)
			return
		}
		t.Logf("attempt %d: fair-share min/solo %.2f < 0.5, retrying", attempt, fairRatio)
	}
	t.Fatalf("fair share never held the 50%% per-driver floor (last ratio %.2f)", lastRatio)
}

// TestLargerThanMemoryBounded is the acceptance check for distributed memory
// management: a working set 3× the aggregate store capacity must run to
// completion, with ownership refcounting keeping resident bytes bounded and
// barely touching disk, while the -no-refcount ablation survives only by
// spilling the overflow. Both variants run through memoryRun directly so the
// assertions see raw bytes, not formatted table cells.
func TestLargerThanMemoryBounded(t *testing.T) {
	const (
		nodes      = 4
		storeBytes = int64(256 << 10)
		objectSize = 32 << 10
		numObjects = 96 // 3 MiB working set vs 1 MiB aggregate capacity
	)
	aggregate := storeBytes * nodes

	withRC, err := memoryRun(nodes, storeBytes, objectSize, numObjects, false)
	if err != nil {
		t.Fatalf("refcount variant: %v", err)
	}
	withoutRC, err := memoryRun(nodes, storeBytes, objectSize, numObjects, true)
	if err != nil {
		t.Fatalf("no-refcount variant: %v", err)
	}

	// Refcounting must reclaim eagerly (every payload and every result) and
	// keep the resident set far below aggregate capacity.
	if withRC.reclaimed < int64(numObjects) {
		t.Errorf("refcount variant reclaimed %d objects, want >= %d", withRC.reclaimed, numObjects)
	}
	if withRC.peakResident >= aggregate {
		t.Errorf("refcount variant peak resident %d >= aggregate capacity %d", withRC.peakResident, aggregate)
	}
	// The ablation keeps everything alive until job exit, so it must have
	// been forced to spill, and its memory+disk footprint must dwarf the
	// refcounted run's.
	if withoutRC.spills == 0 {
		t.Error("no-refcount variant never spilled despite 3x-capacity working set")
	}
	if withoutRC.peakSpilled <= withRC.peakSpilled {
		t.Errorf("no-refcount peak spilled %d not above refcount's %d", withoutRC.peakSpilled, withRC.peakSpilled)
	}
	rcFootprint := withRC.peakResident + withRC.peakSpilled
	ablFootprint := withoutRC.peakResident + withoutRC.peakSpilled
	if ablFootprint < 2*rcFootprint {
		t.Errorf("ablation footprint %d not at least 2x refcount footprint %d", ablFootprint, rcFootprint)
	}
	t.Logf("refcount: peak resident %d B, spilled %d B, reclaimed %d; no-refcount: peak resident %d B, spilled %d B, spills %d",
		withRC.peakResident, withRC.peakSpilled, withRC.reclaimed,
		withoutRC.peakResident, withoutRC.peakSpilled, withoutRC.spills)
}
