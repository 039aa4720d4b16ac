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

// skipUnderRace skips a throughput-ratio gate in a -race build: the detector's
// slowdown is not uniform across the two sides of a ratio, and each gate has a
// non-race CI job.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetector {
		t.Skip("a throughput ratio under the race detector measures the detector; the non-race CI job gates this")
	}
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

// TestMultiDriverFairShare is the acceptance check for the job subsystem:
// with 4 concurrent drivers (2 micro + paramserver + greedy flood) under
// fair-share scheduling, the minimum per-driver micro throughput must stay
// at or above 50% of the single-driver baseline, and the experiment itself
// validates that killing the greedy driver mid-run cancels its tasks, stops
// its actor, and releases its objects while the survivors keep producing
// correct results (MultiDriver fails on any cleanup or correctness
// violation). Retries absorb scheduler noise on loaded CI machines.
func TestMultiDriverFairShare(t *testing.T) {
	skipUnderRace(t)
	const attempts = 3
	var lastRatio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		table, err := MultiDriver(Quick)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.Rows) != 1 {
			t.Fatalf("expected one row, got %v", table.Rows)
		}
		fairRatio := parseCell(t, table.Rows[0][2])
		fairMin := parseCell(t, table.Rows[0][1])
		lastRatio = fairRatio
		if fairRatio >= 0.5 {
			t.Logf("fair-share min/solo = %.2f (min %.0f tasks/s)", fairRatio, fairMin)
			return
		}
		t.Logf("attempt %d: fair-share min/solo %.2f < 0.5, retrying", attempt, fairRatio)
	}
	t.Fatalf("fair share never held the 50%% per-driver floor (last ratio %.2f)", lastRatio)
}

// TestLargerThanMemoryBounded is the acceptance check for distributed memory
// management: a working set 3× the aggregate store capacity must run to
// completion, with ownership refcounting keeping resident bytes bounded and
// barely touching disk. It runs through memoryRun directly so the assertions
// see raw bytes, not formatted table cells.
func TestLargerThanMemoryBounded(t *testing.T) {
	const (
		nodes      = 4
		storeBytes = int64(256 << 10)
		objectSize = 32 << 10
		numObjects = 96 // 3 MiB working set vs 1 MiB aggregate capacity
	)
	aggregate := storeBytes * nodes

	res, err := memoryRun(nodes, storeBytes, objectSize, numObjects)
	if err != nil {
		t.Fatal(err)
	}
	// Refcounting must reclaim eagerly (every payload and every result) and
	// keep the resident set far below aggregate capacity.
	if res.reclaimed < int64(numObjects) {
		t.Errorf("reclaimed %d objects, want >= %d", res.reclaimed, numObjects)
	}
	if res.peakResident >= aggregate {
		t.Errorf("peak resident %d >= aggregate capacity %d", res.peakResident, aggregate)
	}
	t.Logf("peak resident %d B, spilled %d B, reclaimed %d", res.peakResident, res.peakSpilled, res.reclaimed)
}
