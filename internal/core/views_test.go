package core_test

import (
	"context"
	"runtime"
	"testing"

	"ray/ray"
)

// The copy ledger of one cross-node hop, counted in allocated bytes: a 1 MiB
// []byte produced on node 1 and consumed on node 2 costs the producer's own
// buffer, its encoding (the one copy the paper's Figure 9 models: the store
// adopts that buffer) and the wire copy into node 2's store (the consumer
// borrows that buffer) — three payloads per op plus the tasks' small change.
// Before the store adopted and tasks borrowed it was five: copyPayload on the
// way in and the argument decode on the way out.
func TestCrossNodeHopAllocatesThreePayloads(t *testing.T) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 3
	cfg.LabelNodes = true
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	produce, err := ray.Register0(rt, "produce", "returns 1 MiB",
		func(*ray.Context) ([]byte, error) { return make([]byte, size), nil })
	if err != nil {
		t.Fatal(err)
	}
	consume, err := ray.Register1(rt, "consume", "measures its argument",
		func(_ *ray.Context, b []byte) (int, error) { return len(b), nil })
	if err != nil {
		t.Fatal(err)
	}
	hop := func() {
		made, err := produce.Remote(d, ray.OnNode(1))
		if err != nil {
			t.Fatal(err)
		}
		seen, err := consume.RemoteRef(d, made, ray.OnNode(2))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ray.Get(d, seen); err != nil || n != size {
			t.Fatalf("consume = %d, %v; want %d", n, err, size)
		}
		ray.Free(d, made)
		ray.Free(d, seen)
	}
	hop() // lazy set-up is not part of the ledger

	const ops = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	if copies := perOp / size; copies > 3.3 {
		t.Fatalf("one hop of a %d-byte payload allocated %.0f bytes: %.2f payloads, want <= 3.3", size, perOp, copies)
	} else {
		t.Logf("%.2f payloads allocated per hop", copies)
	}
}
