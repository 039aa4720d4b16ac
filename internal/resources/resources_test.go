package resources

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestRequestBasics(t *testing.T) {
	r := NewRequest(map[string]float64{CPU: 2, GPU: 0.5, "TPU": 0})
	if r.Get(CPU) != 2 || r.Get(GPU) != 0.5 {
		t.Fatalf("unexpected quantities: %v", r)
	}
	if r.Get("TPU") != 0 {
		t.Fatal("zero-valued entries must be dropped")
	}
	if r.Empty() {
		t.Fatal("request should not be empty")
	}
	if NewRequest(nil).String() != "{}" {
		t.Fatal("empty request string")
	}
	if r.String() == "" {
		t.Fatal("string form empty")
	}
	var names []string
	for name := range r.All() {
		names = append(names, name)
	}
	if r.Len() != 2 || !slices.Equal(names, []string{CPU, GPU}) {
		t.Fatalf("unexpected names %v", names)
	}
}

func TestRequestAdd(t *testing.T) {
	a := CPUs(1)
	b := GPUs(2)
	c := a.Add(b)
	if c.Get(CPU) != 2 || c.Get(GPU) != 2 {
		t.Fatalf("add wrong: %v", c)
	}
	// Add must not mutate operands.
	if a.Get(CPU) != 1 || b.Get(CPU) != 1 {
		t.Fatal("Add mutated an operand")
	}
	// Whatever order demands arrive in, a request walks them by name.
	d := NewRequest(map[string]float64{"zeta": 1}).Add(NewRequest(map[string]float64{"alpha": 2, GPU: 1})).Add(b)
	var walked []string
	for name, q := range d.All() {
		walked = append(walked, fmt.Sprintf("%s=%g", name, q))
	}
	if want := []string{"CPU=1", "GPU=3", "alpha=2", "zeta=1"}; !slices.Equal(walked, want) || d.Len() != len(want) {
		t.Fatalf("All() walked %v (Len %d), want %v", walked, d.Len(), want)
	}
	if n := testing.AllocsPerRun(100, func() {
		for range d.All() {
		}
	}); n != 0 {
		t.Fatalf("walking a request allocates %v times", n)
	}
}

func TestPoolAcquireRelease(t *testing.T) {
	p := NewNodePool(4, 2, 1024)
	if p.Total(CPU) != 4 || p.Total(GPU) != 2 || p.Total(Memory) != 1024 {
		t.Fatalf("totals wrong: %v", p)
	}
	req := NewRequest(map[string]float64{CPU: 2, GPU: 1})
	if !p.Fits(req) || !p.Acquire(req) {
		t.Fatal("request should fit")
	}
	if p.Available(CPU) != 2 || p.Available(GPU) != 1 {
		t.Fatalf("availability wrong after acquire: %v", p)
	}
	if p.Utilization(CPU) != 0.5 {
		t.Fatalf("utilization wrong: %v", p.Utilization(CPU))
	}
	big := NewRequest(map[string]float64{GPU: 2})
	if p.Acquire(big) {
		t.Fatal("over-acquire must fail")
	}
	if p.Available(GPU) != 1 {
		t.Fatal("failed acquire must not change availability")
	}
	p.Release(req)
	if p.Available(CPU) != 4 || p.Available(GPU) != 2 {
		t.Fatalf("release wrong: %v", p)
	}
}

func TestPoolCanEverFit(t *testing.T) {
	p := NewNodePool(4, 0, 0)
	if p.CanEverFit(GPUs(1)) {
		t.Fatal("CPU-only node cannot ever fit a GPU request")
	}
	if !p.CanEverFit(CPUs(4)) {
		t.Fatal("full-capacity request must be feasible")
	}
	if p.CanEverFit(CPUs(5)) {
		t.Fatal("over-capacity request must be infeasible")
	}
}

func TestReleaseBeyondCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	p := NewNodePool(1, 0, 0)
	p.Release(CPUs(1))
}

func TestFractionalRequests(t *testing.T) {
	p := NewNodePool(1, 1, 0)
	half := NewRequest(map[string]float64{GPU: 0.5})
	if !p.Acquire(half) || !p.Acquire(half) {
		t.Fatal("two half-GPU requests must fit on one GPU")
	}
	if p.Acquire(half) {
		t.Fatal("third half-GPU request must not fit")
	}
	if p.Available(GPU) != 0 {
		t.Fatalf("expected 0 GPUs available, got %v", p.Available(GPU))
	}
	p.Release(half)
	p.Release(half)
	if p.Available(GPU) != 1 {
		t.Fatal("fractional release must restore exactly one GPU (no float drift)")
	}
}

// Property: for any sequence of acquire/release pairs, availability returns to
// the original value and never exceeds total or goes negative.
func TestPoolAcquireReleaseProperty(t *testing.T) {
	f := func(cpus uint8, reqs []uint8) bool {
		capacity := float64(cpus%32) + 1
		p := NewNodePool(capacity, 0, 0)
		acquired := make([]Request, 0, len(reqs))
		for _, rq := range reqs {
			r := CPUs(float64(rq%8) + 0.5)
			if p.Acquire(r) {
				acquired = append(acquired, r)
			}
			if p.Available(CPU) < -1e-9 || p.Available(CPU) > capacity+1e-9 {
				return false
			}
		}
		for _, r := range acquired {
			p.Release(r)
		}
		return p.Available(CPU) == capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitsSnapshot(t *testing.T) {
	snap := map[string]float64{CPU: 2, GPU: 1}
	if !FitsSnapshot(snap, CPUs(2)) {
		t.Fatal("2 CPUs should fit snapshot")
	}
	if FitsSnapshot(snap, CPUs(3)) {
		t.Fatal("3 CPUs should not fit snapshot")
	}
	if FitsSnapshot(snap, NewRequest(map[string]float64{"TPU": 1})) {
		t.Fatal("unknown resource should not fit")
	}
	if !FitsSnapshot(snap, NewRequest(nil)) {
		t.Fatal("empty request always fits")
	}
}

func TestSnapshots(t *testing.T) {
	p := NewNodePool(8, 1, 0)
	p.Acquire(CPUs(3))
	snap := p.Snapshot()
	if snap[CPU] != 5 || snap[GPU] != 1 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
	tot := p.TotalSnapshot()
	if tot[CPU] != 8 || tot[GPU] != 1 {
		t.Fatalf("total snapshot wrong: %v", tot)
	}
	if p.String() == "" {
		t.Fatal("pool string empty")
	}
	if p.Utilization("TPU") != 0 {
		t.Fatal("unknown resource utilization must be 0")
	}
}
