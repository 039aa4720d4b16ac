package collective

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ray/internal/nn"
	"ray/internal/types"
	"ray/ray"
)

func newRuntime(t *testing.T, nodes int) (*ray.Runtime, *ray.Driver) {
	t.Helper()
	cfg := ray.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CPUs = 4
	cfg.LabelNodes = true
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	if err := Register(rt); err != nil {
		t.Fatal(err)
	}
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rt, d
}

func TestRingAllreduceCorrectness(t *testing.T) {
	_, d := newRuntime(t, 4)
	const participants = 4
	const length = 37 // deliberately not divisible by the participant count

	ring, err := NewRing(d.TaskContext, RingConfig{Participants: participants, PinToNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Participants() != participants {
		t.Fatal("participant count wrong")
	}

	rng := rand.New(rand.NewSource(1))
	contributions := make([][]float64, participants)
	expected := make([]float64, length)
	for i := range contributions {
		contributions[i] = nn.RandomVector(length, 1, rng)
		for j, v := range contributions[i] {
			expected[j] += v
		}
	}
	if err := ring.Load(d.TaskContext, contributions); err != nil {
		t.Fatal(err)
	}
	elapsed, err := ring.Allreduce(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("allreduce must take measurable time")
	}
	// Every participant must hold the identical sum.
	for i := 0; i < participants; i++ {
		got, err := ring.Result(d.TaskContext, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != length {
			t.Fatalf("participant %d result length %d", i, len(got))
		}
		for j := range expected {
			if math.Abs(got[j]-expected[j]) > 1e-9 {
				t.Fatalf("participant %d element %d: %v != %v", i, j, got[j], expected[j])
			}
		}
	}
}

func TestRingLoadRandom(t *testing.T) {
	_, d := newRuntime(t, 2)
	ring, err := NewRing(d.TaskContext, RingConfig{Participants: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.LoadRandom(d.TaskContext, 100, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.Allreduce(d.TaskContext); err != nil {
		t.Fatal(err)
	}
	a, err := ring.Result(d.TaskContext, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ring.Result(d.TaskContext, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 100 || len(b) != 100 {
		t.Fatal("result lengths wrong")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("participants disagree after allreduce")
		}
	}
}

func TestRingErrors(t *testing.T) {
	_, d := newRuntime(t, 2)
	if _, err := NewRing(d.TaskContext, RingConfig{Participants: 1}); err == nil {
		t.Fatal("single-participant ring must be rejected")
	}
	ring, err := NewRing(d.TaskContext, RingConfig{Participants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ring.Load(d.TaskContext, [][]float64{{1}}); err == nil {
		t.Fatal("wrong contribution count must be rejected")
	}
}

func TestBroadcastSharesOneObject(t *testing.T) {
	_, d := newRuntime(t, 2)
	ref, err := Broadcast(d.TaskContext, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var v []float64
	if err := d.Get(ref, &v); err != nil || len(v) != 3 {
		t.Fatalf("broadcast readback: %v %v", v, err)
	}
}

func TestTreeReduce(t *testing.T) {
	_, d := newRuntime(t, 3)
	const leaves = 20
	const length = 5
	refs := make([]types.ObjectID, leaves)
	expected := make([]float64, length)
	for i := range refs {
		v := make([]float64, length)
		for j := range v {
			v[j] = float64(i + j)
			expected[j] += v[j]
		}
		ref, err := d.Put(v)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	root, err := TreeReduce(d.TaskContext, refs, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	if err := d.Get(root, &got); err != nil {
		t.Fatal(err)
	}
	for j := range expected {
		if math.Abs(got[j]-expected[j]) > 1e-9 {
			t.Fatalf("tree reduce element %d: %v != %v", j, got[j], expected[j])
		}
	}
	// A single input reduces to itself.
	single, err := TreeReduce(d.TaskContext, refs[:1], 8)
	if err != nil {
		t.Fatal(err)
	}
	var one []float64
	if err := d.Get(single, &one); err != nil || len(one) != length {
		t.Fatal("single-input tree reduce failed")
	}
	// Zero inputs are rejected; tiny fanin is clamped.
	if _, err := TreeReduce(d.TaskContext, nil, 2); err == nil {
		t.Fatal("empty tree reduce must fail")
	}
	if _, err := TreeReduce(d.TaskContext, refs[:3], 0); err != nil {
		t.Fatal("fanin clamp failed")
	}
}
