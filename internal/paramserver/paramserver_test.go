package paramserver

import (
	"context"
	"math"
	"testing"

	"ray/ray"
)

func newDriver(t *testing.T) *ray.Driver {
	t.Helper()
	cfg := ray.DefaultConfig()
	cfg.Nodes = 3
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
	return d
}

func TestShardedPushApplyFetch(t *testing.T) {
	d := newDriver(t)
	initial := []float64{1, 2, 3, 4, 5, 6, 7} // deliberately not divisible by shard count
	ps, err := New(d.TaskContext, Config{Shards: 3, LearningRate: 0.5}, initial)
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumShards() != 3 || ps.Dim() != 7 {
		t.Fatalf("server shape wrong: %d %d", ps.NumShards(), ps.Dim())
	}
	// Two replicas push gradients of all ones and all threes; the averaged
	// gradient is 2, so with lr=0.5 every weight decreases by 1.
	ones := make([]float64, 7)
	threes := make([]float64, 7)
	for i := range ones {
		ones[i], threes[i] = 1, 3
	}
	acks1, err := ps.PushGradient(d.TaskContext, ones)
	if err != nil {
		t.Fatal(err)
	}
	acks2, err := ps.PushGradient(d.TaskContext, threes)
	if err != nil {
		t.Fatal(err)
	}
	for _, ack := range append(acks1, acks2...) {
		var ok bool
		if err := d.Get(ack, &ok); err != nil {
			t.Fatal(err)
		}
	}
	// SumGradients reads the accumulator without applying it: 1 + 3 = 4 per
	// dimension across both pushes.
	sums, err := ps.SumGradients(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 7 {
		t.Fatalf("gradient sum length = %d, want 7", len(sums))
	}
	for i, s := range sums {
		if s != 4 {
			t.Fatalf("gradient sum %d = %v, want 4", i, s)
		}
	}
	updated, err := ps.ApplyAndFetch(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	for i := range initial {
		if math.Abs(updated[i]-(initial[i]-1)) > 1e-9 {
			t.Fatalf("weight %d = %v, want %v", i, updated[i], initial[i]-1)
		}
	}
	// The accumulator reset: applying again without pushes changes nothing.
	again, err := ps.ApplyAndFetch(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	for i := range updated {
		if updated[i] != again[i] {
			t.Fatal("apply without pushes must be a no-op")
		}
	}
	// Weights() agrees with the last apply.
	w, err := ps.Weights(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if w[i] != again[i] {
			t.Fatal("Weights disagrees with ApplyAndFetch")
		}
	}
}

func TestSetWeightsAndSplit(t *testing.T) {
	d := newDriver(t)
	ps, err := New(d.TaskContext, Config{Shards: 2, LearningRate: 0.1}, make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]float64, 10)
	for i := range fresh {
		fresh[i] = float64(i)
	}
	if err := ps.SetWeights(d.TaskContext, fresh); err != nil {
		t.Fatal(err)
	}
	got, err := ps.Weights(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if got[i] != fresh[i] {
			t.Fatalf("weight %d = %v", i, got[i])
		}
	}
	chunks, err := ps.Split(fresh)
	if err != nil || len(chunks) != 2 || len(chunks[0])+len(chunks[1]) != 10 {
		t.Fatalf("split wrong: %v %v", chunks, err)
	}
	if _, err := ps.Split(make([]float64, 3)); err == nil {
		t.Fatal("split of wrong-length vector must fail")
	}
	if err := ps.SetWeights(d.TaskContext, make([]float64, 3)); err == nil {
		t.Fatal("set weights of wrong length must fail")
	}
	if _, err := ps.PushGradient(d.TaskContext, make([]float64, 3)); err == nil {
		t.Fatal("push of wrong-length gradient must fail")
	}
}

func TestConfigValidation(t *testing.T) {
	d := newDriver(t)
	if _, err := New(d.TaskContext, Config{Shards: 2}, nil); err == nil {
		t.Fatal("empty initial parameters must be rejected")
	}
	// Shards clamp to 1 and pinning works.
	ps, err := New(d.TaskContext, Config{Shards: 0, LearningRate: 0.1, PinToNodes: true}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumShards() != 1 {
		t.Fatal("shards must clamp to 1")
	}
}
