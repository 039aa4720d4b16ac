package es

import (
	"context"
	"math"
	"testing"

	"ray/internal/testutil/roundtrip"
	"ray/ray"
)

func newDriver(t *testing.T, nodes int) *ray.Driver {
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
	return d
}

func TestCenteredRanks(t *testing.T) {
	w := centeredRanks([]float64{10, 30, 20})
	if w[0] != -0.5 || w[1] != 0.5 || w[2] != 0 {
		t.Fatalf("ranks wrong: %v", w)
	}
	if len(centeredRanks([]float64{5})) != 1 || centeredRanks([]float64{5})[0] != 0 {
		t.Fatal("single-element ranks must be zero")
	}
}

func TestNoiseDeterminism(t *testing.T) {
	a := noiseVector(16, 42, 0.1)
	b := noiseVector(16, 42, 0.1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("noise must be deterministic per seed")
		}
	}
	c := noiseVector(16, 43, 0.1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
	// weightedNoiseSum is the weighted sum of per-seed noise.
	sum := weightedNoiseSum(16, []int64{42, 43}, []float64{1, -1}, 0.1)
	for i := range sum {
		if math.Abs(sum[i]-(a[i]-c[i])) > 1e-12 {
			t.Fatal("weighted noise sum wrong")
		}
	}
}

func TestRayESImprovesPendulum(t *testing.T) {
	d := newDriver(t, 2)
	trainer, err := NewRay(d.TaskContext, Config{
		Workers:              4,
		RolloutsPerIteration: 24,
		Environment:          "pendulum",
		NoiseStd:             0.1,
		LearningRate:         0.05,
		MaxStepsPerRollout:   60,
		MaxIterations:        6,
		Seed:                 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 || res.TotalRollouts != 6*24 {
		t.Fatalf("iteration accounting wrong: %+v", res)
	}
	if res.TotalTimesteps <= 0 || res.Elapsed <= 0 {
		t.Fatal("work accounting wrong")
	}
	if len(trainer.Parameters()) != 3 {
		t.Fatalf("pendulum linear policy should have 3 params, got %d", len(trainer.Parameters()))
	}
}

func TestRayESSolvesCartPole(t *testing.T) {
	d := newDriver(t, 2)
	trainer, err := NewRay(d.TaskContext, Config{
		Workers:              4,
		RolloutsPerIteration: 24,
		Environment:          "cartpole",
		NoiseStd:             0.2,
		LearningRate:         0.1,
		MaxStepsPerRollout:   200,
		TargetScore:          60, // a zero policy survives ~10-20 steps
		MaxIterations:        40,
		Seed:                 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("ES failed to reach the target score: best %v after %d iterations", res.BestMeanReturn, res.Iterations)
	}
	if res.Elapsed <= 0 || res.TotalTimesteps == 0 {
		t.Fatal("work accounting wrong")
	}
}

func TestReferenceESMatchesButSlower(t *testing.T) {
	d := newDriver(t, 2)
	cfg := Config{
		Workers:              2,
		RolloutsPerIteration: 8,
		Environment:          "pendulum",
		NoiseStd:             0.1,
		LearningRate:         0.05,
		MaxStepsPerRollout:   40,
		MaxIterations:        2,
		Seed:                 3,
	}
	ray, err := NewRay(d.TaskContext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(d.TaskContext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rayRes, err := ray.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if rayRes.Iterations != refRes.Iterations {
		t.Fatal("both implementations should complete the same iterations")
	}
	// Both follow the same algorithm and seeds, so the learned parameters
	// should be identical (the aggregation strategies compute the same sum).
	pa, pb := ray.Parameters(), ref.Parameters()
	for i := range pa {
		if math.Abs(pa[i]-pb[i]) > 1e-9 {
			t.Fatalf("implementations diverged at parameter %d: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	d := newDriver(t, 1)
	if _, err := NewRay(d.TaskContext, Config{Workers: 0}); err == nil {
		t.Fatal("zero workers must be rejected")
	}
	if _, err := NewRay(d.TaskContext, Config{Workers: 1, Environment: "nope"}); err == nil {
		t.Fatal("unknown environment must be rejected")
	}
	// Defaults applied.
	tr, err := NewRay(d.TaskContext, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.cfg.Environment != "humanoid-like" || tr.cfg.NoiseStd <= 0 || tr.cfg.MaxIterations <= 0 {
		t.Fatalf("defaults not applied: %+v", tr.cfg)
	}
}

// batchResult travels as a record, and every field survives the trip.
func TestBatchResultIsARecord(t *testing.T) { roundtrip.CheckRecord[batchResult](t) }
