package ppo

import (
	"context"
	"math"
	"testing"

	"ray/internal/testutil/roundtrip"
	"ray/ray"
)

func newDriver(t *testing.T, nodes int, gpus float64) *ray.Driver {
	t.Helper()
	cfg := ray.DefaultConfig()
	cfg.Nodes = nodes
	cfg.CPUs = 4
	cfg.GPUs = gpus
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

func TestCenteredRanksAndRNG(t *testing.T) {
	w := centeredRanks([]float64{1, 3, 2})
	if w[0] != -0.5 || w[1] != 0.5 || w[2] != 0 {
		t.Fatalf("ranks wrong: %v", w)
	}
	if centeredRanks([]float64{7})[0] != 0 {
		t.Fatal("single element rank must be zero")
	}
	if newRNG(5).Int63() != newRNG(5).Int63() {
		t.Fatal("rng must be deterministic")
	}
}

func TestAsyncPPOCollectsStepBudget(t *testing.T) {
	d := newDriver(t, 2, 0)
	trainer, err := New(d.TaskContext, Config{
		Simulators:         4,
		StepsPerIteration:  600,
		SGDSteps:           4,
		MiniBatch:          8,
		Environment:        "cartpole",
		NoiseStd:           0.2,
		LearningRate:       0.1,
		MaxStepsPerRollout: 100,
		MaxIterations:      3,
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	// Each iteration collects at least the step budget.
	if res.TotalTimesteps < 3*600 {
		t.Fatalf("total timesteps %d below budget", res.TotalTimesteps)
	}
	if res.TotalRollouts == 0 || res.Elapsed <= 0 {
		t.Fatal("work accounting wrong")
	}
	if len(trainer.Parameters()) != 4 {
		t.Fatalf("cartpole linear policy should have 4 params, got %d", len(trainer.Parameters()))
	}
}

func TestPPOSolvesCartPole(t *testing.T) {
	d := newDriver(t, 2, 0)
	trainer, err := New(d.TaskContext, Config{
		Simulators:         4,
		StepsPerIteration:  800,
		SGDSteps:           5,
		MiniBatch:          16,
		Environment:        "cartpole",
		NoiseStd:           0.2,
		LearningRate:       0.5,
		MaxStepsPerRollout: 200,
		TargetScore:        60,
		MaxIterations:      40,
		Seed:               2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("PPO failed to reach target: best %v after %d iterations", res.BestMeanReturn, res.Iterations)
	}
}

func TestSynchronousBaselineMatchesStructure(t *testing.T) {
	d := newDriver(t, 2, 0)
	trainer, err := New(d.TaskContext, Config{
		Simulators:         3,
		StepsPerIteration:  300,
		Environment:        "humanoid-like",
		MaxStepsPerRollout: 50,
		MaxIterations:      2,
		Synchronous:        true,
		Seed:               3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 || res.TotalTimesteps < 2*300 {
		t.Fatalf("synchronous run accounting wrong: %+v", res)
	}
	// Synchronous waves launch one rollout per simulator, so rollout counts
	// are multiples of the simulator count.
	if res.TotalRollouts%3 != 0 {
		t.Fatalf("synchronous rollouts must come in full waves, got %d", res.TotalRollouts)
	}
}

func TestGPUAnnotatedUpdate(t *testing.T) {
	d := newDriver(t, 2, 1)
	trainer, err := New(d.TaskContext, Config{
		Simulators:         2,
		StepsPerIteration:  200,
		Environment:        "cartpole",
		MaxStepsPerRollout: 50,
		MaxIterations:      1,
		UpdateGPUs:         1,
		Seed:               4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Run(d.TaskContext); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	d := newDriver(t, 1, 0)
	if _, err := New(d.TaskContext, Config{Simulators: 0}); err == nil {
		t.Fatal("zero simulators must be rejected")
	}
	if _, err := New(d.TaskContext, Config{Simulators: 1, Environment: "nope"}); err == nil {
		t.Fatal("unknown environment must be rejected")
	}
	tr, err := New(d.TaskContext, Config{Simulators: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.cfg.StepsPerIteration <= 0 || tr.cfg.SGDSteps <= 0 || tr.cfg.Environment == "" {
		t.Fatalf("defaults not applied: %+v", tr.cfg)
	}
	if math.IsNaN(tr.Parameters().Mean()) {
		t.Fatal("initial parameters must be finite")
	}
}

// rolloutResult travels as a record, and every field survives the trip.
func TestRolloutResultIsARecord(t *testing.T) { roundtrip.CheckRecord[rolloutResult](t) }
