package sgd

import (
	"context"
	"testing"

	"ray/ray"
)

func newDriver(t *testing.T, nodes int, gpusPerNode float64) *ray.Driver {
	t.Helper()
	cfg := ray.DefaultConfig()
	cfg.Nodes = nodes
	cfg.GPUs = gpusPerNode
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

func trainAndCheck(t *testing.T, d *ray.Driver, cfg Config, iterations int) {
	t.Helper()
	trainer, err := New(d.TaskContext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trainer.Replicas()) != cfg.Replicas {
		t.Fatal("replica count wrong")
	}
	firstLoss, err := trainer.Step(d.TaskContext)
	if err != nil {
		t.Fatal(err)
	}
	samplesPerSec, finalLoss, err := trainer.Run(d.TaskContext, iterations)
	if err != nil {
		t.Fatal(err)
	}
	if samplesPerSec <= 0 {
		t.Fatal("throughput must be positive")
	}
	if finalLoss >= firstLoss {
		t.Fatalf("training did not reduce loss: first %v final %v", firstLoss, finalLoss)
	}
	wantSamples := cfg.BatchSize * cfg.Replicas * (iterations + 1)
	if trainer.SamplesProcessed() != wantSamples {
		t.Fatalf("samples processed %d, want %d", trainer.SamplesProcessed(), wantSamples)
	}
}

func TestParameterServerStrategyConverges(t *testing.T) {
	d := newDriver(t, 3, 0)
	trainAndCheck(t, d, Config{
		Replicas:     3,
		LayerSizes:   []int{4, 16, 1},
		BatchSize:    16,
		LearningRate: 0.05,
		Strategy:     StrategyParameterServer,
		PSShards:     2,
		Seed:         1,
	}, 25)
}

func TestAllreduceStrategyConverges(t *testing.T) {
	d := newDriver(t, 3, 0)
	trainAndCheck(t, d, Config{
		Replicas:     4,
		LayerSizes:   []int{4, 16, 1},
		BatchSize:    16,
		LearningRate: 0.05,
		Strategy:     StrategyAllreduce,
		Seed:         2,
	}, 25)
}

func TestCentralizedPSStrategy(t *testing.T) {
	d := newDriver(t, 2, 0)
	trainAndCheck(t, d, Config{
		Replicas:     2,
		LayerSizes:   []int{4, 8, 1},
		BatchSize:    8,
		LearningRate: 0.05,
		Strategy:     StrategyCentralizedPS,
		Seed:         3,
	}, 15)
}

func TestGPUReplicasPlacedOnGPUNodes(t *testing.T) {
	d := newDriver(t, 2, 4)
	trainer, err := New(d.TaskContext, Config{
		Replicas:       2,
		LayerSizes:     []int{4, 8, 1},
		BatchSize:      8,
		LearningRate:   0.05,
		Strategy:       StrategyAllreduce,
		GPUsPerReplica: 4,
		Seed:           4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Step(d.TaskContext); err != nil {
		t.Fatal(err)
	}
	// Each node has 4 GPUs and each replica reserves 4, so the two replicas
	// must be on different nodes.
	cl := d.Runtime().Cluster()
	hosting := 0
	for _, n := range cl.AliveNodes() {
		if n.Workers().Stats().ActorsHosted > 0 {
			hosting++
		}
	}
	if hosting < 2 {
		t.Fatalf("GPU replicas should spread across nodes, found actors on %d nodes", hosting)
	}
}

func TestConfigValidation(t *testing.T) {
	d := newDriver(t, 1, 0)
	if _, err := New(d.TaskContext, Config{Replicas: 0, LayerSizes: []int{2, 1}}); err == nil {
		t.Fatal("zero replicas must be rejected")
	}
	if _, err := New(d.TaskContext, Config{Replicas: 1, LayerSizes: []int{2}}); err == nil {
		t.Fatal("single layer must be rejected")
	}
	if _, err := New(d.TaskContext, Config{Replicas: 1, LayerSizes: []int{2, 1}, Strategy: "bogus"}); err == nil {
		t.Fatal("unknown strategy must be rejected")
	}
	// Defaults are applied.
	trainer, err := New(d.TaskContext, Config{Replicas: 1, LayerSizes: []int{2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if trainer.cfg.BatchSize <= 0 || trainer.cfg.LearningRate <= 0 || trainer.cfg.Strategy != StrategyParameterServer {
		t.Fatalf("defaults not applied: %+v", trainer.cfg)
	}
}
