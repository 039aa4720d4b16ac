// Command parameter_server runs distributed data-parallel SGD with a sharded
// parameter server — the canonical stateful-actor workload from the paper
// (Sections 2 and 5.2.1). Model replica actors compute gradients on synthetic
// data in parallel; the gradients are pushed to parameter-server shard actors;
// the averaged update is pulled back and installed on every replica.
package main

import (
	"context"
	"fmt"
	"log"

	"ray/internal/sgd"
	"ray/ray"
)

func main() {
	ctx := context.Background()

	cfg := ray.DefaultConfig()
	cfg.Nodes = 4
	cfg.LabelNodes = true
	rt, err := ray.Init(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()
	if err := sgd.Register(rt); err != nil {
		log.Fatal(err)
	}
	driver, err := rt.NewDriver(ctx)
	if err != nil {
		log.Fatal(err)
	}

	trainer, err := sgd.New(driver.TaskContext, sgd.Config{
		Replicas:     4,
		LayerSizes:   []int{16, 64, 4},
		BatchSize:    64,
		LearningRate: 0.05,
		Strategy:     sgd.StrategyParameterServer,
		PSShards:     2,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("distributed synchronous SGD with a sharded parameter server...")
	for epoch := 0; epoch < 5; epoch++ {
		samplesPerSec, loss, err := trainer.Run(driver.TaskContext, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: loss=%.4f  throughput=%.0f samples/s\n", epoch, loss, samplesPerSec)
	}
	fmt.Printf("total samples processed: %d\n", trainer.SamplesProcessed())
}
