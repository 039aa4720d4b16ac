// Command rl_training reproduces the paper's motivating workload (Figure 2):
// a reinforcement-learning training loop that tightly couples simulation
// (rollouts on worker actors), training (policy updates), and serving (the
// updated policy is immediately used for the next round of rollouts). It
// trains a linear policy on the CartPole task with Evolution Strategies and
// prints the learning curve.
package main

import (
	"context"
	"fmt"
	"log"

	"ray/internal/rl/es"
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
	if err := es.Register(rt); err != nil {
		log.Fatal(err)
	}
	driver, err := rt.NewDriver(ctx)
	if err != nil {
		log.Fatal(err)
	}

	trainer, err := es.NewRay(driver.TaskContext, es.Config{
		Workers:              8,
		RolloutsPerIteration: 48,
		Environment:          "cartpole",
		NoiseStd:             0.2,
		LearningRate:         0.1,
		MaxStepsPerRollout:   200,
		TargetScore:          150,
		MaxIterations:        60,
		AggregationFanin:     4,
		Seed:                 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training a CartPole policy with Evolution Strategies on Ray...")
	result, err := trainer.Run(driver.TaskContext)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved=%v  iterations=%d  best mean return=%.1f\n",
		result.Solved, result.Iterations, result.BestMeanReturn)
	fmt.Printf("simulation work: %d rollouts, %d timesteps, wall clock %v\n",
		result.TotalRollouts, result.TotalTimesteps, result.Elapsed.Round(1e6))

	stats := rt.Cluster().Stats()
	fmt.Printf("cluster: %d tasks forwarded to the global scheduler, %d actor-method routes\n",
		stats.Forwards, stats.ActorRoutes)
}
