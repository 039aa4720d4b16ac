// Package sgd implements distributed data-parallel synchronous SGD on top of
// the Ray API, reproducing the structure of the paper's Figure 13 experiment:
// model replica actors compute gradients in parallel on synthetic data, the
// gradients are combined either through a sharded parameter server or through
// a collective reduction, and every replica installs the updated weights
// before the next iteration.
package sgd

import (
	"fmt"
	"math/rand"
	"time"

	"ray/internal/cluster"
	"ray/internal/codec"
	"ray/internal/collective"
	"ray/internal/nn"
	"ray/internal/paramserver"
	"ray/internal/resources"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// replicaActorName is the registered actor class for model replicas.
const replicaActorName = "sgd.Replica"

// Register publishes the model-replica actor class (and the primitives it
// depends on) with the runtime. Replica methods live on the class's
// registration-time method table.
func Register(rt *ray.Runtime) error {
	if err := paramserver.Register(rt); err != nil {
		return err
	}
	if err := collective.Register(rt); err != nil {
		return err
	}
	if err := rt.RegisterActorClass(replicaActorName, "data-parallel SGD model replica", newReplica); err != nil {
		return err
	}
	for _, m := range []struct {
		name       string
		numArgs    int
		numReturns int
		impl       worker.ActorMethodImpl
	}{
		{"weights", 0, 1, replicaMethod(replicaWeights)},
		{"set_weights", 1, 1, replicaMethod(replicaSetWeights)},
		{"gradient", 1, 2, replicaMethod(replicaGradient)},
		{"loss", 1, 1, replicaMethod(replicaLoss)},
	} {
		if err := rt.RegisterActorMethod(replicaActorName, m.name, m.numArgs, m.numReturns, m.impl); err != nil {
			return err
		}
	}
	return nil
}

// replica is one model replica: a small MLP plus a deterministic synthetic
// data generator (the paper's experiment likewise uses a synthetic data
// generator to factor data loading out of the measurement).
type replica struct {
	model *nn.MLP
	rng   *rand.Rand
}

func newReplica(ctx *worker.TaskContext, args [][]byte) (any, error) {
	var sizes []int
	if err := codec.Decode(args[0], &sizes); err != nil {
		return nil, err
	}
	var seed int64
	if err := codec.Decode(args[1], &seed); err != nil {
		return nil, err
	}
	return &replica{
		model: nn.NewMLP(sizes, rand.New(rand.NewSource(seed))),
		rng:   rand.New(rand.NewSource(seed + 1)),
	}, nil
}

// replicaMethod adapts a typed replica method into a method-table entry.
func replicaMethod(impl func(r *replica, args [][]byte) ([][]byte, error)) worker.ActorMethodImpl {
	return func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
		r, ok := state.(*replica)
		if !ok {
			return nil, fmt.Errorf("sgd: replica instance is %T", state)
		}
		return impl(r, args)
	}
}

// replicaWeights returns the replica's flat parameters.
func replicaWeights(r *replica, args [][]byte) ([][]byte, error) {
	return [][]byte{codec.MustEncode([]float64(r.model.Parameters()))}, nil
}

// replicaSetWeights installs new parameters.
func replicaSetWeights(r *replica, args [][]byte) ([][]byte, error) {
	var w []float64
	if err := codec.Decode(args[0], &w); err != nil {
		return nil, err
	}
	r.model.SetParameters(w)
	return [][]byte{codec.MustEncode(true)}, nil
}

// replicaGradient computes loss and gradient on one synthetic batch and
// returns (gradient, loss) as two objects.
func replicaGradient(r *replica, args [][]byte) ([][]byte, error) {
	var batch int
	if err := codec.Decode(args[0], &batch); err != nil {
		return nil, err
	}
	inputs, targets := r.syntheticBatch(batch)
	loss, grad := r.model.Gradient(inputs, targets)
	return [][]byte{codec.MustEncode([]float64(grad)), codec.MustEncode(loss)}, nil
}

// replicaLoss evaluates the loss on one synthetic batch.
func replicaLoss(r *replica, args [][]byte) ([][]byte, error) {
	var batch int
	if err := codec.Decode(args[0], &batch); err != nil {
		return nil, err
	}
	inputs, targets := r.syntheticBatch(batch)
	return [][]byte{codec.MustEncode(r.model.Loss(inputs, targets))}, nil
}

// syntheticBatch generates a regression batch whose target is a fixed linear
// function of the input, so the distributed optimization has a true optimum
// the tests can verify convergence toward.
func (r *replica) syntheticBatch(n int) (inputs, targets []nn.Vector) {
	inSize := r.model.Sizes[0]
	outSize := r.model.Sizes[len(r.model.Sizes)-1]
	for i := 0; i < n; i++ {
		in := nn.RandomVector(inSize, 1, r.rng)
		out := nn.NewVector(outSize)
		for j := 0; j < outSize; j++ {
			// Target: alternating-sign prefix sums of the input.
			var sum float64
			for k, x := range in {
				if (k+j)%2 == 0 {
					sum += x
				} else {
					sum -= x
				}
			}
			out[j] = sum * 0.5
		}
		inputs = append(inputs, in)
		targets = append(targets, out)
	}
	return inputs, targets
}

// Strategy selects how gradients are combined across replicas.
type Strategy string

// Gradient-combination strategies compared in the Figure 13 experiment.
const (
	// StrategyParameterServer pushes gradients to a sharded parameter server
	// (the paper's Ray implementation).
	StrategyParameterServer Strategy = "parameter-server"
	// StrategyCentralizedPS uses a single-shard parameter server, the
	// bottlenecked topology of classic distributed-TensorFlow-style setups.
	StrategyCentralizedPS Strategy = "centralized-ps"
	// StrategyAllreduce combines gradients with a tree reduction and
	// broadcasts the update, the Horovod-like topology.
	StrategyAllreduce Strategy = "allreduce"
)

// Config describes a distributed training job.
type Config struct {
	// Replicas is the number of model replica actors.
	Replicas int
	// LayerSizes are the MLP layer widths (input first).
	LayerSizes []int
	// BatchSize is the per-replica batch size per iteration.
	BatchSize int
	// LearningRate is the SGD step size.
	LearningRate float64
	// Strategy picks the gradient-combination topology.
	Strategy Strategy
	// PSShards is the shard count for StrategyParameterServer.
	PSShards int
	// GPUsPerReplica reserves GPUs for each replica actor (heterogeneity-
	// aware scheduling: replicas land on GPU nodes, everything else doesn't).
	GPUsPerReplica float64
	// PinToNodes places replica i on node i via node labels.
	PinToNodes bool
	// Seed controls model initialization and data generation.
	Seed int64
}

// Trainer drives synchronous data-parallel SGD.
type Trainer struct {
	cfg      Config
	replicas []*worker.ActorHandle
	ps       *paramserver.Server
	weights  []float64
	opt      *nn.SGD
	samples  int
}

// New creates the replicas (and parameter server, if the strategy needs one).
func New(ctx *worker.TaskContext, cfg Config) (*Trainer, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("sgd: need at least one replica")
	}
	if len(cfg.LayerSizes) < 2 {
		return nil, fmt.Errorf("sgd: need at least input and output layer sizes")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.Strategy == "" {
		cfg.Strategy = StrategyParameterServer
	}
	t := &Trainer{cfg: cfg, opt: nn.NewSGD(cfg.LearningRate, 0)}

	// Create replicas. Every replica starts from the same seed so initial
	// weights agree (synchronous SGD requires identical starting points).
	for i := 0; i < cfg.Replicas; i++ {
		reqs := map[string]float64{}
		if cfg.GPUsPerReplica > 0 {
			reqs["GPU"] = cfg.GPUsPerReplica
		}
		if cfg.PinToNodes {
			reqs[cluster.NodeLabel(i)] = 1
		}
		opts := worker.CallOptions{}
		if len(reqs) > 0 {
			opts.Resources = resources.NewRequest(reqs)
		}
		h, err := ctx.CreateActor(replicaActorName, opts, cfg.LayerSizes, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, h)
	}

	// Read the initial weights from replica 0.
	wRef, err := ctx.CallActor1(t.replicas[0], "weights", worker.CallOptions{})
	if err != nil {
		return nil, err
	}
	if err := ctx.Get(wRef, &t.weights); err != nil {
		return nil, err
	}

	switch cfg.Strategy {
	case StrategyParameterServer:
		shards := cfg.PSShards
		if shards < 1 {
			shards = 2
		}
		t.ps, err = paramserver.New(ctx, paramserver.Config{Shards: shards, LearningRate: cfg.LearningRate}, t.weights)
	case StrategyCentralizedPS:
		t.ps, err = paramserver.New(ctx, paramserver.Config{Shards: 1, LearningRate: cfg.LearningRate}, t.weights)
	case StrategyAllreduce:
		// No parameter server: gradients are tree-reduced and the driver
		// applies the update.
	default:
		return nil, fmt.Errorf("sgd: unknown strategy %q", cfg.Strategy)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Step runs one synchronous iteration and returns the mean replica loss.
func (t *Trainer) Step(ctx *worker.TaskContext) (float64, error) {
	// 1. Every replica computes a gradient on its own batch, in parallel.
	gradRefs := make([]types.ObjectID, len(t.replicas))
	lossRefs := make([]types.ObjectID, len(t.replicas))
	for i, h := range t.replicas {
		refs, err := ctx.CallActor(h, "gradient", worker.CallOptions{NumReturns: 2}, t.cfg.BatchSize)
		if err != nil {
			return 0, err
		}
		gradRefs[i], lossRefs[i] = refs[0], refs[1]
	}

	// 2. Combine gradients and compute the new weights.
	var newWeights []float64
	switch t.cfg.Strategy {
	case StrategyParameterServer, StrategyCentralizedPS:
		// Push every replica's gradient (futures pipeline the pushes), then
		// apply on the shards and fetch the updated weights.
		var acks []types.ObjectID
		for _, gref := range gradRefs {
			var grad []float64
			if err := ctx.Get(gref, &grad); err != nil {
				return 0, err
			}
			a, err := t.ps.PushGradient(ctx, grad)
			if err != nil {
				return 0, err
			}
			acks = append(acks, a...)
		}
		for _, a := range acks {
			var ok bool
			if err := ctx.Get(a, &ok); err != nil {
				return 0, err
			}
		}
		w, err := t.ps.ApplyAndFetch(ctx)
		if err != nil {
			return 0, err
		}
		newWeights = w
	case StrategyAllreduce:
		sumRef, err := collective.TreeReduce(ctx, gradRefs, 4)
		if err != nil {
			return 0, err
		}
		var sum []float64
		if err := ctx.Get(sumRef, &sum); err != nil {
			return 0, err
		}
		avg := nn.Vector(sum).Scale(1 / float64(len(t.replicas)))
		t.weights = t.opt.Step(nn.Vector(t.weights), avg)
		newWeights = t.weights
	}

	// 3. Broadcast the new weights to every replica.
	wRef, err := collective.Broadcast(ctx, newWeights)
	if err != nil {
		return 0, err
	}
	setAcks := make([]types.ObjectID, len(t.replicas))
	for i, h := range t.replicas {
		ack, err := ctx.CallActor1(h, "set_weights", worker.CallOptions{}, wRef)
		if err != nil {
			return 0, err
		}
		setAcks[i] = ack
	}
	var meanLoss float64
	for _, lref := range lossRefs {
		var loss float64
		if err := ctx.Get(lref, &loss); err != nil {
			return 0, err
		}
		meanLoss += loss
	}
	for _, ack := range setAcks {
		var ok bool
		if err := ctx.Get(ack, &ok); err != nil {
			return 0, err
		}
	}
	t.weights = newWeights
	t.samples += t.cfg.BatchSize * len(t.replicas)
	return meanLoss / float64(len(t.replicas)), nil
}

// Run executes iterations synchronous steps and returns the aggregate
// throughput in samples (images) per second and the final mean loss.
func (t *Trainer) Run(ctx *worker.TaskContext, iterations int) (samplesPerSec, finalLoss float64, err error) {
	start := time.Now()
	before := t.samples
	for i := 0; i < iterations; i++ {
		finalLoss, err = t.Step(ctx)
		if err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(t.samples-before) / elapsed, finalLoss, nil
}

// SamplesProcessed returns the cumulative number of training samples.
func (t *Trainer) SamplesProcessed() int { return t.samples }

// Replicas returns the replica handles (used by tests).
func (t *Trainer) Replicas() []*worker.ActorHandle { return t.replicas }
