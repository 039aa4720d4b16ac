// Package es implements Evolution Strategies (Salimans et al.) on top of the
// Ray API, reproducing the structure of the paper's Section 5.3.1 experiment:
// every iteration the driver broadcasts the current policy, a pool of worker
// actors evaluates thousands of perturbed policies, and the results are
// combined into an update. Two implementations are provided:
//
//   - Ray ES: returns are gathered with ray.wait and the high-dimensional
//     gradient is combined through a tree of nested tasks (hierarchical
//     aggregation), so no single process handles more than a few inputs.
//   - Reference ES: models the special-purpose system the paper compares
//     against, in which every worker ships its full perturbation vector back
//     to one driver that aggregates serially — the bottleneck that prevented
//     the reference system from scaling past 1024 cores.
package es

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ray/internal/cluster"
	"ray/internal/codec"
	"ray/internal/collective"
	"ray/internal/nn"
	"ray/internal/resources"
	"ray/internal/rl"
	"ray/internal/sim"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// Actor and function names registered by this package.
const (
	workerActorName   = "es.Worker"
	partialGradName   = "es.partial_gradient"
	evaluateBatchName = "evaluate_batch"
)

// Register publishes the ES worker actor and helper functions. Worker
// methods live on the class's registration-time method table.
func Register(rt *ray.Runtime) error {
	if err := collective.Register(rt); err != nil {
		return err
	}
	if err := rt.RegisterActorClass(workerActorName, "evolution strategies rollout worker", newWorker); err != nil {
		return err
	}
	for _, m := range []struct {
		name    string
		numArgs int
		impl    worker.ActorMethodImpl
	}{
		{evaluateBatchName, 4, esWorkerMethod(esEvaluateBatch)},
		{"partial_gradient", 4, esWorkerMethod(esPartialGradient)},
		{"evaluate_noise", 3, esWorkerMethod(esEvaluateNoise)},
	} {
		if err := rt.RegisterActorMethod(workerActorName, m.name, m.numArgs, 1, m.impl); err != nil {
			return err
		}
	}
	return nil
}

// esWorker is a rollout worker: it owns an environment and evaluates
// perturbed policies.
type esWorker struct {
	env    sim.Environment
	policy *rl.LinearPolicy
}

func newWorker(ctx *worker.TaskContext, args [][]byte) (any, error) {
	var envName string
	if err := codec.Decode(args[0], &envName); err != nil {
		return nil, err
	}
	env, err := sim.New(envName)
	if err != nil {
		return nil, err
	}
	return &esWorker{
		env:    env,
		policy: rl.NewLinearPolicy(env.ObservationSize(), env.ActionSize()),
	}, nil
}

// esWorkerMethod adapts a typed worker method into a method-table entry.
func esWorkerMethod(impl func(w *esWorker, args [][]byte) ([][]byte, error)) worker.ActorMethodImpl {
	return func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
		w, ok := state.(*esWorker)
		if !ok {
			return nil, fmt.Errorf("es: worker instance is %T", state)
		}
		return impl(w, args)
	}
}

// batchResult is what evaluate_batch returns: one entry per evaluated seed.
type batchResult struct {
	Seeds   []int64
	Returns []float64
	Steps   int
}

// esEvaluateBatch is evaluate_batch(params, seeds, noiseStd, maxSteps): run
// one rollout per seed against the perturbed policy.
func esEvaluateBatch(w *esWorker, args [][]byte) ([][]byte, error) {
	var params []float64
	if err := codec.Decode(args[0], &params); err != nil {
		return nil, err
	}
	var seeds []int64
	if err := codec.Decode(args[1], &seeds); err != nil {
		return nil, err
	}
	var noiseStd float64
	if err := codec.Decode(args[2], &noiseStd); err != nil {
		return nil, err
	}
	var maxSteps int
	if err := codec.Decode(args[3], &maxSteps); err != nil {
		return nil, err
	}
	res := batchResult{Seeds: seeds}
	for _, seed := range seeds {
		perturbed := perturb(params, seed, noiseStd)
		w.policy.SetParameters(perturbed)
		traj := rl.Rollout(w.env, w.policy, seed, maxSteps, false)
		res.Returns = append(res.Returns, traj.TotalReward)
		res.Steps += traj.Steps
	}
	return [][]byte{codec.MustEncode(res)}, nil
}

// esPartialGradient is partial_gradient(dim, seeds, weights, noiseStd): the
// worker's share of the weighted noise sum (used by the hierarchical
// aggregation).
func esPartialGradient(w *esWorker, args [][]byte) ([][]byte, error) {
	var dim int
	if err := codec.Decode(args[0], &dim); err != nil {
		return nil, err
	}
	var seeds []int64
	if err := codec.Decode(args[1], &seeds); err != nil {
		return nil, err
	}
	var weights []float64
	if err := codec.Decode(args[2], &weights); err != nil {
		return nil, err
	}
	var noiseStd float64
	if err := codec.Decode(args[3], &noiseStd); err != nil {
		return nil, err
	}
	return [][]byte{codec.MustEncode(weightedNoiseSum(dim, seeds, weights, noiseStd))}, nil
}

// esEvaluateNoise is evaluate_noise(dim, seed, noiseStd): the raw
// perturbation vector, shipped whole to the driver — the reference system's
// protocol.
func esEvaluateNoise(w *esWorker, args [][]byte) ([][]byte, error) {
	var dim int
	if err := codec.Decode(args[0], &dim); err != nil {
		return nil, err
	}
	var seed int64
	if err := codec.Decode(args[1], &seed); err != nil {
		return nil, err
	}
	var noiseStd float64
	if err := codec.Decode(args[2], &noiseStd); err != nil {
		return nil, err
	}
	return [][]byte{codec.MustEncode(noiseVector(dim, seed, noiseStd))}, nil
}

// noiseVector regenerates the Gaussian perturbation for a seed. Workers and
// the driver share this derivation, so only seeds (8 bytes) travel with each
// rollout result instead of full parameter-sized vectors.
func noiseVector(dim int, seed int64, std float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, dim)
	for i := range out {
		out[i] = rng.NormFloat64() * std
	}
	return out
}

func perturb(params []float64, seed int64, std float64) nn.Vector {
	noise := noiseVector(len(params), seed, std)
	out := make(nn.Vector, len(params))
	for i := range params {
		out[i] = params[i] + noise[i]
	}
	return out
}

func weightedNoiseSum(dim int, seeds []int64, weights []float64, std float64) []float64 {
	sum := make([]float64, dim)
	for i, seed := range seeds {
		noise := noiseVector(dim, seed, std)
		w := weights[i]
		for j := range sum {
			sum[j] += w * noise[j]
		}
	}
	return sum
}

// centeredRanks converts raw returns into zero-centered rank weights in
// [-0.5, 0.5], the fitness shaping used by the reference ES implementation.
func centeredRanks(returns []float64) []float64 {
	n := len(returns)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return returns[idx[a]] < returns[idx[b]] })
	out := make([]float64, n)
	if n == 1 {
		return out
	}
	for rank, i := range idx {
		out[i] = float64(rank)/float64(n-1) - 0.5
	}
	return out
}

// Config describes an ES training run.
type Config struct {
	// Workers is the number of rollout worker actors.
	Workers int
	// RolloutsPerIteration is the population size per iteration.
	RolloutsPerIteration int
	// Environment names the simulator.
	Environment string
	// NoiseStd is the perturbation standard deviation.
	NoiseStd float64
	// LearningRate is the Adam step size.
	LearningRate float64
	// MaxStepsPerRollout caps each episode (0 = environment default).
	MaxStepsPerRollout int
	// TargetScore ends training once the mean population return reaches it.
	TargetScore float64
	// MaxIterations bounds the run regardless of score.
	MaxIterations int
	// AggregationFanin is the tree-reduce fan-in for the Ray implementation.
	AggregationFanin int
	// PinWorkersToNodes spreads workers across nodes via node labels.
	PinWorkersToNodes bool
	// Seed controls perturbation seeds.
	Seed int64
}

// Result summarizes a training run.
type Result struct {
	// Solved reports whether TargetScore was reached.
	Solved bool
	// Iterations is the number of completed iterations.
	Iterations int
	// BestMeanReturn is the best population mean return observed.
	BestMeanReturn float64
	// Elapsed is the wall-clock training time (the paper's "time to solve").
	Elapsed time.Duration
	// TotalRollouts and TotalTimesteps count simulation work done.
	TotalRollouts  int
	TotalTimesteps int
}

// Trainer runs ES on a Ray cluster.
type Trainer struct {
	cfg     Config
	workers []*worker.ActorHandle
	params  nn.Vector
	opt     *nn.Adam
	dim     int
	// reference switches to the driver-bottlenecked aggregation protocol.
	reference bool
	// driverOverhead models the reference driver's per-message processing
	// cost (deserialization + bookkeeping of a full parameter vector).
	driverOverhead time.Duration
}

// NewRay creates a Trainer that uses hierarchical aggregation (the paper's
// Ray implementation).
func NewRay(ctx *worker.TaskContext, cfg Config) (*Trainer, error) {
	return newTrainer(ctx, cfg, false)
}

// NewReference creates a Trainer that mimics the special-purpose reference
// system: all perturbation vectors are aggregated serially on the driver.
func NewReference(ctx *worker.TaskContext, cfg Config) (*Trainer, error) {
	return newTrainer(ctx, cfg, true)
}

func newTrainer(ctx *worker.TaskContext, cfg Config, reference bool) (*Trainer, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("es: need at least one worker")
	}
	if cfg.Environment == "" {
		cfg.Environment = "humanoid-like"
	}
	if cfg.RolloutsPerIteration < cfg.Workers {
		cfg.RolloutsPerIteration = cfg.Workers
	}
	if cfg.NoiseStd <= 0 {
		cfg.NoiseStd = 0.02
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	if cfg.AggregationFanin < 2 {
		cfg.AggregationFanin = 8
	}
	env, err := sim.New(cfg.Environment)
	if err != nil {
		return nil, err
	}
	dim := env.ObservationSize() * env.ActionSize()
	t := &Trainer{
		cfg:            cfg,
		params:         nn.NewVector(dim),
		opt:            nn.NewAdam(cfg.LearningRate),
		dim:            dim,
		reference:      reference,
		driverOverhead: 200 * time.Microsecond,
	}
	for i := 0; i < cfg.Workers; i++ {
		opts := worker.CallOptions{}
		if cfg.PinWorkersToNodes {
			opts.Resources = resources.NewRequest(map[string]float64{cluster.NodeLabel(i): 1, "CPU": 1})
		}
		h, err := ctx.CreateActor(workerActorName, opts, cfg.Environment)
		if err != nil {
			return nil, err
		}
		t.workers = append(t.workers, h)
	}
	return t, nil
}

// Parameters returns the current flat policy parameters.
func (t *Trainer) Parameters() nn.Vector { return t.params.Clone() }

// Run trains until the target score, the iteration cap, or an error.
func (t *Trainer) Run(ctx *worker.TaskContext) (*Result, error) {
	res := &Result{BestMeanReturn: -1e18}
	start := time.Now()
	seedBase := t.cfg.Seed
	for iter := 0; iter < t.cfg.MaxIterations; iter++ {
		mean, err := t.iteration(ctx, seedBase+int64(iter)*1e6, res)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		if mean > res.BestMeanReturn {
			res.BestMeanReturn = mean
		}
		if t.cfg.TargetScore > 0 && mean >= t.cfg.TargetScore {
			res.Solved = true
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// iteration runs one ES generation and returns the population mean return.
func (t *Trainer) iteration(ctx *worker.TaskContext, seedBase int64, res *Result) (float64, error) {
	// 1. Broadcast the current policy once per iteration.
	paramsRef, err := collective.Broadcast(ctx, []float64(t.params))
	if err != nil {
		return 0, err
	}

	// 2. Fan the population out across the workers.
	perWorker := (t.cfg.RolloutsPerIteration + t.cfg.Workers - 1) / t.cfg.Workers
	type pending struct {
		worker int
		ref    types.ObjectID
	}
	var inflight []pending
	workerSeeds := make([][]int64, t.cfg.Workers)
	for w := range t.workers {
		seeds := make([]int64, 0, perWorker)
		for r := 0; r < perWorker; r++ {
			seeds = append(seeds, seedBase+int64(w*perWorker+r))
		}
		workerSeeds[w] = seeds
		ref, err := ctx.CallActor1(t.workers[w], evaluateBatchName, worker.CallOptions{},
			paramsRef, seeds, t.cfg.NoiseStd, t.cfg.MaxStepsPerRollout)
		if err != nil {
			return 0, err
		}
		inflight = append(inflight, pending{worker: w, ref: ref})
	}

	// 3. Gather results as they complete (ray.wait), not in submission order.
	allSeeds := make([]int64, 0, t.cfg.RolloutsPerIteration)
	allReturns := make([]float64, 0, t.cfg.RolloutsPerIteration)
	seedsByWorker := make(map[int][]int64)
	returnsByWorker := make(map[int][]float64)
	remaining := make(map[types.ObjectID]int, len(inflight))
	refs := make([]types.ObjectID, 0, len(inflight))
	for _, p := range inflight {
		remaining[p.ref] = p.worker
		refs = append(refs, p.ref)
	}
	for len(refs) > 0 {
		ready, notReady, err := ctx.Wait(refs, 1, 0)
		if err != nil {
			return 0, err
		}
		for _, ref := range ready {
			var out batchResult
			if err := ctx.Get(ref, &out); err != nil {
				return 0, err
			}
			w := remaining[ref]
			seedsByWorker[w] = out.Seeds
			returnsByWorker[w] = out.Returns
			allSeeds = append(allSeeds, out.Seeds...)
			allReturns = append(allReturns, out.Returns...)
			res.TotalRollouts += len(out.Seeds)
			res.TotalTimesteps += out.Steps
		}
		refs = notReady
	}

	// 4. Fitness shaping and gradient estimation.
	weights := centeredRanks(allReturns)
	weightBySeed := make(map[int64]float64, len(allSeeds))
	for i, s := range allSeeds {
		weightBySeed[s] = weights[i]
	}
	var grad []float64
	if t.reference {
		grad, err = t.referenceAggregate(ctx, weightBySeed, seedsByWorker)
	} else {
		grad, err = t.treeAggregate(ctx, weightBySeed, seedsByWorker)
	}
	if err != nil {
		return 0, err
	}

	// 5. Gradient ascent on the mean return (Adam minimizes, so negate), with
	//    the 1/(nσ) ES scaling.
	scale := 1 / (float64(len(allReturns)) * t.cfg.NoiseStd)
	step := make(nn.Vector, t.dim)
	for i := range step {
		step[i] = -grad[i] * scale
	}
	t.params = t.opt.Step(t.params, step)

	return nn.Vector(allReturns).Mean(), nil
}

// treeAggregate has every worker compute its share of the weighted noise sum
// and combines the shares with a tree of nested tasks (hierarchical
// aggregation): the driver only ever receives AggregationFanin vectors.
func (t *Trainer) treeAggregate(ctx *worker.TaskContext, weightBySeed map[int64]float64, seedsByWorker map[int][]int64) ([]float64, error) {
	var partialRefs []types.ObjectID
	for w, seeds := range seedsByWorker {
		if len(seeds) == 0 {
			continue
		}
		ws := make([]float64, len(seeds))
		for i, s := range seeds {
			ws[i] = weightBySeed[s]
		}
		ref, err := ctx.CallActor1(t.workers[w], "partial_gradient", worker.CallOptions{},
			t.dim, seeds, ws, t.cfg.NoiseStd)
		if err != nil {
			return nil, err
		}
		partialRefs = append(partialRefs, ref)
	}
	root, err := collective.TreeReduce(ctx, partialRefs, t.cfg.AggregationFanin)
	if err != nil {
		return nil, err
	}
	var grad []float64
	if err := ctx.Get(root, &grad); err != nil {
		return nil, err
	}
	return grad, nil
}

// referenceAggregate mimics the special-purpose system: every perturbation
// vector is shipped whole to the driver, which folds them in one at a time,
// paying a per-message processing overhead. Its cost grows linearly with the
// population size, which is what saturates the reference system's driver at
// scale.
func (t *Trainer) referenceAggregate(ctx *worker.TaskContext, weightBySeed map[int64]float64, seedsByWorker map[int][]int64) ([]float64, error) {
	grad := make([]float64, t.dim)
	for w, seeds := range seedsByWorker {
		for _, seed := range seeds {
			ref, err := ctx.CallActor1(t.workers[w], "evaluate_noise", worker.CallOptions{},
				t.dim, seed, t.cfg.NoiseStd)
			if err != nil {
				return nil, err
			}
			var noise []float64
			if err := ctx.Get(ref, &noise); err != nil {
				return nil, err
			}
			weight := weightBySeed[seed]
			for i := range grad {
				grad[i] += weight * noise[i]
			}
			// Per-message driver overhead (protocol handling in the reference
			// implementation's Redis-based message loop).
			time.Sleep(t.driverOverhead)
		}
	}
	return grad, nil
}
