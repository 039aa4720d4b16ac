// Package ppo reproduces the system structure of the paper's Proximal Policy
// Optimization experiment (Section 5.3.2): an asynchronous scatter-gather in
// which rollout tasks are assigned to simulation actors as results stream
// back to the driver via ray.wait, until a step budget is met; the policy
// update then runs as a separate (optionally GPU-annotated) remote task.
// A bulk-synchronous baseline with the symmetric structure of the MPI
// implementation is included for the Figure 14b comparison.
//
// The optimizer itself is a rank-weighted perturbation update (the same
// family as the ES estimator) rather than clipped-surrogate PPO; the
// experiment's measurements are about scheduling, heterogeneity, and
// asynchrony, which this preserves. See DESIGN.md for the substitution note.
package ppo

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

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

// newRNG derives a deterministic RNG from an exploration seed; simulators and
// the update task share it so only seeds travel with rollout results.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// centeredRanks converts raw returns into zero-centered rank weights in
// [-0.5, 0.5] (fitness shaping).
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

// Registered names.
const (
	simulatorActorName = "ppo.Simulator"
	updateTaskName     = "ppo.update_policy"
)

// Register publishes the PPO simulator actor and update task. The
// simulator's single method lives on its registration-time method table.
func Register(rt *ray.Runtime) error {
	if err := collective.Register(rt); err != nil {
		return err
	}
	if err := rt.RegisterN(updateTaskName, "PPO policy update (GPU task)", 1, updatePolicy); err != nil {
		return err
	}
	if err := rt.RegisterActorClass(simulatorActorName, "PPO rollout simulator", newSimulator); err != nil {
		return err
	}
	return rt.RegisterActorMethod(simulatorActorName, "rollout", 4, 1, simulatorRollout)
}

// simulator is a rollout actor with its own environment instance.
type simulator struct {
	env    sim.Environment
	policy *rl.LinearPolicy
}

func newSimulator(ctx *worker.TaskContext, args [][]byte) (any, error) {
	var envName string
	if err := codec.Decode(args[0], &envName); err != nil {
		return nil, err
	}
	env, err := sim.New(envName)
	if err != nil {
		return nil, err
	}
	return &simulator{env: env, policy: rl.NewLinearPolicy(env.ObservationSize(), env.ActionSize())}, nil
}

// rolloutResult is one rollout's contribution to the update.
type rolloutResult struct {
	Seed   int64
	Return float64
	Steps  int
}

// simulatorRollout is rollout(params, seed, noiseStd, maxSteps): one episode
// under the seed-perturbed policy.
func simulatorRollout(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
	s, ok := state.(*simulator)
	if !ok {
		return nil, fmt.Errorf("ppo: simulator instance is %T", state)
	}
	var params []float64
	if err := codec.Decode(args[0], &params); err != nil {
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
	var maxSteps int
	if err := codec.Decode(args[3], &maxSteps); err != nil {
		return nil, err
	}
	perturbed := perturb(params, seed, noiseStd)
	s.policy.SetParameters(perturbed)
	traj := rl.Rollout(s.env, s.policy, seed, maxSteps, false)
	return [][]byte{codec.MustEncode(rolloutResult{Seed: seed, Return: traj.TotalReward, Steps: traj.Steps})}, nil
}

func perturb(params []float64, seed int64, std float64) nn.Vector {
	rng := newRNG(seed)
	out := make(nn.Vector, len(params))
	for i := range params {
		out[i] = params[i] + rng.NormFloat64()*std
	}
	return out
}

// updateRequest is the input of the update task.
type updateRequest struct {
	Params       []float64
	Seeds        []int64
	Returns      []float64
	NoiseStd     float64
	LearningRate float64
	SGDSteps     int
	MiniBatch    int
}

// updatePolicy is the remote update task: it performs SGDSteps mini-batch
// updates over the collected rollout population and returns the new
// parameters. In the paper this is the GPU-resident step; here the resource
// annotation is supplied by the caller.
func updatePolicy(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
	var req updateRequest
	if err := codec.Decode(args[0], &req); err != nil {
		return nil, err
	}
	if len(req.Seeds) != len(req.Returns) || len(req.Seeds) == 0 {
		return nil, fmt.Errorf("ppo: malformed update request (%d seeds, %d returns)", len(req.Seeds), len(req.Returns))
	}
	if req.SGDSteps < 1 {
		req.SGDSteps = 1
	}
	if req.MiniBatch < 1 || req.MiniBatch > len(req.Seeds) {
		req.MiniBatch = len(req.Seeds)
	}
	params := append([]float64(nil), req.Params...)
	weights := centeredRanks(req.Returns)
	dim := len(params)
	perStep := req.LearningRate / float64(req.SGDSteps)
	for step := 0; step < req.SGDSteps; step++ {
		lo := (step * req.MiniBatch) % len(req.Seeds)
		hi := lo + req.MiniBatch
		if hi > len(req.Seeds) {
			hi = len(req.Seeds)
		}
		grad := make([]float64, dim)
		for i := lo; i < hi; i++ {
			rng := newRNG(req.Seeds[i])
			w := weights[i]
			for j := 0; j < dim; j++ {
				grad[j] += w * rng.NormFloat64() * req.NoiseStd
			}
		}
		scale := perStep / (float64(hi-lo) * req.NoiseStd)
		for j := 0; j < dim; j++ {
			params[j] += grad[j] * scale
		}
	}
	return [][]byte{codec.MustEncode(params)}, nil
}

// Config describes a PPO training run.
type Config struct {
	// Simulators is the number of rollout actors (CPU tasks).
	Simulators int
	// StepsPerIteration is how many environment steps to collect before each
	// update (the paper uses 320000).
	StepsPerIteration int
	// SGDSteps and MiniBatch control the update task (paper: 20 and 32768).
	SGDSteps  int
	MiniBatch int
	// Environment names the simulator.
	Environment string
	// NoiseStd is the exploration noise standard deviation.
	NoiseStd float64
	// LearningRate scales the update.
	LearningRate float64
	// MaxStepsPerRollout caps each episode.
	MaxStepsPerRollout int
	// TargetScore ends training once the mean return reaches it.
	TargetScore float64
	// MaxIterations bounds the run.
	MaxIterations int
	// UpdateGPUs annotates the update task with a GPU requirement
	// (heterogeneity-aware scheduling; 0 runs it as a CPU task).
	UpdateGPUs float64
	// Synchronous switches to the BSP/MPI-style baseline: rollouts proceed in
	// barrier-separated waves, and every simulator is idle while the slowest
	// one finishes.
	Synchronous bool
	// Seed controls exploration seeds.
	Seed int64
}

// Result summarizes a PPO run.
type Result struct {
	Solved         bool
	Iterations     int
	BestMeanReturn float64
	Elapsed        time.Duration
	TotalRollouts  int
	TotalTimesteps int
}

// Trainer drives PPO training over a Ray cluster.
type Trainer struct {
	cfg    Config
	sims   []*worker.ActorHandle
	params nn.Vector
	dim    int
}

// New creates the simulation actors.
func New(ctx *worker.TaskContext, cfg Config) (*Trainer, error) {
	if cfg.Simulators < 1 {
		return nil, fmt.Errorf("ppo: need at least one simulator")
	}
	if cfg.Environment == "" {
		cfg.Environment = "humanoid-like"
	}
	if cfg.StepsPerIteration <= 0 {
		cfg.StepsPerIteration = 4000
	}
	if cfg.SGDSteps <= 0 {
		cfg.SGDSteps = 20
	}
	if cfg.NoiseStd <= 0 {
		cfg.NoiseStd = 0.02
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 50
	}
	env, err := sim.New(cfg.Environment)
	if err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, dim: env.ObservationSize() * env.ActionSize()}
	t.params = nn.NewVector(t.dim)
	for i := 0; i < cfg.Simulators; i++ {
		h, err := ctx.CreateActor(simulatorActorName, worker.CallOptions{}, cfg.Environment)
		if err != nil {
			return nil, err
		}
		t.sims = append(t.sims, h)
	}
	return t, nil
}

// Parameters returns the current policy parameters.
func (t *Trainer) Parameters() nn.Vector { return t.params.Clone() }

// Run trains until the target score or the iteration cap.
func (t *Trainer) Run(ctx *worker.TaskContext) (*Result, error) {
	res := &Result{BestMeanReturn: -1e18}
	start := time.Now()
	seed := t.cfg.Seed
	for iter := 0; iter < t.cfg.MaxIterations; iter++ {
		var mean float64
		var err error
		if t.cfg.Synchronous {
			mean, seed, err = t.synchronousIteration(ctx, seed, res)
		} else {
			mean, seed, err = t.asyncIteration(ctx, seed, res)
		}
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

// asyncIteration is the Ray implementation: simulation tasks are re-assigned
// to actors the moment they return a rollout, and collection stops as soon as
// the step budget is met.
func (t *Trainer) asyncIteration(ctx *worker.TaskContext, seed int64, res *Result) (float64, int64, error) {
	paramsRef, err := collective.Broadcast(ctx, []float64(t.params))
	if err != nil {
		return 0, seed, err
	}
	inflight := make(map[types.ObjectID]int, len(t.sims))
	submit := func(simIdx int) error {
		seed++
		ref, err := ctx.CallActor1(t.sims[simIdx], "rollout", worker.CallOptions{},
			paramsRef, seed, t.cfg.NoiseStd, t.cfg.MaxStepsPerRollout)
		if err != nil {
			return err
		}
		inflight[ref] = simIdx
		return nil
	}
	for i := range t.sims {
		if err := submit(i); err != nil {
			return 0, seed, err
		}
	}
	var seeds []int64
	var returns []float64
	steps := 0
	for steps < t.cfg.StepsPerIteration {
		refs := make([]types.ObjectID, 0, len(inflight))
		for ref := range inflight {
			refs = append(refs, ref)
		}
		ready, _, err := ctx.Wait(refs, 1, 0)
		if err != nil {
			return 0, seed, err
		}
		for _, ref := range ready {
			simIdx := inflight[ref]
			delete(inflight, ref)
			var out rolloutResult
			if err := ctx.Get(ref, &out); err != nil {
				return 0, seed, err
			}
			seeds = append(seeds, out.Seed)
			returns = append(returns, out.Return)
			steps += out.Steps
			res.TotalRollouts++
			res.TotalTimesteps += out.Steps
			if steps < t.cfg.StepsPerIteration {
				if err := submit(simIdx); err != nil {
					return 0, seed, err
				}
			}
		}
	}
	// Drain whatever is still in flight so its work is not wasted (and so
	// actors are idle before the next broadcast).
	if len(inflight) > 0 {
		refs := make([]types.ObjectID, 0, len(inflight))
		for ref := range inflight {
			refs = append(refs, ref)
		}
		if _, _, err := ctx.Wait(refs, len(refs), 0); err != nil {
			return 0, seed, err
		}
		for _, ref := range refs {
			var out rolloutResult
			if err := ctx.Get(ref, &out); err != nil {
				return 0, seed, err
			}
			seeds = append(seeds, out.Seed)
			returns = append(returns, out.Return)
			res.TotalRollouts++
			res.TotalTimesteps += out.Steps
		}
	}
	mean, err := t.update(ctx, seeds, returns)
	return mean, seed, err
}

// synchronousIteration is the MPI-style baseline: every simulator runs one
// rollout per wave and a barrier separates waves.
func (t *Trainer) synchronousIteration(ctx *worker.TaskContext, seed int64, res *Result) (float64, int64, error) {
	paramsRef, err := collective.Broadcast(ctx, []float64(t.params))
	if err != nil {
		return 0, seed, err
	}
	var seeds []int64
	var returns []float64
	steps := 0
	for steps < t.cfg.StepsPerIteration {
		refs := make([]types.ObjectID, 0, len(t.sims))
		for i := range t.sims {
			seed++
			ref, err := ctx.CallActor1(t.sims[i], "rollout", worker.CallOptions{},
				paramsRef, seed, t.cfg.NoiseStd, t.cfg.MaxStepsPerRollout)
			if err != nil {
				return 0, seed, err
			}
			refs = append(refs, ref)
		}
		// Barrier: wait for the whole wave before launching the next one.
		if _, _, err := ctx.Wait(refs, len(refs), 0); err != nil {
			return 0, seed, err
		}
		for _, ref := range refs {
			var out rolloutResult
			if err := ctx.Get(ref, &out); err != nil {
				return 0, seed, err
			}
			seeds = append(seeds, out.Seed)
			returns = append(returns, out.Return)
			steps += out.Steps
			res.TotalRollouts++
			res.TotalTimesteps += out.Steps
		}
	}
	mean, err := t.update(ctx, seeds, returns)
	return mean, seed, err
}

// update launches the remote update task (GPU-annotated when configured) and
// installs the new parameters.
func (t *Trainer) update(ctx *worker.TaskContext, seeds []int64, returns []float64) (float64, error) {
	req := updateRequest{
		Params:       t.params,
		Seeds:        seeds,
		Returns:      returns,
		NoiseStd:     t.cfg.NoiseStd,
		LearningRate: t.cfg.LearningRate,
		SGDSteps:     t.cfg.SGDSteps,
		MiniBatch:    t.cfg.MiniBatch,
	}
	opts := worker.CallOptions{}
	if t.cfg.UpdateGPUs > 0 {
		opts.Resources = resources.NewRequest(map[string]float64{"GPU": t.cfg.UpdateGPUs, "CPU": 1})
	}
	ref, err := ctx.Call1(updateTaskName, opts, req)
	if err != nil {
		return 0, err
	}
	var newParams []float64
	if err := ctx.Get(ref, &newParams); err != nil {
		return 0, err
	}
	t.params = newParams
	return nn.Vector(returns).Mean(), nil
}
