package bench

import (
	"fmt"
	"time"

	"ray/internal/baselines/bsp"
	"ray/internal/baselines/mpi"
	"ray/internal/collective"
	"ray/internal/netsim"
	"ray/internal/rl"
	"ray/internal/rl/es"
	"ray/internal/rl/ppo"
	"ray/internal/serve"
	"ray/internal/sgd"
	"ray/internal/sim"
	"ray/ray"
)

// runSimRollout backs the bench.sim_rollout remote function.
func runSimRollout(envName string, seed int64, maxSteps int) (int, error) {
	env, err := sim.New(envName)
	if err != nil {
		return 0, err
	}
	policy := rl.NewLinearPolicy(env.ObservationSize(), env.ActionSize())
	traj := rl.Rollout(env, policy, seed, maxSteps, false)
	return traj.Steps, nil
}

// Fig12aAllreduce reproduces Figure 12a: ring allreduce completion time for
// Ray (multi-stream transfers), Ray* (single-stream transfers), and the
// OpenMPI model, across payload sizes.
func Fig12aAllreduce(scale Scale) (*Table, error) {
	participants := 8
	sizesMB := []int{4, 16}
	if scale == Full {
		participants = 16
		sizesMB = []int{10, 100}
	}
	table := &Table{
		Name:        "Figure 12a",
		Description: fmt.Sprintf("ring allreduce time on %d nodes (Ray vs single-stream Ray* vs OpenMPI model)", participants),
		Columns:     []string{"payload", "Ray (ms)", "Ray* 1-stream (ms)", "OpenMPI model (ms)"},
	}
	for _, mb := range sizesMB {
		bytes := mb << 20
		rayTime, err := allreduceRun(participants, bytes, 8)
		if err != nil {
			return nil, err
		}
		rayStarTime, err := allreduceRun(participants, bytes, 1)
		if err != nil {
			return nil, err
		}
		mpiTime := mpi.AllreduceDuration(mpi.Config{
			Nodes:       participants,
			VectorBytes: int64(bytes),
			Network:     netsim.New(realisticNetwork(1.0)),
		})
		table.AddRow(fmt.Sprintf("%dMB", mb), ms(rayTime), ms(rayStarTime), ms(mpiTime))
	}
	return table, nil
}

func allreduceRun(participants, payloadBytes, streams int) (time.Duration, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = participants
	cfg.CPUs = 2
	cfg.LabelNodes = true
	cfg.TransferStreams = streams
	cfg.Network = realisticNetwork(1.0)
	cfg.ObjectStoreBytes = 2 << 30
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	if err := collective.Register(rt); err != nil {
		return 0, err
	}
	ring, err := collective.NewRing(d.TaskContext, collective.RingConfig{Participants: participants, PinToNodes: true})
	if err != nil {
		return 0, err
	}
	vectorLen := payloadBytes / 8
	if err := ring.LoadRandom(d.TaskContext, vectorLen, 1); err != nil {
		return 0, err
	}
	return ring.Allreduce(d.TaskContext)
}

// Fig12bSchedulerAblation reproduces Figure 12b: allreduce iteration time as
// artificial scheduler latency is injected, showing why millisecond-level
// scheduling matters for communication primitives.
func Fig12bSchedulerAblation(scale Scale) (*Table, error) {
	participants := 4
	payloadMB := 4
	if scale == Full {
		participants = 16
		payloadMB = 100
	}
	table := &Table{
		Name:        "Figure 12b",
		Description: fmt.Sprintf("ring allreduce (%d nodes, %dMB) vs injected scheduler latency", participants, payloadMB),
		Columns:     []string{"added scheduler latency", "iteration time (ms)", "slowdown"},
	}
	var base time.Duration
	for _, added := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		d, err := allreduceWithLatency(participants, payloadMB<<20, added)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = d
		}
		table.AddRow(fmt.Sprintf("+%v", added), ms(d), f(float64(d)/float64(base)))
	}
	return table, nil
}

func allreduceWithLatency(participants, payloadBytes int, added time.Duration) (time.Duration, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = participants
	cfg.CPUs = 2
	cfg.LabelNodes = true
	cfg.Network = realisticNetwork(1.0)
	cfg.InjectedSchedulerLatency = added
	cfg.ObjectStoreBytes = 2 << 30
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	if err := collective.Register(rt); err != nil {
		return 0, err
	}
	ring, err := collective.NewRing(d.TaskContext, collective.RingConfig{Participants: participants, PinToNodes: true})
	if err != nil {
		return 0, err
	}
	if err := ring.LoadRandom(d.TaskContext, payloadBytes/8, 1); err != nil {
		return 0, err
	}
	return ring.Allreduce(d.TaskContext)
}

// Fig13DistributedSGD reproduces Figure 13: data-parallel synchronous SGD
// throughput (samples/s) as replicas are added, for the sharded parameter
// server (Ray), the allreduce topology (Horovod-like), and a centralized
// single-shard parameter server (classic distributed-TF-like).
func Fig13DistributedSGD(scale Scale) (*Table, error) {
	replicaCounts := []int{1, 2, 4}
	iterations := 5
	layers := []int{32, 64, 16}
	if scale == Full {
		replicaCounts = []int{1, 2, 4, 8}
		iterations = 10
		layers = []int{256, 256, 64}
	}
	table := &Table{
		Name:        "Figure 13",
		Description: "distributed SGD throughput (samples/sec) by gradient-combination strategy",
		Columns:     []string{"replicas", "Ray sharded PS", "allreduce (Horovod-like)", "centralized PS (dist-TF-like)"},
	}
	for _, replicas := range replicaCounts {
		row := []string{fmt.Sprintf("%d", replicas)}
		for _, strategy := range []sgd.Strategy{sgd.StrategyParameterServer, sgd.StrategyAllreduce, sgd.StrategyCentralizedPS} {
			throughput, err := sgdRun(replicas, strategy, layers, iterations)
			if err != nil {
				return nil, err
			}
			row = append(row, f(throughput))
		}
		table.AddRow(row...)
	}
	return table, nil
}

func sgdRun(replicas int, strategy sgd.Strategy, layers []int, iterations int) (float64, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = replicas + 1
	cfg.LabelNodes = true
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	if err := sgd.Register(rt); err != nil {
		return 0, err
	}
	trainer, err := sgd.New(d.TaskContext, sgd.Config{
		Replicas:     replicas,
		LayerSizes:   layers,
		BatchSize:    64,
		LearningRate: 0.01,
		Strategy:     strategy,
		PSShards:     2,
		Seed:         1,
	})
	if err != nil {
		return 0, err
	}
	samplesPerSec, _, err := trainer.Run(d.TaskContext, iterations)
	return samplesPerSec, err
}

// Table3Serving reproduces Table 3: policy-serving throughput for the
// Clipper-like REST baseline and Ray actor serving, for a small model with
// large inputs and a larger model with small inputs.
func Table3Serving(scale Scale) (*Table, error) {
	requests := 30
	evalDelaySmallModel := 2 * time.Millisecond
	evalDelayLargeModel := 4 * time.Millisecond
	if scale == Full {
		requests = 200
		evalDelaySmallModel = 5 * time.Millisecond
		evalDelayLargeModel = 10 * time.Millisecond
	}
	table := &Table{
		Name:        "Table 3",
		Description: "embedded serving throughput (states/sec): Clipper-like REST vs Ray actor",
		Columns:     []string{"workload", "Clipper-like (states/s)", "Ray (states/s)", "Ray/Clipper"},
	}
	type workload struct {
		name       string
		stateBytes int
		delay      time.Duration
	}
	for _, w := range []workload{
		{"small model, 100KB states", 100 << 10, evalDelaySmallModel},
		{"larger model, 4KB states", 4 << 10, evalDelayLargeModel},
	} {
		clipper, rayTp, err := servingRun(w.stateBytes, w.delay, requests)
		if err != nil {
			return nil, err
		}
		table.AddRow(w.name, f(clipper), f(rayTp), f(rayTp/clipper))
	}
	return table, nil
}

func servingRun(stateBytes int, evalDelay time.Duration, requests int) (restThroughput, rayThroughput float64, err error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 1
	cfg.CPUs = 8
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer rt.Shutdown()
	if err := serve.Register(rt); err != nil {
		return 0, 0, err
	}
	model := serve.ModelConfig{ObsSize: 64, ActionSize: 8, Hidden: []int{32}, EvalDelay: evalDelay, Seed: 1}
	batch := serve.MakeStateBatch(64, stateBytes)

	raySrv, err := serve.NewRayServer(d.TaskContext, model)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < requests; i++ {
		if _, err := raySrv.Predict(d.TaskContext, batch); err != nil {
			return 0, 0, err
		}
	}
	rayThroughput = float64(requests*len(batch)) / time.Since(start).Seconds()

	restSrv, err := serve.NewRESTServer(model)
	if err != nil {
		return 0, 0, err
	}
	defer restSrv.Close()
	client := serve.NewRESTClient(restSrv.Addr())
	start = time.Now()
	for i := 0; i < requests; i++ {
		if _, err := client.Predict(batch); err != nil {
			return 0, 0, err
		}
	}
	restThroughput = float64(requests*len(batch)) / time.Since(start).Seconds()
	return restThroughput, rayThroughput, nil
}

// Table4Simulation reproduces Table 4: simulation throughput (timesteps/sec)
// for the bulk-synchronous baseline vs Ray's asynchronous tasks, as the
// worker count grows.
func Table4Simulation(scale Scale) (*Table, error) {
	// The paper's setup: 3n rollouts on n cores, run by MPI as 3 barrier-
	// separated rounds of n, and by Ray as 3n asynchronous tasks gathered
	// with ray.wait. Episode lengths vary (500–1000 steps), so the BSP
	// rounds idle on their slowest member.
	workerCounts := []int{2, 4}
	rounds := 3
	if scale == Full {
		workerCounts = []int{2, 4, 8}
		rounds = 6
	}
	table := &Table{
		Name:        "Table 4",
		Description: "simulation throughput (timesteps/sec), BSP baseline vs Ray asynchronous tasks",
		Columns:     []string{"workers (CPUs)", "BSP (steps/s)", "Ray async (steps/s)", "Ray/BSP"},
	}
	for _, workers := range workerCounts {
		bspRes, err := bsp.Run(bsp.Config{
			Workers:                   workers,
			Rounds:                    rounds,
			RolloutsPerWorkerPerRound: 1,
			Environment:               "humanoid-like",
			MaxSteps:                  0, // full variable-length episodes
			Seed:                      1,
		})
		if err != nil {
			return nil, err
		}
		raySteps, err := raySimulationRun(workers, workers*rounds, 0)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", workers), f(bspRes.TimestepsPerSecond), f(raySteps), f(raySteps/bspRes.TimestepsPerSecond))
	}
	return table, nil
}

func raySimulationRun(workers, totalRollouts, maxSteps int) (float64, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 1
	cfg.CPUs = float64(workers)
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	refs := make([]ray.ObjectRef[int], totalRollouts)
	for i := 0; i < totalRollouts; i++ {
		ref, err := fns.simRollout.Remote(d, "humanoid-like", int64(i), maxSteps)
		if err != nil {
			return 0, err
		}
		refs[i] = ref
	}
	// Gather results as they become available (ray.wait), the asynchronous
	// collection the paper credits for Ray's higher utilization.
	totalSteps := 0
	remaining := refs
	for len(remaining) > 0 {
		ready, notReady, err := ray.Wait(d, remaining, 1, 0)
		if err != nil {
			return 0, err
		}
		for _, ref := range ready {
			steps, err := ray.Get(d, ref)
			if err != nil {
				return 0, err
			}
			totalSteps += steps
		}
		remaining = notReady
	}
	return float64(totalSteps) / time.Since(start).Seconds(), nil
}

// Fig14aES reproduces Figure 14a: Evolution Strategies time per iteration for
// the Ray implementation (hierarchical aggregation) vs the reference-style
// implementation (serial driver aggregation) as workers are added.
func Fig14aES(scale Scale) (*Table, error) {
	workerCounts := []int{2, 4}
	rollouts := 24
	iterations := 2
	if scale == Full {
		workerCounts = []int{2, 4, 8}
		rollouts = 64
		iterations = 4
	}
	table := &Table{
		Name:        "Figure 14a",
		Description: "ES wall-clock time for a fixed workload: Ray (tree aggregation) vs reference (driver aggregation)",
		Columns:     []string{"workers", "Ray ES (ms)", "Reference ES (ms)", "reference/Ray"},
	}
	for _, workers := range workerCounts {
		rayTime, err := esRun(workers, rollouts, iterations, false)
		if err != nil {
			return nil, err
		}
		refTime, err := esRun(workers, rollouts, iterations, true)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", workers), ms(rayTime), ms(refTime), f(float64(refTime)/float64(rayTime)))
	}
	return table, nil
}

func esRun(workers, rollouts, iterations int, reference bool) (time.Duration, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = workers
	cfg.LabelNodes = true
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	if err := es.Register(rt); err != nil {
		return 0, err
	}
	esCfg := es.Config{
		Workers:              workers,
		RolloutsPerIteration: rollouts,
		Environment:          "humanoid-like",
		MaxStepsPerRollout:   60,
		MaxIterations:        iterations,
		AggregationFanin:     4,
		Seed:                 1,
	}
	var trainer *es.Trainer
	if reference {
		trainer, err = es.NewReference(d.TaskContext, esCfg)
	} else {
		trainer, err = es.NewRay(d.TaskContext, esCfg)
	}
	if err != nil {
		return 0, err
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// Fig14bPPO reproduces Figure 14b: PPO time for a fixed workload, comparing
// the Ray asynchronous scatter-gather (with a GPU-annotated update task) to
// the bulk-synchronous MPI-style implementation (which also requires every
// node to carry a GPU).
func Fig14bPPO(scale Scale) (*Table, error) {
	sims := 4
	stepsPerIter := 1200
	iterations := 2
	if scale == Full {
		sims = 8
		stepsPerIter = 8000
		iterations = 4
	}
	table := &Table{
		Name:        "Figure 14b",
		Description: "PPO wall-clock time for a fixed workload: Ray async scatter-gather vs MPI-style BSP",
		Columns:     []string{"implementation", "elapsed (ms)", "rollouts", "GPUs required"},
	}
	for _, synchronous := range []bool{false, true} {
		elapsed, rollouts, gpus, err := ppoRun(sims, stepsPerIter, iterations, synchronous)
		if err != nil {
			return nil, err
		}
		name := "Ray PPO (async)"
		if synchronous {
			name = "MPI-style PPO (BSP)"
		}
		table.AddRow(name, ms(elapsed), fmt.Sprintf("%d", rollouts), fmt.Sprintf("%d", gpus))
	}
	return table, nil
}

func ppoRun(sims, stepsPerIter, iterations int, synchronous bool) (time.Duration, int, int, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 2
	cfg.CPUs = float64(sims)
	cfg.GPUs = 1
	rt, d, err := newCluster(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	defer rt.Shutdown()
	if err := ppo.Register(rt); err != nil {
		return 0, 0, 0, err
	}
	gpusRequired := 1 // Ray: only the update task needs a GPU
	if synchronous {
		gpusRequired = 2 // symmetric MPI ranks: every node carries a GPU
	}
	trainer, err := ppo.New(d.TaskContext, ppo.Config{
		Simulators:         sims,
		StepsPerIteration:  stepsPerIter,
		SGDSteps:           5,
		MiniBatch:          64,
		Environment:        "humanoid-like",
		MaxStepsPerRollout: 80,
		MaxIterations:      iterations,
		UpdateGPUs:         1,
		Synchronous:        synchronous,
		Seed:               1,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := trainer.Run(d.TaskContext)
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Elapsed, res.TotalRollouts, gpusRequired, nil
}

// All runs every experiment at the given scale and returns the tables in
// paper order. cmd/raybench uses it for the "run everything" mode.
func All(scale Scale) ([]*Table, error) {
	runners := []func(Scale) (*Table, error){
		Fig8aLocality, Fig8bScalability, Fig9ObjectStore,
		Fig10aGCSFaultTolerance, Fig10bGCSCollection,
		Fig11aTaskReconstruction, Fig11bActorReconstruction,
		Fig12aAllreduce, Fig12bSchedulerAblation,
		Fig13DistributedSGD, Table3Serving, Table4Simulation,
		Fig14aES, Fig14bPPO,
	}
	var tables []*Table
	for _, run := range runners {
		t, err := run(scale)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Registry maps experiment identifiers to their runners, for cmd/raybench's
// -exp flag.
func Registry() map[string]func(Scale) (*Table, error) {
	return map[string]func(Scale) (*Table, error){
		"fig8a":              Fig8aLocality,
		"fig8b":              Fig8bScalability,
		"multi_driver":       MultiDriver,
		"larger_than_memory": LargerThanMemory,
		"fig9":               Fig9ObjectStore,
		"fig10a":             Fig10aGCSFaultTolerance,
		"fig10b":             Fig10bGCSCollection,
		"fig11a":             Fig11aTaskReconstruction,
		"fig11b":             Fig11bActorReconstruction,
		"fig12a":             Fig12aAllreduce,
		"fig12b":             Fig12bSchedulerAblation,
		"fig13":              Fig13DistributedSGD,
		"table3":             Table3Serving,
		"table4":             Table4Simulation,
		"fig14a":             Fig14aES,
		"fig14b":             Fig14bPPO,
	}
}
