package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ray/internal/codec"
	"ray/ray"
)

// benchCounter is a checkpointable counter actor used by the actor
// fault-tolerance experiment. Its methods live on the class's method table
// (registerBenchFunctions); the mutex only guards against a checkpoint
// racing a method execution.
type benchCounter struct {
	mu    sync.Mutex
	value int //guard:by mu
}

// Checkpoint implements worker.Checkpointable.
func (c *benchCounter) Checkpoint() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return codec.Encode(c.value)
}

// Restore implements worker.Checkpointable.
func (c *benchCounter) Restore(data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore guardedby Decode writes through the pointer synchronously while mu is held; the alias does not outlive the call
	return codec.Decode(data, &c.value)
}

// Fig11aTaskReconstruction reproduces Figure 11a: a driver executes chains of
// short tasks; part-way through, a node is killed (losing intermediate
// objects); the chains keep making progress because lost dependencies are
// reconstructed from lineage, and throughput recovers when a node is added.
func Fig11aTaskReconstruction(scale Scale) (*Table, error) {
	chains := 8
	stepsPerChain := 20
	stepMillis := 5
	if scale == Full {
		chains = 32
		stepsPerChain = 60
		stepMillis = 20
	}
	cfg := ray.DefaultConfig()
	cfg.Nodes = 4
	cfg.SpilloverThreshold = 2
	rt, d, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Phase 1: run the first half of every chain.
	half := stepsPerChain / 2
	phase1Start := time.Now()
	heads := make([]ray.ObjectRef[int], chains)
	for c := 0; c < chains; c++ {
		token, err := ray.Put(d, 0)
		if err != nil {
			return nil, err
		}
		for s := 0; s < half; s++ {
			token, err = fns.chainStep.RemoteRef(d, token, ray.ValueRef(stepMillis))
			if err != nil {
				return nil, err
			}
		}
		heads[c] = token
	}
	for _, h := range heads {
		if _, err := ray.Get(d, h); err != nil {
			return nil, err
		}
	}
	phase1 := time.Since(phase1Start)

	// Kill a non-driver node: its intermediate objects disappear.
	var killed bool
	for _, n := range rt.Cluster().NodeList() {
		if n.ID() != d.Node.ID() {
			if err := rt.Cluster().KillNode(ctx, n.ID()); err != nil {
				return nil, err
			}
			killed = true
			break
		}
	}
	if !killed {
		return nil, fmt.Errorf("bench: no node available to kill")
	}

	// Phase 2: continue every chain; consuming the (possibly lost) chain head
	// forces lineage reconstruction of the missing prefix.
	phase2Start := time.Now()
	for c := 0; c < chains; c++ {
		token := heads[c]
		var err error
		for s := half; s < stepsPerChain; s++ {
			token, err = fns.chainStep.RemoteRef(d, token, ray.ValueRef(stepMillis))
			if err != nil {
				return nil, err
			}
		}
		heads[c] = token
	}
	// Add a replacement node mid-phase (elastic recovery, as in the paper).
	if _, err := rt.Cluster().AddNode(ctx, rt.Cluster().HeadNode().Config()); err != nil {
		return nil, err
	}
	var finalSum int
	for _, h := range heads {
		v, err := ray.Get(d, h)
		if err != nil {
			return nil, err
		}
		finalSum += v
	}
	phase2 := time.Since(phase2Start)

	// Correctness: every chain must have counted every step exactly once.
	wantSum := chains * stepsPerChain
	reexecuted := int64(0)
	for _, n := range rt.Cluster().AliveNodes() {
		reexecuted += n.Stats().Lineage.ReconstructedTasks
	}

	table := &Table{
		Name:        "Figure 11a",
		Description: "task reconstruction after a node failure (chains of short tasks)",
		Columns:     []string{"phase", "elapsed (ms)", "chains OK", "tasks re-executed"},
	}
	table.AddRow("before failure", ms(phase1), "yes", "0")
	ok := "yes"
	if finalSum != wantSum {
		ok = fmt.Sprintf("NO (%d != %d)", finalSum, wantSum)
	}
	table.AddRow("after failure + reconstruction", ms(phase2), ok, fmt.Sprintf("%d", reexecuted))
	return table, nil
}

// Fig11bActorReconstruction reproduces Figure 11b: actors are killed with a
// node and reconstructed elsewhere; checkpointing bounds how many methods
// must be replayed.
func Fig11bActorReconstruction(scale Scale) (*Table, error) {
	actors := 8
	methodsBefore := 40
	if scale == Full {
		actors = 40
		methodsBefore = 200
	}
	table := &Table{
		Name:        "Figure 11b",
		Description: "actor reconstruction after a node failure, with and without checkpointing",
		Columns:     []string{"mode", "lost actors", "methods replayed", "recovery (ms)", "state correct"},
	}
	for _, checkpoint := range []bool{false, true} {
		row, err := actorReconstructionRun(actors, methodsBefore, checkpoint)
		if err != nil {
			return nil, err
		}
		table.AddRow(row...)
	}
	return table, nil
}

func actorReconstructionRun(actors, methodsBefore int, checkpoint bool) ([]string, error) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 4
	// Four CPUs per node: each actor holds one CPU, so the eight actors are
	// forced to spread beyond the driver's node (killing a node then actually
	// loses some) while leaving spare capacity to host the reconstructions.
	if checkpoint {
		cfg.CheckpointInterval = 10
	}
	rt, d, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	handles := make([]*ray.ActorOf[benchCounter], actors)
	incs := make([]ray.MethodHandle0[int], actors)
	for i := range handles {
		h, err := fns.counter.New(d)
		if err != nil {
			return nil, err
		}
		handles[i] = h
		incs[i] = fns.counterInc.Bind(h)
	}
	// Run the pre-failure methods.
	for m := 0; m < methodsBefore; m++ {
		for _, inc := range incs {
			ref, err := inc.Remote(d)
			if err != nil {
				return nil, err
			}
			if _, err := ray.Get(d, ref); err != nil {
				return nil, err
			}
		}
	}
	methodsRunBefore := totalMethodsRun(rt)

	// Kill a non-driver node hosting actors.
	lost := 0
	for _, n := range rt.Cluster().NodeList() {
		if n.ID() == d.Node.ID() {
			continue
		}
		if hosted := n.Workers().Stats().ActorsHosted; hosted > 0 {
			lost = hosted
			if err := rt.Cluster().KillNode(ctx, n.ID()); err != nil {
				return nil, err
			}
			break
		}
	}

	// Touch every actor once more; lost ones reconstruct transparently.
	recoveryStart := time.Now()
	correct := true
	for _, inc := range incs {
		ref, err := inc.Remote(d)
		if err != nil {
			return nil, err
		}
		v, err := ray.Get(d, ref)
		if err != nil {
			return nil, err
		}
		if v != methodsBefore+1 {
			correct = false
		}
	}
	recovery := time.Since(recoveryStart)
	// Replayed methods = methods executed after the failure beyond the one
	// new "inc" per actor.
	replayed := totalMethodsRun(rt) - methodsRunBefore - int64(actors)
	// Cross-check through the read-only accessor (after the replay
	// accounting, so these extra method calls do not skew it): every actor's
	// state must agree with what its last inc reported.
	for _, h := range handles {
		ref, err := fns.counterValue.Remote(d, h)
		if err != nil {
			return nil, err
		}
		v, err := ray.Get(d, ref)
		if err != nil {
			return nil, err
		}
		if v != methodsBefore+1 {
			correct = false
		}
	}

	mode := "no checkpoint"
	if checkpoint {
		mode = "checkpoint every 10"
	}
	okStr := "yes"
	if !correct {
		okStr = "NO"
	}
	return []string{mode, fmt.Sprintf("%d", lost), fmt.Sprintf("%d", replayed), ms(recovery), okStr}, nil
}

func totalMethodsRun(rt *ray.Runtime) int64 {
	var total int64
	for _, n := range rt.Cluster().NodeList() {
		total += n.Stats().Workers.MethodsRun
	}
	return total
}
