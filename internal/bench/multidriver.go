package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ray/internal/job"
	"ray/internal/paramserver"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// MultiDriver is the multi-driver contention experiment of the job
// subsystem: N concurrent drivers — a mixed workload of closed-loop micro
// drivers, a parameter-server training driver, and one greedy driver
// flooding the cluster with an open-loop task storm — share one cluster.
// It measures per-driver task throughput under weighted fair-share dispatch
// (per-job deficit-round-robin queues) against a single-driver baseline, and
// validates job-exit cleanup by killing the greedy driver mid-run: its
// queued tasks must be cancelled, its actor terminated, and its objects
// released, while the surviving drivers keep producing correct results.
func MultiDriver(scale Scale) (*Table, error) {
	window := 1200 * time.Millisecond
	if scale == Full {
		window = 5 * time.Second
	}
	solo, err := multiDriverSolo(window)
	if err != nil {
		return nil, err
	}
	fair, err := multiDriverContended(window)
	if err != nil {
		return nil, err
	}
	table := &Table{
		Name: "multi_driver",
		Description: "4 concurrent drivers (2 micro + paramserver + greedy flood): per-driver throughput under contention " +
			"with fair-share dispatch, and a mid-run job kill",
		Columns: []string{"solo micro tasks/s", "min micro tasks/s", "min/solo", "ps iters/s", "kill: cancelled/stopped/released"},
	}
	killCell := fmt.Sprintf("%d/%d/%d", fair.kill.TasksCancelled, fair.kill.ActorsStopped, fair.kill.ObjectsReleased)
	table.AddRow(f(solo), f(fair.minMicro()), f(fair.minMicro()/solo), f(fair.psIters), killCell)
	return table, nil
}

// multiDriverStats is one contended run's outcome.
type multiDriverStats struct {
	// micro holds each micro driver's tasks/sec during the contended window.
	micro []float64
	// psIters is the parameter-server driver's iterations/sec.
	psIters float64
	// kill summarizes the greedy job's cleanup.
	kill job.CleanupReport
}

func (s *multiDriverStats) minMicro() float64 {
	min := s.micro[0]
	for _, v := range s.micro[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// multiDriverConfig builds the shared cluster shape: 4 nodes × 4 CPUs.
func multiDriverConfig() ray.Config {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 4
	cfg.GCSShards = 8
	// Micro drivers pin their latency-sensitive tasks to their own node, the
	// usual locality pattern for interactive work.
	cfg.LabelNodes = true
	return cfg
}

// microTaskMillis is the micro driver's per-task compute time: long enough
// that dispatch order — not fixed control-plane latency — dominates batch
// time, so the fairness ratio measures scheduling, not constant overheads.
const microTaskMillis = 4

// microLoop runs a closed-loop stream of short CPU tasks (inflight at a
// time) pinned to the driver's node until the deadline, verifying every
// result, and returns tasks/sec.
func microLoop(d *ray.Driver, fns benchFuncs, nodeIdx int, window time.Duration) (float64, error) {
	const inflight = 4
	deadline := time.Now().Add(window)
	completed := 0
	start := time.Now()
	for time.Now().Before(deadline) {
		refs := make([]ray.ObjectRef[int], 0, inflight)
		base := completed
		for i := 0; i < inflight; i++ {
			ref, err := fns.chainStep.Remote(d, base+i, microTaskMillis, ray.OnNode(nodeIdx))
			if err != nil {
				return 0, err
			}
			refs = append(refs, ref)
		}
		// Wait for the whole batch first so the per-result control-plane
		// latency overlaps across the batch instead of paying serially.
		if _, _, err := ray.Wait(d, refs, len(refs), 0); err != nil {
			return 0, err
		}
		for i, ref := range refs {
			got, err := ray.Get(d, ref)
			if err != nil {
				return 0, err
			}
			if got != base+i+1 {
				return 0, fmt.Errorf("bench: micro driver %v: task returned %d, want %d (cross-driver corruption?)",
					d.Job, got, base+i+1)
			}
			completed++
		}
	}
	return float64(completed) / time.Since(start).Seconds(), nil
}

// multiDriverSolo measures one micro driver alone on an idle cluster — the
// single-driver baseline the acceptance ratio is computed against.
func multiDriverSolo(window time.Duration) (float64, error) {
	rt, err := ray.Init(context.Background(), multiDriverConfig())
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return 0, err
	}
	d, err := rt.NewDriverOn(context.Background(), rt.Cluster().AliveNodes()[0])
	if err != nil {
		return 0, err
	}
	return microLoop(d, fns, 0, window)
}

// psLoop drives a small sharded parameter server: push one gradient, apply,
// fetch — one iteration. Returns iterations/sec.
func psLoop(d *ray.Driver, window time.Duration) (float64, error) {
	const dim = 64
	weights := make([]float64, dim)
	ps, err := paramserver.New(d.CallContext(), paramserver.Config{Shards: 2, LearningRate: 0.1}, weights)
	if err != nil {
		return 0, err
	}
	grad := make([]float64, dim)
	for i := range grad {
		grad[i] = 0.01
	}
	deadline := time.Now().Add(window)
	iters := 0
	start := time.Now()
	for time.Now().Before(deadline) {
		acks, err := ps.PushGradient(d.CallContext(), grad)
		if err != nil {
			return 0, err
		}
		for _, a := range acks {
			var ok bool
			if err := d.Get(a, &ok); err != nil {
				return 0, err
			}
		}
		if _, err := ps.ApplyAndFetch(d.CallContext()); err != nil {
			return 0, err
		}
		iters++
	}
	return float64(iters) / time.Since(start).Seconds(), nil
}

// waitGreedyDrained polls until neither the forward dispatcher nor any
// node's slot queue holds tasks of the killed job.
func waitGreedyDrained(rt *ray.Runtime, jobID types.JobID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := rt.Cluster().PendingForwardsForJob(jobID)
		for _, n := range rt.Cluster().AliveNodes() {
			pending += n.LocalScheduler().PendingForJob(jobID)
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %d greedy tasks still queued %v after kill", pending, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// multiDriverContended runs the 4-driver mix, then kills the greedy driver
// mid-run and validates its cleanup.
func multiDriverContended(window time.Duration) (*multiDriverStats, error) {
	ctx := context.Background()
	rt, err := ray.Init(ctx, multiDriverConfig())
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()
	fns, err := registerBenchFunctions(rt)
	if err != nil {
		return nil, err
	}
	if err := paramserver.Register(rt); err != nil {
		return nil, err
	}
	nodes := rt.Cluster().AliveNodes()

	// Driver mix: micro drivers on nodes 0 and 1, the parameter-server
	// driver on node 2, the greedy flooder on node 3. The interactive
	// drivers attach with weight 4 against the batch flood's weight 1 — the
	// weighted half of weighted fair share: under contention each micro
	// driver receives four dispatch grants for every one the flood gets.
	const interactiveWeight = 4
	micro := make([]*ray.Driver, 2)
	for i := range micro {
		if micro[i], err = rt.NewDriverWithOptions(ctx, nodes[i], ray.JobOptions{
			Name: fmt.Sprintf("micro-%d", i), Weight: interactiveWeight,
		}); err != nil {
			return nil, err
		}
	}
	psDriver, err := rt.NewDriverWithOptions(ctx, nodes[2], ray.JobOptions{Name: "paramserver", Weight: interactiveWeight})
	if err != nil {
		return nil, err
	}
	greedy, err := rt.NewDriverWithOptions(ctx, nodes[3], ray.JobOptions{Name: "greedy", Weight: 1})
	if err != nil {
		return nil, err
	}

	// The greedy job owns an actor and a put object so the kill phase has
	// all three artifact kinds to clean up.
	greedyActor, err := greedy.CreateActor("bench.Counter", worker.CallOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := greedy.CallActor1(greedyActor, "inc", worker.CallOptions{}); err != nil {
		return nil, err
	}
	greedyPut, err := greedy.Put(make([]byte, 1<<16))
	if err != nil {
		return nil, err
	}

	// Greedy flood: a huge closed loop of cheap zero-resource tasks. The
	// in-flight window (thousands of tasks) keeps a standing backlog in the
	// dispatch queues for the whole run, of which it only ever gets its
	// deficit-round-robin share, while Get-pacing keeps the backlog bounded
	// so the run drains in bounded time on any machine.
	const floodWindow = 4096
	floodCtx, stopFlood := context.WithCancel(ctx)
	defer stopFlood()
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		var outstanding []ray.ObjectRef[int]
		for floodCtx.Err() == nil {
			if len(outstanding) >= floodWindow {
				if _, err := ray.Get(greedy, outstanding[0]); err != nil {
					return // job killed or cluster shutting down
				}
				outstanding = outstanding[1:]
				continue
			}
			ref, err := fns.chainStep.Remote(greedy, 0, 1, ray.ZeroResources())
			if err != nil {
				return
			}
			outstanding = append(outstanding, ref)
		}
	}()

	// Contended measurement window: every driver runs concurrently.
	stats := &multiDriverStats{micro: make([]float64, len(micro))}
	var wg sync.WaitGroup
	errCh := make(chan error, len(micro)+1)
	for i, d := range micro {
		wg.Add(1)
		go func(i int, d *ray.Driver) {
			defer wg.Done()
			tput, err := microLoop(d, fns, i, window)
			if err != nil {
				errCh <- err
				return
			}
			stats.micro[i] = tput
		}(i, d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		iters, err := psLoop(psDriver, window)
		if err != nil {
			errCh <- err
			return
		}
		stats.psIters = iters
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	// Kill phase: terminate the greedy job while its flood is still running,
	// then verify cleanup and that the survivors keep producing correct
	// results.
	report, err := greedy.Kill(ctx)
	if err != nil {
		return nil, err
	}
	stats.kill = report
	stopFlood()
	floodWG.Wait()

	if report.ActorsStopped != 1 {
		return nil, fmt.Errorf("bench: greedy kill stopped %d actors, want 1", report.ActorsStopped)
	}
	if report.ObjectsReleased == 0 {
		return nil, fmt.Errorf("bench: greedy kill released no objects")
	}
	for _, n := range rt.Cluster().AliveNodes() {
		if n.Workers().HasActor(greedyActor.ID) {
			return nil, fmt.Errorf("bench: greedy actor still hosted after kill")
		}
	}
	// Submissions racing the kill may slip into a slot queue after the purge;
	// they are dropped at dispatch (dead job context), so the greedy queues
	// drain to zero promptly.
	if err := waitGreedyDrained(rt, greedy.Job, 2*time.Second); err != nil {
		return nil, err
	}
	if entry, ok, err := rt.Cluster().GCS().GetObject(ctx, greedyPut); err != nil {
		return nil, err
	} else if ok && len(entry.Locations) > 0 {
		return nil, fmt.Errorf("bench: greedy object still has replicas after kill: %v", entry.Locations)
	}
	if entry, ok, err := rt.Cluster().GCS().GetJob(ctx, greedy.Job); err != nil || !ok || entry.State != types.JobKilled {
		return nil, fmt.Errorf("bench: greedy job entry %+v (ok=%v err=%v), want KILLED", entry, ok, err)
	}

	// Survivors complete a post-kill round with correct results (microLoop
	// verifies every value).
	for i, d := range micro {
		if _, err := microLoop(d, fns, i, 150*time.Millisecond); err != nil {
			return nil, fmt.Errorf("bench: surviving driver broken after kill: %w", err)
		}
	}
	if _, err := psLoop(psDriver, 150*time.Millisecond); err != nil {
		return nil, fmt.Errorf("bench: surviving ps driver broken after kill: %w", err)
	}
	return stats, nil
}
