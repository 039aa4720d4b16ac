package scheduler

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
)

// gateRunner holds every task inside Run until the test lets it go, and
// reports when each one started.
type gateRunner struct {
	fakeRunner
	started chan startEvent
	mu      sync.Mutex
	gates   map[types.TaskID]chan struct{}
	// inRun, when set, runs inside the task (after it started, before it is
	// held), with the context the scheduler gave it.
	inRun func(ctx context.Context, spec *task.Spec)
}

type startEvent struct {
	id types.TaskID
	at time.Time
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan startEvent, 16), gates: make(map[types.TaskID]chan struct{})}
}

func (g *gateRunner) gate(id types.TaskID) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gates[id] == nil {
		g.gates[id] = make(chan struct{})
	}
	return g.gates[id]
}

func (g *gateRunner) Run(ctx context.Context, spec *task.Spec) error {
	g.started <- startEvent{spec.ID, time.Now()}
	if g.inRun != nil {
		g.inRun(ctx, spec)
	}
	<-g.gate(spec.ID)
	return g.fakeRunner.Run(ctx, spec)
}

// submitAndStart submits a task and waits until it runs.
func submitAndStart(t *testing.T, l *Local, g *gateRunner, spec *task.Spec) {
	t.Helper()
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-g.started:
		if ev.id != spec.ID {
			t.Fatalf("task %s started, want %s", ev.id, spec.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task did not start")
	}
}

// submitAndPark submits a task that cannot get its resources and waits until
// it is parked for them.
func submitAndPark(t *testing.T, l *Local, spec *task.Spec) {
	t.Helper()
	if err := l.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return parkedCount(l) == 1 }, "task parked on resources")
}

func parkedCount(l *Local) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.parked)
}

func oneCPU(cfg LocalConfig) LocalConfig {
	cfg.Pool = resources.NewNodePool(1, 0, 0)
	return cfg
}

// TestParkedTaskStartsOnRelease: a task waiting for resources is started by
// the release that frees them, not by a poll that notices later. The median
// from "holder let go" to "waiter running" was about 3 ms with the 5 ms poll.
func TestParkedTaskStartsOnRelease(t *testing.T) {
	g := newGateRunner()
	fwd := &fakeForwarder{}
	l := newLocal(oneCPU(LocalConfig{}), g, &fakePuller{}, fwd)
	const trials = 50
	delays := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		holder, waiter := simpleSpec(1), simpleSpec(1)
		submitAndStart(t, l, g, holder)
		submitAndPark(t, l, waiter)
		released := time.Now()
		close(g.gate(holder.ID))
		select {
		case ev := <-g.started:
			delays = append(delays, ev.at.Sub(released))
		case <-time.After(5 * time.Second):
			t.Fatal("parked task never started")
		}
		close(g.gate(waiter.ID))
		waitFor(t, func() bool { return l.Stats().Completed == int64(2*(i+1)) }, "both tasks complete")
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	if median := delays[trials/2]; median > time.Millisecond {
		t.Fatalf("median release-to-start %v (max %v): the waiter is not woken by the release", median, delays[trials-1])
	}
	if fwd.count() != 0 {
		t.Fatalf("%d tasks re-forwarded; none waited anywhere near 200 ms", fwd.count())
	}
}

// TestParkedTaskReforwardedAfterGiveUp: the bounded wait survives — a task the
// node cannot serve within 200 ms goes back to the global scheduler, and
// leaves nothing parked behind.
func TestParkedTaskReforwardedAfterGiveUp(t *testing.T) {
	g := newGateRunner()
	fwd := &fakeForwarder{}
	l := newLocal(oneCPU(LocalConfig{}), g, &fakePuller{}, fwd)
	holder, waiter := simpleSpec(1), simpleSpec(1)
	submitAndStart(t, l, g, holder)
	start := time.Now()
	submitAndPark(t, l, waiter)
	waitFor(t, func() bool { return fwd.count() == 1 }, "parked task re-forwarded")
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Fatalf("re-forwarded after %v, before the 200 ms give-up", waited)
	}
	if parkedCount(l) != 0 {
		t.Fatal("the re-forwarded task is still parked")
	}
	// The holder's release must not be handed to the task that left.
	close(g.gate(holder.ID))
	waitFor(t, func() bool { return l.Stats().Completed == 1 }, "holder completes")
	if free := l.cfg.Pool.Available(resources.CPU); free != 1 {
		t.Fatalf("%.0f CPUs free after everything finished, want 1", free)
	}
	if st := l.Stats(); st.Forwarded != 1 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDrainWakesParkedTasks: a drain fails the tasks parked for resources at
// once, but a running task that blocked (lending its resources out) and is
// waiting to resume stays parked through the drain and resumes on a release.
func TestDrainWakesParkedTasks(t *testing.T) {
	g := newGateRunner()
	blocked, resume, resumed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var parent *task.Spec
	g.inRun = func(ctx context.Context, spec *task.Spec) {
		if spec.ID != parent.ID {
			return
		}
		hooks, _ := types.BlockHooksFrom(ctx)
		hooks.OnBlock()
		close(blocked)
		<-resume
		hooks.OnUnblock()
		close(resumed)
	}
	l := newLocal(oneCPU(LocalConfig{}), g, &fakePuller{}, &fakeForwarder{})
	parent = simpleSpec(1)
	holder, waiter := simpleSpec(1), simpleSpec(1)
	submitAndStart(t, l, g, parent)
	<-blocked // the parent has lent its CPU out
	submitAndStart(t, l, g, holder)
	close(resume) // the parent wants its CPU back and parks for it
	waitFor(t, func() bool { return parkedCount(l) == 1 }, "parent parked to resume")
	if err := l.Submit(context.Background(), waiter); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return parkedCount(l) == 2 }, "waiter parked")

	drained := time.Now()
	l.Drain()
	waitFor(t, func() bool { return l.Stats().Failed == 1 }, "parked task failed by the drain")
	if took := time.Since(drained); took > 100*time.Millisecond {
		t.Fatalf("drain took %v to reach the parked task: it waited out its give-up timer", took)
	}
	waitFor(t, func() bool { return parkedCount(l) == 1 }, "parent parked again after the drain")
	select {
	case <-resumed:
		t.Fatal("the drain let the parent resume without its resources")
	default:
	}
	close(g.gate(holder.ID))
	select {
	case <-resumed:
	case <-time.After(5 * time.Second):
		t.Fatal("parent never resumed after the holder released")
	}
	close(g.gate(parent.ID))
	waitFor(t, func() bool { return l.Stats().Completed == 2 }, "parent and holder complete")
}

// TestReleaseWakesOnlyWhatItGrants: tasks resuming from a blocking Get
// re-acquire outside the slot bound, so thousands can park for resources at
// once. A release must not wake them all to race for what it freed: it
// acquires on behalf of exactly the tasks it lets run, so the resources are
// taken again by the time it returns and everyone else stays parked.
func TestReleaseWakesOnlyWhatItGrants(t *testing.T) {
	const tasks = 2000
	l := newLocal(LocalConfig{}, &fakeRunner{}, &fakePuller{}, &fakeForwarder{})
	if !l.acquire(resources.CPUs(4), 0) {
		t.Fatal("could not take the pool")
	}
	running := make(chan struct{}, tasks)
	finish := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !l.acquire(resources.CPUs(1), 0) {
				t.Error("acquire without a give-up failed")
			}
			running <- struct{}{}
			<-finish
			l.release(resources.CPUs(1))
		}()
	}
	waitFor(t, func() bool { return parkedCount(l) == tasks }, "every task parked")

	granted := 0
	for _, free := range []int{1, 3} { // release 1 CPU, then the other 3
		l.release(resources.CPUs(float64(free)))
		granted += free
		if n, left := parkedCount(l), l.cfg.Pool.Available(resources.CPU); n != tasks-granted || left != 0 {
			t.Fatalf("after releasing %v CPUs: %d parked (want %d), %v CPUs still free (want 0: granted under the lock)",
				free, n, tasks-granted, left)
		}
	}
	for i := 0; i < 4; i++ {
		<-running
	}
	select {
	case <-running:
		t.Fatal("a fifth task runs on 4 CPUs")
	case <-time.After(20 * time.Millisecond):
	}
	// Every finishing task hands its CPU to one parked task: the rest drain.
	close(finish)
	wg.Wait()
	if n, free := parkedCount(l), l.cfg.Pool.Available(resources.CPU); n != 0 || free != 4 {
		t.Fatalf("%d tasks left parked, %v CPUs free; want 0 and 4", n, free)
	}
}
