package job

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ray/internal/gcs"
	"ray/internal/telemetry"
	"ray/internal/types"
)

// --- FairQueue ---------------------------------------------------------------

// TestFairQueueFIFOWithinJob: one job's items pop in insertion order.
func TestFairQueueFIFOWithinJob(t *testing.T) {
	q := NewFairQueue[int](nil)
	job := types.NewJobID()
	for i := 0; i < 100; i++ {
		q.Push(job, i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %v ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("empty queue should not pop")
	}
}

// TestFairQueueRoundRobin: with equal weights, a backlogged job cannot take
// more than its per-round share even if it queued far more work.
func TestFairQueueRoundRobin(t *testing.T) {
	q := NewFairQueue[string](nil)
	greedy, fair := types.NewJobID(), types.NewJobID()
	for i := 0; i < 1000; i++ {
		q.Push(greedy, "g")
	}
	for i := 0; i < 10; i++ {
		q.Push(fair, "f")
	}
	// Within the first 20 pops the fair job must have been served ~10 times
	// (one per round), not pushed behind the greedy backlog.
	fairServed := 0
	for i := 0; i < 20; i++ {
		v, _ := q.Pop()
		if v == "f" {
			fairServed++
		}
	}
	if fairServed != 10 {
		t.Fatalf("fair job served %d of its 10 items in 20 pops; want all 10", fairServed)
	}
}

// TestFairQueueWeights: a weight-3 job gets three slots per round.
func TestFairQueueWeights(t *testing.T) {
	heavy, light := types.NewJobID(), types.NewJobID()
	weights := map[types.JobID]int{heavy: 3, light: 1}
	q := NewFairQueue[string](func(j types.JobID) int { return weights[j] })
	for i := 0; i < 30; i++ {
		q.Push(heavy, "h")
		if i < 10 {
			q.Push(light, "l")
		}
	}
	heavyServed := 0
	for i := 0; i < 12; i++ { // three full rounds of (3 heavy + 1 light)
		v, _ := q.Pop()
		if v == "h" {
			heavyServed++
		}
	}
	if heavyServed != 9 {
		t.Fatalf("weight-3 job served %d of first 12; want 9", heavyServed)
	}
}

// TestFairQueuePurge removes exactly one job's items and keeps serving the
// rest.
func TestFairQueuePurge(t *testing.T) {
	q := NewFairQueue[int](nil)
	a, b := types.NewJobID(), types.NewJobID()
	for i := 0; i < 5; i++ {
		q.Push(a, i)
		q.Push(b, 100+i)
	}
	dropped := q.Purge(a)
	if len(dropped) != 5 {
		t.Fatalf("purged %d items, want 5", len(dropped))
	}
	if q.Len() != 5 {
		t.Fatalf("len after purge = %d, want 5", q.Len())
	}
	for i := 0; i < 5; i++ {
		v, ok := q.Pop()
		if !ok || v != 100+i {
			t.Fatalf("pop after purge: got %v ok=%v", v, ok)
		}
	}
	if got := q.Purge(a); got != nil {
		t.Fatalf("purging an absent job should return nil, got %v", got)
	}
}

// --- Manager -----------------------------------------------------------------

// countingHooks records cleanup invocations.
type countingHooks struct {
	mu      sync.Mutex
	tasks   int
	actors  int
	objects int
	jobs    []types.JobID
}

func (h *countingHooks) CancelJobTasks(job types.JobID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tasks++
	h.jobs = append(h.jobs, job)
	return 3
}

func (h *countingHooks) StopJobActors(ctx context.Context, job types.JobID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.actors++
	return 2
}

func (h *countingHooks) ReleaseJobObjects(ctx context.Context, job types.JobID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.objects++
	return 7
}

func newTestStore() *gcs.Store {
	return gcs.New(gcs.Config{Shards: 2, ReplicationFactor: 1})
}

// eventLog returns the events in store's span table as "kind subject"
// lines, in append order.
func eventLog(t *testing.T, store *gcs.Store) []string {
	t.Helper()
	spans, err := store.Spans(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sp := range spans {
		if sp.Phase == telemetry.PhaseEvent {
			out = append(out, sp.Name+" "+sp.Node+sp.Job+sp.Task)
		}
	}
	return out
}

// TestManagerLifecycle: register → running entry + live context; finish →
// terminal entry, cancelled context, hooks invoked once, durable state.
func TestManagerLifecycle(t *testing.T) {
	store := newTestStore()
	defer store.Close()
	hooks := &countingHooks{}
	m := NewManager(store, hooks)
	ctx := context.Background()

	id, jobCtx, err := m.Register(ctx, Options{Name: "train", Weight: 2}, types.NewDriverID(), types.NewNodeID())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !m.Alive(id) || m.Weight(id) != 2 {
		t.Fatalf("live state wrong: alive=%v weight=%d", m.Alive(id), m.Weight(id))
	}
	entry, ok, err := store.GetJob(ctx, id)
	if err != nil || !ok || entry.State != types.JobRunning || entry.Name != "train" {
		t.Fatalf("job entry wrong: %+v ok=%v err=%v", entry, ok, err)
	}

	report, err := m.Finish(ctx, id)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if report.TasksCancelled != 3 || report.ActorsStopped != 2 || report.ObjectsReleased != 7 {
		t.Fatalf("unexpected report %+v", report)
	}
	select {
	case <-jobCtx.Done():
	default:
		t.Fatal("job context not cancelled by Finish")
	}
	if m.Alive(id) {
		t.Fatal("job still alive after Finish")
	}
	if m.Weight(id) != 1 {
		t.Fatal("terminal job should weigh the default 1")
	}
	entry, _, _ = store.GetJob(ctx, id)
	if entry.State != types.JobFinished || entry.FinishUnixNano == 0 {
		t.Fatalf("entry not terminal: %+v", entry)
	}
	// The terminal state must be durable (flush-on-ack): read the chain
	// directly, bypassing the batching overlay, via a fresh commit future.
	if err := store.CommitFuture(types.UniqueID(id)).Wait(ctx); err != nil {
		t.Fatalf("commit future: %v", err)
	}

	// Second Finish (or Kill) is a no-op: hooks do not run again.
	if _, err := m.Kill(ctx, id); err != nil {
		t.Fatalf("Kill after Finish: %v", err)
	}
	if got, want := eventLog(t, store), []string{"job_registered " + id.String(), "job_finished " + id.String()}; !slices.Equal(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	hooks.mu.Lock()
	defer hooks.mu.Unlock()
	if hooks.tasks != 1 || hooks.actors != 1 || hooks.objects != 1 {
		t.Fatalf("hooks re-ran: %+v", hooks)
	}
}

// TestManagerKillRecordsKilled distinguishes the two terminal states.
func TestManagerKillRecordsKilled(t *testing.T) {
	store := newTestStore()
	defer store.Close()
	m := NewManager(store, nil)
	ctx := context.Background()
	id, _, err := m.Register(ctx, Options{}, types.NewDriverID(), types.NewNodeID())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := m.Kill(ctx, id); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	entry, _, _ := store.GetJob(ctx, id)
	if entry.State != types.JobKilled {
		t.Fatalf("state = %v, want KILLED", entry.State)
	}
	if got, want := eventLog(t, store), []string{"job_registered " + id.String(), "job_killed " + id.String()}; !slices.Equal(got, want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	st := m.Stats()
	if st.Killed != 1 || st.Registered != 1 || st.Live != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestManagerKillByTableID: killing a job this manager never saw live (an
// operator killing an ID read from the job table — the future reaper's
// path) still performs the transition and owns the cleanup.
func TestManagerKillByTableID(t *testing.T) {
	store := newTestStore()
	defer store.Close()
	hooks := &countingHooks{}
	m := NewManager(store, hooks)
	ctx := context.Background()
	id := types.NewJobID()
	if err := store.RegisterJob(ctx, &gcs.JobEntry{ID: id, Name: "orphan"}); err != nil {
		t.Fatalf("RegisterJob: %v", err)
	}
	if _, err := m.Kill(ctx, id); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	entry, _, _ := store.GetJob(ctx, id)
	if entry.State != types.JobKilled {
		t.Fatalf("state = %v, want KILLED", entry.State)
	}
	hooks.mu.Lock()
	ran := hooks.tasks
	hooks.mu.Unlock()
	if ran != 1 {
		t.Fatalf("cleanup hooks ran %d times for a table-only job, want 1", ran)
	}
	// A second kill is a no-op: the transition already happened.
	if _, err := m.Kill(ctx, id); err != nil {
		t.Fatalf("second Kill: %v", err)
	}
	hooks.mu.Lock()
	defer hooks.mu.Unlock()
	if hooks.tasks != 1 {
		t.Fatalf("cleanup re-ran: %d", hooks.tasks)
	}
}

// TestManagerConcurrentTerminate: many concurrent Finish/Kill calls on one
// job run cleanup exactly once.
func TestManagerConcurrentTerminate(t *testing.T) {
	store := newTestStore()
	defer store.Close()
	hooks := &countingHooks{}
	m := NewManager(store, hooks)
	ctx := context.Background()
	id, _, err := m.Register(ctx, Options{}, types.NewDriverID(), types.NewNodeID())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, _ = m.Finish(ctx, id)
			} else {
				_, _ = m.Kill(ctx, id)
			}
		}(i)
	}
	wg.Wait()
	hooks.mu.Lock()
	defer hooks.mu.Unlock()
	if hooks.tasks != 1 {
		t.Fatalf("cleanup ran %d times, want 1", hooks.tasks)
	}
}

// TestAliveRacesTerminate: the dispatch path asks Alive while a Kill removes
// the job; the read and the removal are ordered by mu (run with -race), and
// the job reads dead once Kill returns.
func TestAliveRacesTerminate(t *testing.T) {
	store := newTestStore()
	defer store.Close()
	m := NewManager(store, nil)
	ctx := context.Background()
	id, _, err := m.Register(ctx, Options{}, types.NewDriverID(), types.NewNodeID())
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	killed := make(chan error, 1)
	go func() {
		_, err := m.Kill(ctx, id)
		killed <- err
	}()
	for {
		select {
		case err := <-killed:
			if err != nil {
				t.Fatalf("Kill: %v", err)
			}
			if m.Alive(id) {
				t.Fatal("job alive after Kill returned")
			}
			return
		default:
			_ = m.Alive(id)
			runtime.Gosched()
		}
	}
}

// TestManagerConcurrentAttachDetach: many drivers registering and detaching
// concurrently (the job-lifecycle race test of the CI matrix).
func TestManagerConcurrentAttachDetach(t *testing.T) {
	store := newTestStore()
	defer store.Close()
	m := NewManager(store, &countingHooks{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, jobCtx, err := m.Register(ctx, Options{Name: fmt.Sprintf("drv-%d", i), Weight: 1 + i%3}, types.NewDriverID(), types.NewNodeID())
			if err != nil {
				errs <- err
				return
			}
			_ = m.Weight(id)
			if _, err := m.Finish(ctx, id); err != nil {
				errs <- err
				return
			}
			<-jobCtx.Done()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent attach/detach: %v", err)
	}
	st := m.Stats()
	if st.Registered != 32 || st.Finished != 32 || st.Live != 0 {
		t.Fatalf("stats %+v", st)
	}
	jobs, err := store.Jobs(ctx)
	if err != nil || len(jobs) != 32 {
		t.Fatalf("job table has %d entries (err=%v), want 32", len(jobs), err)
	}
	for _, j := range jobs {
		if j.State != types.JobFinished {
			t.Fatalf("job %s not finished: %v", j.ID, j.State)
		}
	}
}
