package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ray/internal/job"
	"ray/internal/task"
	"ray/internal/types"
)

// forwardTicket is one task waiting in the fair-share dispatch queue for a
// global-scheduler placement. Its submitter blocks on done, so placement
// errors propagate to the caller.
type forwardTicket struct {
	ctx  context.Context
	spec *task.Spec
	done chan error
}

// dispatcher is the cluster's fair-share forward path: tasks a local
// scheduler declined are queued per job and placed by a fixed pool of
// dispatch workers in deficit-round-robin order, so one greedy job's
// spillover burst cannot monopolize the global schedulers while other jobs'
// forwards starve behind it. Placement itself (global scheduler decision +
// SubmitPlaced) is unchanged; only the order of service is.
type dispatcher struct {
	c *Cluster

	mu      sync.Mutex
	cond    *sync.Cond
	q       *job.FairQueue[*forwardTicket] //guard:by mu
	stopped bool                           //guard:by mu

	dispatched atomic.Int64
	purged     atomic.Int64
}

// dispatchWorkers is the number of dispatch goroutines: how many placements
// (global scheduler decision + SubmitPlaced) run at once.
const dispatchWorkers = 16

// newDispatcher starts the dispatch goroutines.
func newDispatcher(c *Cluster, weight func(types.JobID) int) *dispatcher {
	d := &dispatcher{c: c, q: job.NewFairQueue[*forwardTicket](weight)}
	d.cond = sync.NewCond(&d.mu)
	for i := 0; i < dispatchWorkers; i++ {
		go d.loop()
	}
	return d
}

// forward enqueues the task and blocks until a dispatch worker has placed it
// (or placement failed, or the caller's context ended). The queue position —
// not the outcome — is what fair share governs.
func (d *dispatcher) forward(ctx context.Context, spec *task.Spec) error {
	t := &forwardTicket{ctx: ctx, spec: spec, done: make(chan error, 1)}
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return fmt.Errorf("cluster: dispatcher: %w", types.ErrShutdown)
	}
	d.q.Push(spec.Job, t)
	d.mu.Unlock()
	d.cond.Signal()
	select {
	case err := <-t.done:
		return err
	case <-ctx.Done():
		// The ticket stays queued; the worker that eventually pops it finds
		// the context dead and placeTask fails fast into the buffered done.
		return ctx.Err()
	}
}

func (d *dispatcher) loop() {
	for {
		d.mu.Lock()
		for d.q.Len() == 0 && !d.stopped {
			d.cond.Wait()
		}
		t, ok := d.q.Pop()
		d.mu.Unlock()
		if !ok {
			// Stopped with an empty queue.
			return
		}
		d.dispatched.Add(1)
		t.done <- d.c.placeTask(t.ctx, t.spec)
	}
}

// purge drops every queued ticket of one job (job-exit cleanup); their
// submitters observe ErrJobTerminated.
func (d *dispatcher) purge(jobID types.JobID) int {
	d.mu.Lock()
	tickets := d.q.Purge(jobID)
	d.mu.Unlock()
	for _, t := range tickets {
		t.done <- fmt.Errorf("cluster: job %s: %w", jobID, types.ErrJobTerminated)
	}
	d.purged.Add(int64(len(tickets)))
	return len(tickets)
}

// stop wakes the workers (they exit once the queue is drained) and fails any
// remaining tickets with ErrShutdown.
func (d *dispatcher) stop() {
	d.mu.Lock()
	d.stopped = true
	var rest []*forwardTicket
	for {
		t, ok := d.q.Pop()
		if !ok {
			break
		}
		rest = append(rest, t)
	}
	d.mu.Unlock()
	d.cond.Broadcast()
	for _, t := range rest {
		t.done <- fmt.Errorf("cluster: dispatcher: %w", types.ErrShutdown)
	}
}

// pendingFor reports how many of the job's forwards await dispatch.
func (d *dispatcher) pendingFor(jobID types.JobID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.q.PendingFor(jobID)
}
