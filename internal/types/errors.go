package types

import "errors"

// Sentinel errors shared across subsystems. Callers should match them with
// errors.Is so wrapping with context is always safe.
var (
	// ErrObjectNotFound indicates an object is in neither the local store nor
	// any remote store known to the GCS.
	ErrObjectNotFound = errors.New("ray: object not found")

	// ErrObjectLost indicates an object existed but every replica was lost
	// (e.g. to node failure) and reconstruction is required.
	ErrObjectLost = errors.New("ray: object lost")

	// ErrTaskNotFound indicates the GCS task table has no entry for a task.
	ErrTaskNotFound = errors.New("ray: task not found")

	// ErrActorNotFound indicates an actor handle refers to an unknown actor.
	ErrActorNotFound = errors.New("ray: actor not found")

	// ErrActorDead indicates an actor's process has exited and the actor was
	// configured not to be reconstructed.
	ErrActorDead = errors.New("ray: actor dead")

	// ErrNodeNotFound indicates the node is not a member of the cluster.
	ErrNodeNotFound = errors.New("ray: node not found")

	// ErrNodeDead indicates an operation targeted a node that has failed.
	ErrNodeDead = errors.New("ray: node dead")

	// ErrFunctionNotFound indicates a remote function name is not registered.
	ErrFunctionNotFound = errors.New("ray: remote function not registered")

	// ErrMethodNotFound indicates an actor method name is not in its class's
	// registered method table.
	ErrMethodNotFound = errors.New("ray: actor method not registered")

	// ErrDuplicateMethod indicates an actor method name was declared twice for
	// the same class.
	ErrDuplicateMethod = errors.New("ray: actor method already registered")

	// ErrTimeout indicates an operation exceeded its deadline.
	ErrTimeout = errors.New("ray: timeout")

	// ErrStoreFull indicates the object store cannot admit an object even
	// after evicting every unpinned entry.
	ErrStoreFull = errors.New("ray: object store full")

	// ErrShutdown indicates the component has been stopped.
	ErrShutdown = errors.New("ray: component shut down")

	// ErrNoResources indicates no node in the cluster can ever satisfy the
	// task's resource request (infeasible task).
	ErrNoResources = errors.New("ray: resource request infeasible")

	// ErrWorkerCrashed indicates the worker executing a task crashed (used by
	// fault-injection tests and by application errors that escape a task).
	ErrWorkerCrashed = errors.New("ray: worker crashed")

	// ErrJobNotFound indicates the GCS job table has no entry for a job.
	ErrJobNotFound = errors.New("ray: job not found")

	// ErrJobTerminated indicates an operation targeted a job that has finished
	// or been killed: its queued tasks are cancelled, its lineage is no longer
	// replayable, and its actors and objects have been released.
	ErrJobTerminated = errors.New("ray: job terminated")

	// ErrArgumentMutated indicates a function or actor method wrote to one of
	// its argument buffers, which are read-only views of the object store
	// shared with every other reader on the node. Only a -race build checks
	// for it; the task's outputs become error objects naming the function
	// and the argument.
	ErrArgumentMutated = errors.New("ray: task wrote to a read-only argument")
)

// TaskError wraps an application-level error raised inside a remote function
// so it can be stored in the object store and re-raised at ray.Get.
type TaskError struct {
	TaskID  TaskID
	Message string
}

// Error implements the error interface.
func (e *TaskError) Error() string {
	return "ray: task " + e.TaskID.String() + " failed: " + e.Message
}
