// Package collective implements distributed communication primitives on top
// of the Ray API — exactly as the paper does (Section 5.1 "Allreduce" and the
// ES aggregation tree of Section 5.3.1): a ring allreduce built from actor
// method calls whose data moves through the distributed object store, a
// broadcast helper, and a tree reduction built from nested tasks.
//
// Nothing in this package touches the system layer directly; it is an
// application of the public API, which is the point the paper makes — these
// primitives usually require a dedicated system (MPI, Horovod), but Ray's
// general-purpose API can express them with competitive performance.
package collective

import (
	"fmt"
	"math/rand"
	"time"

	"ray/internal/cluster"
	"ray/internal/codec"
	"ray/internal/nn"
	"ray/internal/resources"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// Names under which this package registers its remote functions and actors.
const (
	reducerActorName  = "collective.Reducer"
	sumVectorsName    = "collective.sum_vectors"
	generateChunkName = "collective.generate_vector"
)

// Register publishes the collective primitives' remote functions and actor
// classes with the runtime. It must be called once before using the package.
// The reducer's methods live on its registration-time method table, so the
// reducer type itself carries no dispatch code.
func Register(rt *ray.Runtime) error {
	if err := rt.RegisterActorClass(reducerActorName, "ring allreduce participant", newReducer); err != nil {
		return err
	}
	for _, m := range []struct {
		name       string
		numArgs    int
		numReturns int
		impl       worker.ActorMethodImpl
	}{
		{"load", 1, 1, reducerMethod(reducerLoad)},
		{"emit", 1, 1, reducerMethod(reducerEmit)},
		{"accumulate", 2, 1, reducerMethod(reducerAccumulate)},
		{"set", 2, 1, reducerMethod(reducerSet)},
		{"result", 0, 1, reducerMethod(reducerResult)},
	} {
		if err := rt.RegisterActorMethod(reducerActorName, m.name, m.numArgs, m.numReturns, m.impl); err != nil {
			return err
		}
	}
	if err := rt.RegisterN(sumVectorsName, "sums float64 vectors (tree reduction node)", 1, sumVectors); err != nil {
		return err
	}
	return rt.RegisterN(generateChunkName, "generates a deterministic random vector", 1, generateVector)
}

// --- Reducer actor -------------------------------------------------------------

// reducer is one ring-allreduce participant: it owns a local vector split
// into one chunk per participant.
type reducer struct {
	chunks [][]float64
	n      int
}

func newReducer(ctx *worker.TaskContext, args [][]byte) (any, error) {
	var n int
	if err := codec.Decode(args[0], &n); err != nil {
		return nil, err
	}
	return &reducer{n: n, chunks: make([][]float64, n)}, nil
}

// reducerMethod adapts a typed reducer method into a method-table entry.
func reducerMethod(impl func(r *reducer, args [][]byte) ([][]byte, error)) worker.ActorMethodImpl {
	return func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
		r, ok := state.(*reducer)
		if !ok {
			return nil, fmt.Errorf("collective: reducer instance is %T", state)
		}
		return impl(r, args)
	}
}

// reducerLoad splits the local contribution into n chunks.
func reducerLoad(r *reducer, args [][]byte) ([][]byte, error) {
	var v []float64
	if err := codec.Decode(args[0], &v); err != nil {
		return nil, err
	}
	r.load(v)
	return [][]byte{codec.MustEncode(true)}, nil
}

// reducerEmit returns chunk idx.
func reducerEmit(r *reducer, args [][]byte) ([][]byte, error) {
	var idx int
	if err := codec.Decode(args[0], &idx); err != nil {
		return nil, err
	}
	return [][]byte{codec.MustEncode(r.chunks[idx])}, nil
}

// reducerAccumulate adds an incoming chunk into chunk idx.
func reducerAccumulate(r *reducer, args [][]byte) ([][]byte, error) {
	var idx int
	if err := codec.Decode(args[0], &idx); err != nil {
		return nil, err
	}
	var incoming []float64
	if err := codec.Decode(args[1], &incoming); err != nil {
		return nil, err
	}
	for i := range incoming {
		r.chunks[idx][i] += incoming[i]
	}
	return [][]byte{codec.MustEncode(true)}, nil
}

// reducerSet replaces chunk idx with an incoming reduced chunk.
func reducerSet(r *reducer, args [][]byte) ([][]byte, error) {
	var idx int
	if err := codec.Decode(args[0], &idx); err != nil {
		return nil, err
	}
	var incoming []float64
	if err := codec.Decode(args[1], &incoming); err != nil {
		return nil, err
	}
	r.chunks[idx] = incoming
	return [][]byte{codec.MustEncode(true)}, nil
}

// reducerResult concatenates the chunks back into the full vector.
func reducerResult(r *reducer, args [][]byte) ([][]byte, error) {
	out := make([]float64, 0)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return [][]byte{codec.MustEncode(out)}, nil
}

func (r *reducer) load(v []float64) {
	chunkLen := (len(v) + r.n - 1) / r.n
	for i := 0; i < r.n; i++ {
		lo := i * chunkLen
		hi := lo + chunkLen
		if lo > len(v) {
			lo = len(v)
		}
		if hi > len(v) {
			hi = len(v)
		}
		chunk := make([]float64, hi-lo)
		copy(chunk, v[lo:hi])
		r.chunks[i] = chunk
	}
}

// --- Ring allreduce --------------------------------------------------------------

// RingConfig configures a ring allreduce.
type RingConfig struct {
	// Participants is the number of reducer actors in the ring.
	Participants int
	// PinToNodes places participant i on node i via the node-label custom
	// resource (requires ray.Config.LabelNodes).
	PinToNodes bool
}

// Ring is a set of reducer actors arranged in a ring.
type Ring struct {
	actors []*worker.ActorHandle
	n      int
}

// NewRing creates the ring's reducer actors.
func NewRing(ctx *worker.TaskContext, cfg RingConfig) (*Ring, error) {
	if cfg.Participants < 2 {
		return nil, fmt.Errorf("collective: a ring needs at least 2 participants, got %d", cfg.Participants)
	}
	ring := &Ring{n: cfg.Participants}
	for i := 0; i < cfg.Participants; i++ {
		opts := worker.CallOptions{}
		if cfg.PinToNodes {
			opts.Resources = resources.NewRequest(map[string]float64{cluster.NodeLabel(i): 1})
		}
		h, err := ctx.CreateActor(reducerActorName, opts, cfg.Participants)
		if err != nil {
			return nil, err
		}
		ring.actors = append(ring.actors, h)
	}
	return ring, nil
}

// Load installs each participant's local contribution (one vector per
// participant, all the same length).
func (r *Ring) Load(ctx *worker.TaskContext, contributions [][]float64) error {
	if len(contributions) != r.n {
		return fmt.Errorf("collective: need %d contributions, got %d", r.n, len(contributions))
	}
	acks := make([]types.ObjectID, 0, r.n)
	for i, v := range contributions {
		ref, err := ctx.CallActor1(r.actors[i], "load", worker.CallOptions{}, v)
		if err != nil {
			return err
		}
		acks = append(acks, ref)
	}
	return waitAll(ctx, acks)
}

// LoadRandom installs deterministic pseudo-random contributions of the given
// length, generating them on the participants themselves (so the driver never
// ships the full vectors). Used by the allreduce benchmark.
func (r *Ring) LoadRandom(ctx *worker.TaskContext, length int, seed int64) error {
	acks := make([]types.ObjectID, 0, r.n)
	for i := range r.actors {
		gen, err := ctx.Call1(generateChunkName, worker.CallOptions{}, length, seed+int64(i))
		if err != nil {
			return err
		}
		ack, err := ctx.CallActor1(r.actors[i], "load", worker.CallOptions{}, gen)
		if err != nil {
			return err
		}
		acks = append(acks, ack)
	}
	return waitAll(ctx, acks)
}

// Allreduce runs one ring allreduce over the loaded contributions and returns
// the wall-clock duration. Afterwards every participant holds the element-wise
// sum; call Result to read it back.
//
// The schedule is the classic 2(n-1)-round ring: n-1 scatter-reduce rounds in
// which each participant forwards one chunk to its successor, then n-1
// allgather rounds that circulate the reduced chunks. Each hop is an actor
// method call whose payload travels through the object store.
func (r *Ring) Allreduce(ctx *worker.TaskContext) (time.Duration, error) {
	start := time.Now()
	n := r.n
	// Scatter-reduce phase.
	for round := 0; round < n-1; round++ {
		acks := make([]types.ObjectID, 0, n)
		for i := 0; i < n; i++ {
			chunk := ((i-round)%n + n) % n
			out, err := ctx.CallActor1(r.actors[i], "emit", worker.CallOptions{}, chunk)
			if err != nil {
				return 0, err
			}
			ack, err := ctx.CallActor1(r.actors[(i+1)%n], "accumulate", worker.CallOptions{}, chunk, out)
			if err != nil {
				return 0, err
			}
			acks = append(acks, ack)
		}
		if err := waitAll(ctx, acks); err != nil {
			return 0, err
		}
	}
	// Allgather phase.
	for round := 0; round < n-1; round++ {
		acks := make([]types.ObjectID, 0, n)
		for i := 0; i < n; i++ {
			chunk := ((i+1-round)%n + n) % n
			out, err := ctx.CallActor1(r.actors[i], "emit", worker.CallOptions{}, chunk)
			if err != nil {
				return 0, err
			}
			ack, err := ctx.CallActor1(r.actors[(i+1)%n], "set", worker.CallOptions{}, chunk, out)
			if err != nil {
				return 0, err
			}
			acks = append(acks, ack)
		}
		if err := waitAll(ctx, acks); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Result returns participant i's full reduced vector.
func (r *Ring) Result(ctx *worker.TaskContext, i int) ([]float64, error) {
	ref, err := ctx.CallActor1(r.actors[i], "result", worker.CallOptions{})
	if err != nil {
		return nil, err
	}
	var out []float64
	if err := ctx.Get(ref, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Participants returns the number of ring members.
func (r *Ring) Participants() int { return r.n }

func waitAll(ctx *worker.TaskContext, refs []types.ObjectID) error {
	for _, ref := range refs {
		var ok bool
		if err := ctx.Get(ref, &ok); err != nil {
			return err
		}
	}
	return nil
}

// --- Broadcast and tree reduction --------------------------------------------------

// Broadcast stores a value once and returns a reference every consumer can
// use; the object store replicates it to each node on demand, so the driver
// serializes the value exactly once regardless of the number of consumers.
func Broadcast(ctx *worker.TaskContext, value any) (types.ObjectID, error) {
	return ctx.Put(value)
}

// sumVectors is the tree-reduction node: it sums its argument vectors.
func sumVectors(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
	var sum []float64
	for _, arg := range args {
		var v []float64
		if err := codec.Decode(arg, &v); err != nil {
			return nil, err
		}
		if sum == nil {
			sum = append([]float64(nil), v...)
			continue
		}
		if len(v) != len(sum) {
			return nil, fmt.Errorf("collective: tree reduce length mismatch %d vs %d", len(v), len(sum))
		}
		for i := range v {
			sum[i] += v[i]
		}
	}
	if sum == nil {
		sum = []float64{}
	}
	return [][]byte{codec.MustEncode(sum)}, nil
}

// generateVector produces a deterministic pseudo-random vector (used so
// benchmark payloads are generated where they are consumed).
func generateVector(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
	var length int
	if err := codec.Decode(args[0], &length); err != nil {
		return nil, err
	}
	var seed int64
	if err := codec.Decode(args[1], &seed); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	v := nn.RandomVector(length, 1, rng)
	return [][]byte{codec.MustEncode([]float64(v))}, nil
}

// TreeReduce sums the vectors referenced by refs using a tree of nested
// remote tasks with the given fan-in. This is the hierarchical aggregation
// pattern the paper's ES implementation uses to avoid a driver bottleneck
// (Section 5.3.1): no single process ever receives more than fanin inputs.
func TreeReduce(ctx *worker.TaskContext, refs []types.ObjectID, fanin int) (types.ObjectID, error) {
	if len(refs) == 0 {
		return types.ObjectID{}, fmt.Errorf("collective: tree reduce of zero inputs")
	}
	if fanin < 2 {
		fanin = 2
	}
	level := refs
	for len(level) > 1 {
		var next []types.ObjectID
		for lo := 0; lo < len(level); lo += fanin {
			hi := lo + fanin
			if hi > len(level) {
				hi = len(level)
			}
			args := make([]any, 0, hi-lo)
			for _, ref := range level[lo:hi] {
				args = append(args, ref)
			}
			out, err := ctx.Call1(sumVectorsName, worker.CallOptions{}, args...)
			if err != nil {
				return types.ObjectID{}, err
			}
			next = append(next, out)
		}
		level = next
	}
	return level[0], nil
}
