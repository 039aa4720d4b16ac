// Package paramserver implements a sharded parameter server on top of Ray
// actors, the pattern the paper highlights as a canonical use of stateful
// computation (Sections 2 and 5.2.1): model weights are partitioned across
// shard actors; training replicas push gradients to every shard and read back
// either the summed gradients or the updated weights.
package paramserver

import (
	"fmt"
	"sync"

	"ray/internal/codec"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// shardActorName is the registered actor class for parameter-server shards.
const shardActorName = "paramserver.Shard"

// The shard class handle and its declared methods. Each declaration installs
// the callee-side dispatch entry on the class's method table and mints the
// typed caller handle the Server methods use — the shard type itself carries
// no dispatch code. Register runs the declarations against every runtime it
// is given; the minted handle values are identical each time (they carry only
// class and method names), so the package globals are assigned exactly once,
// making concurrent Register calls for separate runtimes race-free.
var (
	handlesOnce    sync.Once
	shardClass     ray.Class2[shard, []float64, float64]
	pushMethod     ray.ClassMethod1[shard, []float64, bool]
	sumMethod      ray.ClassMethod0[shard, []float64]
	applyMethod    ray.ClassMethod0[shard, []float64]
	weightsMethod  ray.ClassMethod0[shard, []float64]
	setWeightsMeth ray.ClassMethod1[shard, []float64, bool]
)

// Register publishes the shard actor class and its method table with the
// runtime. Call once per runtime before creating servers.
func Register(rt *ray.Runtime) error {
	class, err := ray.RegisterActorClass2(rt, shardActorName, "parameter server shard",
		func(ctx *ray.Context, weights []float64, lr float64) (*shard, error) {
			return &shard{
				weights: append([]float64(nil), weights...),
				gradSum: make([]float64, len(weights)),
				lr:      lr,
			}, nil
		})
	if err != nil {
		return err
	}
	// push(gradChunk): accumulate one replica's gradient.
	push, err := ray.ActorMethod1(class, "push",
		func(ctx *ray.Context, s *shard, grad []float64) (bool, error) {
			if len(grad) != len(s.gradSum) {
				return false, fmt.Errorf("paramserver: gradient length %d != shard size %d", len(grad), len(s.gradSum))
			}
			for i, g := range grad {
				s.gradSum[i] += g
			}
			s.pushes++
			return true, nil
		})
	if err != nil {
		return err
	}
	// sum(): return the accumulated gradient without applying it.
	sum, err := ray.ActorMethod0(class, "sum",
		func(ctx *ray.Context, s *shard) ([]float64, error) {
			return append([]float64(nil), s.gradSum...), nil
		})
	if err != nil {
		return err
	}
	// apply(): average the accumulated gradients, take one SGD step, reset
	// the accumulator, and return the new weights.
	apply, err := ray.ActorMethod0(class, "apply",
		func(ctx *ray.Context, s *shard) ([]float64, error) {
			if s.pushes > 0 {
				scale := 1 / float64(s.pushes)
				for i := range s.weights {
					s.weights[i] -= s.lr * s.gradSum[i] * scale
					s.gradSum[i] = 0
				}
				s.pushes = 0
			}
			return append([]float64(nil), s.weights...), nil
		})
	if err != nil {
		return err
	}
	weights, err := ray.ActorMethod0(class, "weights",
		func(ctx *ray.Context, s *shard) ([]float64, error) {
			return append([]float64(nil), s.weights...), nil
		})
	if err != nil {
		return err
	}
	setWeights, err := ray.ActorMethod1(class, "set_weights",
		func(ctx *ray.Context, s *shard, w []float64) (bool, error) {
			if len(w) != len(s.weights) {
				return false, fmt.Errorf("paramserver: weight length %d != shard size %d", len(w), len(s.weights))
			}
			copy(s.weights, w)
			return true, nil
		})
	if err != nil {
		return err
	}
	handlesOnce.Do(func() {
		shardClass, pushMethod, sumMethod = class, push, sum
		applyMethod, weightsMethod, setWeightsMeth = apply, weights, setWeights
	})
	return nil
}

// shard holds one partition of the model parameters plus the gradient
// accumulator for the current synchronous iteration. Methods are declared on
// the class's method table in Register; the type only implements the
// checkpoint hooks.
type shard struct {
	weights []float64
	gradSum []float64
	pushes  int
	lr      float64
}

// Checkpoint implements worker.Checkpointable so parameter servers can be
// reconstructed cheaply after a failure.
func (s *shard) Checkpoint() ([]byte, error) {
	return codec.Encode(s.weights)
}

// Restore implements worker.Checkpointable.
func (s *shard) Restore(data []byte) error {
	return codec.Decode(data, &s.weights)
}

// Config describes a sharded parameter server.
type Config struct {
	// Shards is the number of shard actors.
	Shards int
	// LearningRate is the SGD step applied by "apply".
	LearningRate float64
	// PinToNodes places shard i on node i+NodeOffset (requires LabelNodes).
	PinToNodes bool
	// NodeOffset shifts the node index used when pinning.
	NodeOffset int
	// GPUsPerShard optionally reserves GPUs for each shard actor.
	GPUsPerShard float64
}

// Server is a sharded parameter server.
type Server struct {
	shards  []*ray.ActorOf[shard]
	bounds  []int // bounds[i] is the start offset of shard i; len = Shards+1
	numDims int
}

// New creates a parameter server holding the given initial parameter vector,
// split as evenly as possible across cfg.Shards shard actors. Register must
// have run on the runtime first.
func New(ctx *worker.TaskContext, cfg Config, initial []float64) (*Server, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("paramserver: empty initial parameters")
	}
	s := &Server{numDims: len(initial)}
	per := (len(initial) + cfg.Shards - 1) / cfg.Shards
	for i := 0; i < cfg.Shards; i++ {
		lo := i * per
		if lo > len(initial) {
			lo = len(initial)
		}
		hi := lo + per
		if hi > len(initial) {
			hi = len(initial)
		}
		s.bounds = append(s.bounds, lo)
		var opts []ray.Option
		if cfg.GPUsPerShard > 0 {
			opts = append(opts, ray.WithGPUs(cfg.GPUsPerShard))
		}
		if cfg.PinToNodes {
			opts = append(opts, ray.OnNode(i+cfg.NodeOffset))
		}
		h, err := shardClass.New(ctx, initial[lo:hi], cfg.LearningRate, opts...)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, h)
	}
	s.bounds = append(s.bounds, len(initial))
	return s, nil
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Dim returns the total parameter dimensionality.
func (s *Server) Dim() int { return s.numDims }

// Split partitions a full-length vector into per-shard chunks.
func (s *Server) Split(v []float64) ([][]float64, error) {
	if len(v) != s.numDims {
		return nil, fmt.Errorf("paramserver: vector length %d != %d", len(v), s.numDims)
	}
	out := make([][]float64, len(s.shards))
	for i := range s.shards {
		out[i] = v[s.bounds[i]:s.bounds[i+1]]
	}
	return out, nil
}

// PushGradient sends the per-shard chunks of a full gradient to every shard.
// It returns the acknowledgement futures so callers can overlap pushes from
// several replicas before waiting (the pipelining the paper credits for
// matching Horovod).
func (s *Server) PushGradient(ctx *worker.TaskContext, grad []float64) ([]types.ObjectID, error) {
	chunks, err := s.Split(grad)
	if err != nil {
		return nil, err
	}
	acks := make([]types.ObjectID, len(s.shards))
	for i, chunk := range chunks {
		ack, err := pushMethod.Remote(ctx, s.shards[i], chunk)
		if err != nil {
			return nil, err
		}
		acks[i] = ack.Ref()
	}
	return acks, nil
}

// SumGradients returns the concatenated accumulated gradients without
// applying them.
func (s *Server) SumGradients(ctx *worker.TaskContext) ([]float64, error) {
	return s.gather(ctx, sumMethod)
}

// ApplyAndFetch applies the accumulated (averaged) gradients on every shard
// and returns the concatenated updated weights.
func (s *Server) ApplyAndFetch(ctx *worker.TaskContext) ([]float64, error) {
	return s.gather(ctx, applyMethod)
}

// Weights returns the concatenated current weights without applying updates.
func (s *Server) Weights(ctx *worker.TaskContext) ([]float64, error) {
	return s.gather(ctx, weightsMethod)
}

// SetWeights overwrites the weights on every shard from a full-length vector.
func (s *Server) SetWeights(ctx *worker.TaskContext, weights []float64) error {
	chunks, err := s.Split(weights)
	if err != nil {
		return err
	}
	for i, chunk := range chunks {
		ack, err := setWeightsMeth.Remote(ctx, s.shards[i], chunk)
		if err != nil {
			return err
		}
		if _, err := ray.Get(ctx, ack); err != nil {
			return err
		}
	}
	return nil
}

// gather invokes a no-argument vector method on every shard concurrently and
// concatenates the per-shard chunks in shard order.
func (s *Server) gather(ctx *worker.TaskContext, m ray.ClassMethod0[shard, []float64]) ([]float64, error) {
	refs := make([]ray.ObjectRef[[]float64], len(s.shards))
	for i, h := range s.shards {
		ref, err := m.Remote(ctx, h)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	out := make([]float64, 0, s.numDims)
	for _, ref := range refs {
		chunk, err := ray.Get(ctx, ref)
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}
