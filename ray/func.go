package ray

import (
	"fmt"

	"ray/internal/codec"
	"ray/internal/worker"
)

// Func0 is a typed handle to a registered remote function taking no
// arguments and producing an R. Handles are only minted by the Register
// functions, so holding one proves the name is registered.
type Func0[R any] struct{ name string }

// Func1 is a typed handle to a registered remote function A -> R.
type Func1[A, R any] struct{ name string }

// Func2 is a typed handle to a registered remote function (A, B) -> R.
type Func2[A, B, R any] struct{ name string }

// Func3 is a typed handle to a registered remote function (A, B, C) -> R.
type Func3[A, B, C, R any] struct{ name string }

// Name returns the registered function name (for logs and debugging).
func (f Func0[R]) Name() string       { return f.name }
func (f Func1[A, R]) Name() string    { return f.name }
func (f Func2[A, B, R]) Name() string { return f.name }

// Name returns the registered function name (for logs and debugging).
func (f Func3[A, B, C, R]) Name() string { return f.name }

// Remote submits the task — the f.remote(args) of Table 1. It is
// non-blocking: the typed future of the function's output returns
// immediately.
func (f Func0[R]) Remote(c Caller, opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts)
}

// Remote submits the task with a concrete argument.
func (f Func1[A, R]) Remote(c Caller, a A, opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts, a)
}

// RemoteRef submits the task with a future argument: the dependency flows
// through the task graph, so the call never blocks on a's availability.
// Mix constants in with ValueRef.
func (f Func1[A, R]) RemoteRef(c Caller, a ObjectRef[A], opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts, a)
}

// Remote submits the task with concrete arguments.
func (f Func2[A, B, R]) Remote(c Caller, a A, b B, opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts, a, b)
}

// RemoteRef submits the task with future arguments (use ValueRef to mix in
// constants).
func (f Func2[A, B, R]) RemoteRef(c Caller, a ObjectRef[A], b ObjectRef[B], opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts, a, b)
}

// Remote submits the task with concrete arguments.
func (f Func3[A, B, C, R]) Remote(c Caller, a A, b B, cc C, opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts, a, b, cc)
}

// RemoteRef submits the task with future arguments (use ValueRef to mix in
// constants).
func (f Func3[A, B, C, R]) RemoteRef(c Caller, a ObjectRef[A], b ObjectRef[B], cc ObjectRef[C], opts ...Option) (ObjectRef[R], error) {
	return submit[R](c, f.name, opts, a, b, cc)
}

// submit is the shared typed submission path. Single-return typed handles
// expose exactly one return object, so a NumReturns(n>1) option is a caller
// bug — it would silently alias the typed ref to output 0 of an n-output
// task — and is rejected at call time. Use a FuncNR2-style pair handle or the
// FuncN escape hatch for multi-return functions.
func submit[R any](c Caller, name string, opts []Option, args ...any) (ObjectRef[R], error) {
	o := buildOpts(opts)
	if o.NumReturns > 1 {
		return ObjectRef[R]{}, fmt.Errorf(
			"ray: %s: NumReturns(%d) on a single-return typed handle; use a pair handle (Register0R2/1R2/2R2) or FuncN", name, o.NumReturns)
	}
	id, err := c.CallContext().Call1(name, o, args...)
	if err != nil {
		return ObjectRef[R]{}, err
	}
	return ObjectRef[R]{ID: id}, nil
}

// submit2 is the typed submission path for two-return handles: the task is
// always declared with two return objects, and a conflicting NumReturns
// option is rejected rather than silently reshaping the output list.
func submit2[R1, R2 any](c Caller, name string, opts []Option, args ...any) (ObjectRef[R1], ObjectRef[R2], error) {
	o := buildOpts(opts)
	if o.NumReturns != 0 && o.NumReturns != 2 {
		return ObjectRef[R1]{}, ObjectRef[R2]{}, fmt.Errorf(
			"ray: %s: NumReturns(%d) on a two-return typed handle", name, o.NumReturns)
	}
	o.NumReturns = 2
	ids, err := c.CallContext().Call(name, o, args...)
	if err != nil {
		return ObjectRef[R1]{}, ObjectRef[R2]{}, err
	}
	return ObjectRef[R1]{ID: ids[0]}, ObjectRef[R2]{ID: ids[1]}, nil
}

// Func0R2 is a typed handle to a registered remote function producing a pair
// (R1, R2) — each result is its own object, so consumers can Get (or chain
// on) either half independently.
type Func0R2[R1, R2 any] struct{ name string }

// Func1R2 is a typed handle to a registered remote function A -> (R1, R2).
type Func1R2[A, R1, R2 any] struct{ name string }

// Func2R2 is a typed handle to a registered remote function
// (A, B) -> (R1, R2).
type Func2R2[A, B, R1, R2 any] struct{ name string }

// Name returns the registered function name (for logs and debugging).
func (f Func0R2[R1, R2]) Name() string       { return f.name }
func (f Func1R2[A, R1, R2]) Name() string    { return f.name }
func (f Func2R2[A, B, R1, R2]) Name() string { return f.name }

// Remote submits the task; the typed futures of both outputs return
// immediately.
func (f Func0R2[R1, R2]) Remote(c Caller, opts ...Option) (ObjectRef[R1], ObjectRef[R2], error) {
	return submit2[R1, R2](c, f.name, opts)
}

// Remote submits the task with a concrete argument.
func (f Func1R2[A, R1, R2]) Remote(c Caller, a A, opts ...Option) (ObjectRef[R1], ObjectRef[R2], error) {
	return submit2[R1, R2](c, f.name, opts, a)
}

// RemoteRef submits the task with a future argument; the dependency flows
// through the task graph.
func (f Func1R2[A, R1, R2]) RemoteRef(c Caller, a ObjectRef[A], opts ...Option) (ObjectRef[R1], ObjectRef[R2], error) {
	return submit2[R1, R2](c, f.name, opts, a)
}

// Remote submits the task with concrete arguments.
func (f Func2R2[A, B, R1, R2]) Remote(c Caller, a A, b B, opts ...Option) (ObjectRef[R1], ObjectRef[R2], error) {
	return submit2[R1, R2](c, f.name, opts, a, b)
}

// RemoteRef submits the task with future arguments (use ValueRef to mix in
// constants).
func (f Func2R2[A, B, R1, R2]) RemoteRef(c Caller, a ObjectRef[A], b ObjectRef[B], opts ...Option) (ObjectRef[R1], ObjectRef[R2], error) {
	return submit2[R1, R2](c, f.name, opts, a, b)
}

// FuncN is the variadic escape hatch: an untyped handle for functions whose
// shape the typed handles cannot express (arity above three, multiple
// returns). Arguments are any mix of Go values, ObjectRef futures, and
// RawRefs; every return object is exposed.
type FuncN struct {
	name string
	opts []Option
}

// Name returns the registered function name.
func (f FuncN) Name() string { return f.name }

// With returns a copy of the handle with the options pre-bound; Remote
// appends its own options after these.
func (f FuncN) With(opts ...Option) FuncN {
	bound := make([]Option, 0, len(f.opts)+len(opts))
	bound = append(bound, f.opts...)
	bound = append(bound, opts...)
	return FuncN{name: f.name, opts: bound}
}

// Remote submits the task and returns one raw reference per declared return.
func (f FuncN) Remote(c Caller, args ...any) ([]RawRef, error) {
	return c.CallContext().Call(f.name, buildOpts(f.opts), args...)
}

// decode1 decodes the single argument slot i into a T. A []byte argument is
// borrowed, not copied: it is a read-only view of the store's buffer (or of
// the task spec's inline value), which the worker pool holds for the call.
func decode1[T any](args [][]byte, i int) (T, error) {
	var out T
	if i >= len(args) {
		return out, fmt.Errorf("ray: argument %d missing (task submitted with %d)", i, len(args))
	}
	if err := codec.DecodeBorrowed(args[i], &out); err != nil {
		return out, fmt.Errorf("ray: decode argument %d: %w", i, err)
	}
	return out, nil
}

// encode1 wraps a typed implementation result as the task's output list.
func encode1(v any, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	data, err := codec.Encode(v)
	if err != nil {
		return nil, err
	}
	return [][]byte{data}, nil
}

// encode2 wraps a typed pair result as the task's two-object output list.
func encode2(v1, v2 any, err error) ([][]byte, error) {
	if err != nil {
		return nil, err
	}
	d1, err := codec.Encode(v1)
	if err != nil {
		return nil, err
	}
	d2, err := codec.Encode(v2)
	if err != nil {
		return nil, err
	}
	return [][]byte{d1, d2}, nil
}

// Register0 registers a no-argument remote function under name and returns
// its typed handle. The implementation works with Go values; serialization
// happens in the generated wrapper: the result is encoded once, into the
// buffer the object store then holds, so the function may keep and change
// what it returned.
func Register0[R any](rt *Runtime, name, doc string, impl func(ctx *Context) (R, error)) (Func0[R], error) {
	err := rt.RegisterN(name, doc, 1, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		r, err := impl(ctx)
		return encode1(r, err)
	})
	return Func0[R]{name: name}, err
}

// Register1 registers a remote function A -> R under name and returns its
// typed handle. As for every Register function: a []byte parameter is a
// borrowed, read-only view of the stored object, valid for as long as it is
// held (bytes.Clone it before writing; a -race build fails a task that wrote
// to one); every other parameter type is decoded into a value the function
// owns.
func Register1[A, R any](rt *Runtime, name, doc string, impl func(ctx *Context, a A) (R, error)) (Func1[A, R], error) {
	err := rt.RegisterN(name, doc, 1, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		r, err := impl(ctx, a)
		return encode1(r, err)
	})
	return Func1[A, R]{name: name}, err
}

// Register2 registers a remote function (A, B) -> R under name and returns
// its typed handle. []byte parameters are borrowed read-only views (see
// Register1).
func Register2[A, B, R any](rt *Runtime, name, doc string, impl func(ctx *Context, a A, b B) (R, error)) (Func2[A, B, R], error) {
	err := rt.RegisterN(name, doc, 1, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := decode1[B](args, 1)
		if err != nil {
			return nil, err
		}
		r, err := impl(ctx, a, b)
		return encode1(r, err)
	})
	return Func2[A, B, R]{name: name}, err
}

// Register3 registers a remote function (A, B, C) -> R under name and
// returns its typed handle. []byte parameters are borrowed read-only views
// (see Register1).
func Register3[A, B, C, R any](rt *Runtime, name, doc string, impl func(ctx *Context, a A, b B, c C) (R, error)) (Func3[A, B, C, R], error) {
	err := rt.RegisterN(name, doc, 1, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := decode1[B](args, 1)
		if err != nil {
			return nil, err
		}
		cc, err := decode1[C](args, 2)
		if err != nil {
			return nil, err
		}
		r, err := impl(ctx, a, b, cc)
		return encode1(r, err)
	})
	return Func3[A, B, C, R]{name: name}, err
}

// Register0R2 registers a no-argument remote function producing a pair
// (R1, R2) under name. Registration records the two-object arity in the GCS
// function table, and the handle's Remote yields one typed future per output
// — no drop to FuncN/RawRef for the common two-return shape. The R2 forms
// follow Register1's rule: []byte parameters are borrowed read-only views.
func Register0R2[R1, R2 any](rt *Runtime, name, doc string, impl func(ctx *Context) (R1, R2, error)) (Func0R2[R1, R2], error) {
	err := rt.RegisterN(name, doc, 2, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		r1, r2, err := impl(ctx)
		return encode2(r1, r2, err)
	})
	return Func0R2[R1, R2]{name: name}, err
}

// Register1R2 registers a remote function A -> (R1, R2) under name.
func Register1R2[A, R1, R2 any](rt *Runtime, name, doc string, impl func(ctx *Context, a A) (R1, R2, error)) (Func1R2[A, R1, R2], error) {
	err := rt.RegisterN(name, doc, 2, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		r1, r2, err := impl(ctx, a)
		return encode2(r1, r2, err)
	})
	return Func1R2[A, R1, R2]{name: name}, err
}

// Register2R2 registers a remote function (A, B) -> (R1, R2) under name.
func Register2R2[A, B, R1, R2 any](rt *Runtime, name, doc string, impl func(ctx *Context, a A, b B) (R1, R2, error)) (Func2R2[A, B, R1, R2], error) {
	err := rt.RegisterN(name, doc, 2, func(ctx *worker.TaskContext, args [][]byte) ([][]byte, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := decode1[B](args, 1)
		if err != nil {
			return nil, err
		}
		r1, r2, err := impl(ctx, a, b)
		return encode2(r1, r2, err)
	})
	return Func2R2[A, B, R1, R2]{name: name}, err
}

// RegisterFuncN registers a raw remote function — serialized arguments in,
// serialized outputs out, numReturns declared outputs — and returns the
// variadic handle. The declared arity is recorded in the GCS function table.
// worker.Function states the raw buffer contract: arguments are read-only
// views, returned buffers are handed over and never written again.
func RegisterFuncN(rt *Runtime, name, doc string, numReturns int, fn worker.Function) (FuncN, error) {
	err := rt.RegisterN(name, doc, numReturns, fn)
	f := FuncN{name: name}
	if numReturns > 1 {
		f = f.With(NumReturns(numReturns))
	}
	return f, err
}
