package ray

import (
	"fmt"

	"ray/internal/worker"
)

// ActorClass is the registration-time identity of a typed actor class whose
// instances hold a *S: the class name plus the runtime whose method table the
// class feeds. It is embedded in the arity-specific handles returned by
// RegisterActorClass0/1/2; method declarations (ActorMethod0/1/2) accept any
// of them through the Class interface.
//
// Declaring a method does two things at once: it installs the callee-side
// dispatch entry in the worker registry's method table (recording the
// method's argument and return arity in the GCS function table), and it mints
// the caller-side handle whose Remote pins the argument and result types at
// compile time. User types no longer implement Call — the method table is the
// only dispatch path, so a misspelled method is impossible to invoke and an
// unknown name arriving over the wire becomes an error object, not a switch
// fallthrough.
type ActorClass[S any] struct {
	rt   *Runtime
	name string
}

// actorClass anchors the Class interface; every typed class handle embeds
// *ActorClass[S] and so satisfies Class[S] automatically.
func (c *ActorClass[S]) actorClass() *ActorClass[S] { return c }

// Name returns the registered class name.
func (c *ActorClass[S]) Name() string { return c.name }

// Class is satisfied by every typed class handle with state S (Class0[S],
// Class1[S, A], Class2[S, A, B]); the ActorMethod declarations accept any of
// them.
type Class[S any] interface {
	actorClass() *ActorClass[S]
}

// Class0 is a typed handle to a registered actor class whose constructor
// takes no arguments. New instantiates actors — the Class.remote() of
// Table 1.
type Class0[S any] struct{ *ActorClass[S] }

// Class1 is a typed handle to a registered actor class whose constructor
// takes an A.
type Class1[S, A any] struct{ *ActorClass[S] }

// Class2 is a typed handle to a registered actor class whose constructor
// takes an A and a B.
type Class2[S, A, B any] struct{ *ActorClass[S] }

// RegisterActorClass0 registers an actor class with a no-argument constructor
// and an empty method table, returning the typed class handle methods are
// declared on.
func RegisterActorClass0[S any](rt *Runtime, name, doc string, ctor func(ctx *Context) (*S, error)) (Class0[S], error) {
	err := rt.RegisterActorClass(name, doc, func(ctx *worker.TaskContext, args [][]byte) (any, error) {
		return ctor(ctx)
	})
	return Class0[S]{&ActorClass[S]{rt: rt, name: name}}, err
}

// RegisterActorClass1 registers an actor class whose constructor takes an A.
// As for remote functions (Register1), a []byte constructor parameter is a
// borrowed read-only view of the stored object, valid for as long as the
// actor holds it; bytes.Clone it to get state the actor may change.
func RegisterActorClass1[S, A any](rt *Runtime, name, doc string, ctor func(ctx *Context, a A) (*S, error)) (Class1[S, A], error) {
	err := rt.RegisterActorClass(name, doc, func(ctx *worker.TaskContext, args [][]byte) (any, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		return ctor(ctx, a)
	})
	return Class1[S, A]{&ActorClass[S]{rt: rt, name: name}}, err
}

// RegisterActorClass2 registers an actor class whose constructor takes an A
// and a B ([]byte parameters are borrowed read-only views, see
// RegisterActorClass1).
func RegisterActorClass2[S, A, B any](rt *Runtime, name, doc string, ctor func(ctx *Context, a A, b B) (*S, error)) (Class2[S, A, B], error) {
	err := rt.RegisterActorClass(name, doc, func(ctx *worker.TaskContext, args [][]byte) (any, error) {
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := decode1[B](args, 1)
		if err != nil {
			return nil, err
		}
		return ctor(ctx, a, b)
	})
	return Class2[S, A, B]{&ActorClass[S]{rt: rt, name: name}}, err
}

// checkRegistered rejects the zero-value class handle with a clean error
// (e.g. a package-level handle used before its package's Register ran)
// instead of a nil dereference.
func (c *ActorClass[S]) checkRegistered() error {
	if c == nil {
		var s *S
		return fmt.Errorf("ray: actor class handle for state %T used before registration", s)
	}
	return nil
}

// New instantiates a remote actor of the class. The creation is itself a
// task — it may be scheduled on any node satisfying the resource options —
// and returns immediately with a typed handle.
func (c Class0[S]) New(caller Caller, opts ...Option) (*ActorOf[S], error) {
	if err := c.ActorClass.checkRegistered(); err != nil {
		return nil, err
	}
	h, err := caller.CallContext().CreateActor(c.name, buildOpts(opts))
	if err != nil {
		return nil, err
	}
	return &ActorOf[S]{Actor{h: h}}, nil
}

// New instantiates a remote actor of the class with a constructor argument.
func (c Class1[S, A]) New(caller Caller, a A, opts ...Option) (*ActorOf[S], error) {
	if err := c.ActorClass.checkRegistered(); err != nil {
		return nil, err
	}
	h, err := caller.CallContext().CreateActor(c.name, buildOpts(opts), a)
	if err != nil {
		return nil, err
	}
	return &ActorOf[S]{Actor{h: h}}, nil
}

// New instantiates a remote actor of the class with two constructor
// arguments.
func (c Class2[S, A, B]) New(caller Caller, a A, b B, opts ...Option) (*ActorOf[S], error) {
	if err := c.ActorClass.checkRegistered(); err != nil {
		return nil, err
	}
	h, err := caller.CallContext().CreateActor(c.name, buildOpts(opts), a, b)
	if err != nil {
		return nil, err
	}
	return &ActorOf[S]{Actor{h: h}}, nil
}

// ActorOf is a typed handle to a remote actor with state S. It embeds the
// untyped Actor, so the escape hatches (Method, Handle) remain reachable, but
// class method handles only bind to actors of their own class — calling a
// Counter method on a Logger actor is a compile error.
type ActorOf[S any] struct{ Actor }

// WrapActorOf adopts a worker-layer actor handle (e.g. one received as a task
// argument via worker.DecodeActorHandle) into the typed API. The caller
// asserts the state type, exactly as with RefAs.
func WrapActorOf[S any](h *worker.ActorHandle) *ActorOf[S] { return &ActorOf[S]{Actor{h: h}} }

// --- Method declarations ------------------------------------------------------

// methodDecl installs one callee-side dispatch entry on the class's method
// table, returning any registration error (unknown class, duplicate method).
func methodDecl[S any](c Class[S], name string, numArgs int, impl worker.ActorMethodImpl) (string, error) {
	cc := c.actorClass()
	if cc == nil || cc.rt == nil {
		return "", fmt.Errorf("ray: method %q declared on an unregistered class handle", name)
	}
	return cc.name, cc.rt.RegisterActorMethod(cc.name, name, numArgs, 1, impl)
}

// stateOf asserts the instance the constructor produced back to *S. It can
// only fail if a class name was registered twice with different state types.
func stateOf[S any](class, method string, state any) (*S, error) {
	s, ok := state.(*S)
	if !ok {
		return nil, fmt.Errorf("ray: %s.%s: instance is %T, not %T", class, method, state, s)
	}
	return s, nil
}

// ActorMethod0 declares a no-argument method S -> R on the class: the typed
// implementation becomes the class's dispatch entry and the returned
// ClassMethod0 is the caller-side handle. Each method name may be declared
// once per class registration. The result is encoded before the method
// returns, so a method may return its state and go on changing it.
func ActorMethod0[S, R any](c Class[S], name string, impl func(ctx *Context, s *S) (R, error)) (ClassMethod0[S, R], error) {
	class, err := methodDecl[S](c, name, 0, func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
		s, err := stateOf[S](c.actorClass().name, name, state)
		if err != nil {
			return nil, err
		}
		return encode1(impl(ctx, s))
	})
	return ClassMethod0[S, R]{class: class, name: name}, err
}

// ActorMethod1 declares a one-argument method (S, A) -> R on the class. A
// []byte parameter is a borrowed read-only view of the stored object: the
// actor may keep it for as long as it likes — it never changes, even after
// the object is freed — and must bytes.Clone it before writing.
func ActorMethod1[S, A, R any](c Class[S], name string, impl func(ctx *Context, s *S, a A) (R, error)) (ClassMethod1[S, A, R], error) {
	class, err := methodDecl[S](c, name, 1, func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
		s, err := stateOf[S](c.actorClass().name, name, state)
		if err != nil {
			return nil, err
		}
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		return encode1(impl(ctx, s, a))
	})
	return ClassMethod1[S, A, R]{class: class, name: name}, err
}

// ActorMethod2 declares a two-argument method (S, A, B) -> R on the class
// ([]byte parameters are borrowed read-only views, see ActorMethod1).
func ActorMethod2[S, A, B, R any](c Class[S], name string, impl func(ctx *Context, s *S, a A, b B) (R, error)) (ClassMethod2[S, A, B, R], error) {
	class, err := methodDecl[S](c, name, 2, func(ctx *worker.TaskContext, state any, args [][]byte) ([][]byte, error) {
		s, err := stateOf[S](c.actorClass().name, name, state)
		if err != nil {
			return nil, err
		}
		a, err := decode1[A](args, 0)
		if err != nil {
			return nil, err
		}
		b, err := decode1[B](args, 1)
		if err != nil {
			return nil, err
		}
		return encode1(impl(ctx, s, a, b))
	})
	return ClassMethod2[S, A, B, R]{class: class, name: name}, err
}

// ClassMethod0 is the caller-side handle of a declared no-argument method:
// holding one proves the method exists on the class with exactly this
// signature. Remote invokes it on a specific actor of the class; Bind
// pre-binds the actor for call sites that invoke it repeatedly.
type ClassMethod0[S, R any] struct{ class, name string }

// ClassMethod1 is the caller-side handle of a declared method (A) -> R.
type ClassMethod1[S, A, R any] struct{ class, name string }

// ClassMethod2 is the caller-side handle of a declared method (A, B) -> R.
type ClassMethod2[S, A, B, R any] struct{ class, name string }

// Name returns the declared method name.
func (m ClassMethod0[S, R]) Name() string       { return m.name }
func (m ClassMethod1[S, A, R]) Name() string    { return m.name }
func (m ClassMethod2[S, A, B, R]) Name() string { return m.name }

// Class returns the owning class name (for logs and debugging).
func (m ClassMethod0[S, R]) Class() string       { return m.class }
func (m ClassMethod1[S, A, R]) Class() string    { return m.class }
func (m ClassMethod2[S, A, B, R]) Class() string { return m.class }

// Remote invokes the method on the actor; the future of its result returns
// immediately — the actor.method.remote(args) of Table 1, typed end to end.
func (m ClassMethod0[S, R]) Remote(c Caller, a *ActorOf[S], opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, &a.Actor, m.name, opts)
}

// Bind pre-binds the actor, returning the bound method handle.
func (m ClassMethod0[S, R]) Bind(a *ActorOf[S]) MethodHandle0[R] {
	return MethodHandle0[R]{actor: &a.Actor, name: m.name}
}

// Remote invokes the method on the actor with a concrete argument.
func (m ClassMethod1[S, A, R]) Remote(c Caller, a *ActorOf[S], arg A, opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, &a.Actor, m.name, opts, arg)
}

// RemoteRef invokes the method with a future argument; the dependency flows
// through the task graph.
func (m ClassMethod1[S, A, R]) RemoteRef(c Caller, a *ActorOf[S], arg ObjectRef[A], opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, &a.Actor, m.name, opts, arg)
}

// Bind pre-binds the actor, returning the bound method handle.
func (m ClassMethod1[S, A, R]) Bind(a *ActorOf[S]) MethodHandle1[A, R] {
	return MethodHandle1[A, R]{actor: &a.Actor, name: m.name}
}

// Remote invokes the method on the actor with concrete arguments.
func (m ClassMethod2[S, A, B, R]) Remote(c Caller, a *ActorOf[S], arg1 A, arg2 B, opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, &a.Actor, m.name, opts, arg1, arg2)
}

// RemoteRef invokes the method with future arguments (use ValueRef to mix in
// constants).
func (m ClassMethod2[S, A, B, R]) RemoteRef(c Caller, a *ActorOf[S], arg1 ObjectRef[A], arg2 ObjectRef[B], opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, &a.Actor, m.name, opts, arg1, arg2)
}

// Bind pre-binds the actor, returning the bound method handle.
func (m ClassMethod2[S, A, B, R]) Bind(a *ActorOf[S]) MethodHandle2[A, B, R] {
	return MethodHandle2[A, B, R]{actor: &a.Actor, name: m.name}
}

// --- Bound method handles -----------------------------------------------------

// MethodHandle0 is a typed no-argument method handle bound to one actor.
// Handles are minted by ClassMethod.Bind, so holding one proves both that the
// method exists and that the actor is of its class.
type MethodHandle0[R any] struct {
	actor *Actor
	name  string
}

// MethodHandle1 is a bound typed method handle A -> R.
type MethodHandle1[A, R any] struct {
	actor *Actor
	name  string
}

// MethodHandle2 is a bound typed method handle (A, B) -> R.
type MethodHandle2[A, B, R any] struct {
	actor *Actor
	name  string
}

// Remote invokes the method; the future of its result returns immediately.
func (m MethodHandle0[R]) Remote(c Caller, opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, m.actor, m.name, opts)
}

// Remote invokes the method with a concrete argument.
func (m MethodHandle1[A, R]) Remote(c Caller, a A, opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, m.actor, m.name, opts, a)
}

// RemoteRef invokes the method with a future argument; the dependency flows
// through the task graph.
func (m MethodHandle1[A, R]) RemoteRef(c Caller, a ObjectRef[A], opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, m.actor, m.name, opts, a)
}

// Remote invokes the method with concrete arguments.
func (m MethodHandle2[A, B, R]) Remote(c Caller, a A, b B, opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, m.actor, m.name, opts, a, b)
}

// RemoteRef invokes the method with future arguments (use ValueRef to mix in
// constants).
func (m MethodHandle2[A, B, R]) RemoteRef(c Caller, a ObjectRef[A], b ObjectRef[B], opts ...Option) (ObjectRef[R], error) {
	return callActor[R](c, m.actor, m.name, opts, a, b)
}

// callActor is the shared typed actor-method submission path. Typed handles
// expose exactly one return object, so a NumReturns(n>1) option is a caller
// bug — it would silently alias the typed ref to output 0 of an n-output
// task — and is rejected at call time.
func callActor[R any](c Caller, a *Actor, method string, opts []Option, args ...any) (ObjectRef[R], error) {
	o := buildOpts(opts)
	if o.NumReturns > 1 {
		return ObjectRef[R]{}, fmt.Errorf(
			"ray: %s: NumReturns(%d) on a single-return typed method handle; use the untyped Actor.Method escape hatch for multi-return methods", method, o.NumReturns)
	}
	id, err := c.CallContext().CallActor1(a.h, method, o, args...)
	if err != nil {
		return ObjectRef[R]{}, err
	}
	return ObjectRef[R]{ID: id}, nil
}

// Actor is an untyped handle to a remote actor. Method calls through the
// handle return futures exactly like task invocations; consecutive calls are
// chained with stateful edges so the actor's lineage can be replayed after a
// failure. The typed ActorOf[S] embeds it.
type Actor struct {
	h *worker.ActorHandle
}

// Handle exposes the underlying worker-layer handle for interop with
// internal plumbing (and for passing the actor to another task as an
// argument).
func (a *Actor) Handle() *worker.ActorHandle { return a.h }

// WrapActor adopts a worker-layer actor handle (e.g. one received as a task
// argument via worker.DecodeActorHandle) into the untyped API; WrapActorOf is
// its typed counterpart.
func WrapActor(h *worker.ActorHandle) *Actor { return &Actor{h: h} }
