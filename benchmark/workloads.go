package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ray/internal/netsim"
	"ray/ray"
)

// workload is the static description of one benchmark workload. An op is
// what one closed-loop slot carries: submit, then (W ops later) Get, verify
// and Free. Counts are per driver and per repetition, and fixed: throughput
// decays with the state a run accumulates, so a fixed duration would push a
// faster build deeper into the decay.
type workload struct {
	name string
	why  string
	// drivers is the number of driver goroutines, driver i attached to node i.
	drivers int
	// window is W, the ops one driver keeps in flight.
	window int
	// ops is the timed op count per driver per repetition.
	ops int
	// tasksPerOp converts ops into tasks (actor calls count as tasks).
	tasksPerOp int
	// bulkBytesPerOp is the object payload one timed op moves between nodes.
	bulkBytesPerOp int64
	// network is the simulated data plane the cluster runs on.
	network netsim.Config
	// register publishes the workload's functions and returns the factory
	// that binds a driver to its op runner.
	register func(rt *ray.Runtime) (runnerFactory, error)
}

// sequential reports whether one op is in flight at a time: such a workload
// is judged by latency, not throughput, and the program's phase spans inside
// an op's interval are that op's own.
func (w workload) sequential() bool { return w.drivers == 1 && w.window == 1 }

// opRunner issues one driver's ops. prepare is the untimed part of an op,
// submit starts the timed part, get ends it (Get and the check against the
// generator), free releases everything the op created. Slots are reused
// every window ops.
type opRunner interface {
	prepare(op int) error
	submit(op int) error
	get(op int) error
	free(op int)
}

// runnerFactory builds the op runner of one driver; rec is nil in untraced
// repetitions.
type runnerFactory func(d *ray.Driver, driver int, window int, seed uint64, rec *recorder) (opRunner, error)

const (
	remoteArgBytes = 4 << 20
	rolloutBytes   = 64 << 10
	pageBytes      = 4096
)

// realTimeNetwork is netsim.DefaultConfig at TimeScale 1: 25 Gbps, 100 µs
// per message, sleeps in real time.
func realTimeNetwork() netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.TimeScale = 1
	return cfg
}

// workloads is the benchmark's workload set, in the order runs report them.
var workloads = []workload{
	{
		name:       "empty_tasks",
		why:        "CPU-saturated control plane (Fig. 8b): 2 drivers x W=256 no-op tasks; data plane idle",
		drivers:    2,
		window:     256,
		ops:        50000,
		tasksPerOp: 1,
		network:    netsim.InstantConfig(),
		register:   registerEmptyTasks,
	},
	{
		name:       "sync_roundtrip",
		why:        "same layers, nothing saturated: W=1 submit-to-Get latency is set by timers and wake-ups, not CPU",
		drivers:    1,
		window:     1,
		ops:        700,
		tasksPerOp: 1,
		network:    netsim.InstantConfig(),
		register:   registerSyncRoundtrip,
	},
	{
		name:           "remote_args",
		why:            "transfer engine (Fig. 8a/9): a task pulls two 4 MiB args from two nodes over a 25 Gbps real-time network",
		drivers:        1,
		window:         1,
		ops:            60,
		tasksPerOp:     3,
		bulkBytesPerOp: 2 * remoteArgBytes,
		network:        realTimeNetwork(),
		register:       registerRemoteArgs,
	},
	{
		name:           "rollout_actor",
		why:            "RL shape (paper s2): rollout task, its 64 KiB future into a pinned actor method, W=32; tasks and actors on one engine",
		drivers:        1,
		window:         32,
		ops:            8000,
		tasksPerOp:     2,
		bulkBytesPerOp: rolloutBytes,
		network:        netsim.InstantConfig(),
		register:       registerRolloutActor,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- seeded generators --------------------------------------------------------

// mix is splitmix64: word i of a payload is mix(seed+i), so any word can be
// recomputed without building the payload.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// payload returns n seeded bytes (n a multiple of 8).
func payload(seed uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], mix(seed+uint64(i)))
	}
	return out
}

// pageDigest folds the first 8-byte word of every 4 KiB page: it touches
// every page of a transferred payload without costing a full checksum.
func pageDigest(data []byte) uint64 {
	var h uint64
	for off := 0; off+8 <= len(data); off += pageBytes {
		h = bits.RotateLeft64(h, 5) ^ binary.LittleEndian.Uint64(data[off:])
	}
	return h
}

// expectedDigest is pageDigest(payload(seed, n)) computed from the generator
// alone.
func expectedDigest(seed uint64, n int) uint64 {
	var h uint64
	for off := 0; off+8 <= n; off += pageBytes {
		h = bits.RotateLeft64(h, 5) ^ mix(seed+uint64(off/8))
	}
	return h
}

// opSeed derives the input of driver's op from the run seed.
func opSeed(seed uint64, driver, op int) uint64 {
	return mix(seed ^ uint64(driver)<<48 ^ uint64(op))
}

// tracedGet is ray.Get inside a ray.get span.
func tracedGet[T any](d *ray.Driver, rec *recorder, op int, ref ray.ObjectRef[T]) (T, error) {
	t := rec.begin()
	got, err := ray.Get(d, ref)
	rec.end(spanGet, op, t)
	return got, err
}

// tracedFree runs an op's ray.Free calls inside one ray.free span.
func tracedFree(rec *recorder, op int, free func()) {
	t := rec.begin()
	free()
	rec.end(spanFree, op, t)
}

// --- empty_tasks --------------------------------------------------------------

type emptyRunner struct {
	d    *ray.Driver
	rec  *recorder
	noop ray.Func0[bool]
	refs []ray.ObjectRef[bool]
}

func registerEmptyTasks(rt *ray.Runtime) (runnerFactory, error) {
	noop, err := ray.Register0(rt, "noop", "returns true", func(*ray.Context) (bool, error) { return true, nil })
	if err != nil {
		return nil, err
	}
	return func(d *ray.Driver, _ int, window int, _ uint64, rec *recorder) (opRunner, error) {
		return &emptyRunner{d: d, rec: rec, noop: noop, refs: make([]ray.ObjectRef[bool], window)}, nil
	}, nil
}

func (r *emptyRunner) prepare(int) error { return nil }

func (r *emptyRunner) submit(op int) error {
	t := r.rec.begin()
	ref, err := r.noop.Remote(r.d)
	r.rec.end(spanRemote, op, t)
	r.refs[op%len(r.refs)] = ref
	return err
}

func (r *emptyRunner) get(op int) error {
	got, err := tracedGet(r.d, r.rec, op, r.refs[op%len(r.refs)])
	if err != nil {
		return err
	}
	if !got {
		return fmt.Errorf("noop returned false")
	}
	return nil
}

func (r *emptyRunner) free(op int) {
	tracedFree(r.rec, op, func() { ray.Free(r.d, r.refs[op%len(r.refs)]) })
}

// --- sync_roundtrip -----------------------------------------------------------

type syncRunner struct {
	d      *ray.Driver
	rec    *recorder
	add1   ray.Func1[int64, int64]
	seed   uint64
	driver int
	refs   []ray.ObjectRef[int64]
}

// arg is the op's input: a seeded 40-bit integer.
func (r *syncRunner) arg(op int) int64 { return int64(opSeed(r.seed, r.driver, op) >> 24) }

func registerSyncRoundtrip(rt *ray.Runtime) (runnerFactory, error) {
	add1, err := ray.Register1(rt, "add1", "returns its argument plus one",
		func(_ *ray.Context, x int64) (int64, error) { return x + 1, nil })
	if err != nil {
		return nil, err
	}
	return func(d *ray.Driver, driver int, window int, seed uint64, rec *recorder) (opRunner, error) {
		return &syncRunner{d: d, rec: rec, add1: add1, seed: seed, driver: driver, refs: make([]ray.ObjectRef[int64], window)}, nil
	}, nil
}

func (r *syncRunner) prepare(int) error { return nil }

func (r *syncRunner) submit(op int) error {
	t := r.rec.begin()
	ref, err := r.add1.Remote(r.d, r.arg(op))
	r.rec.end(spanRemote, op, t)
	r.refs[op%len(r.refs)] = ref
	return err
}

func (r *syncRunner) get(op int) error {
	got, err := tracedGet(r.d, r.rec, op, r.refs[op%len(r.refs)])
	if err != nil {
		return err
	}
	if want := r.arg(op) + 1; got != want {
		return fmt.Errorf("add1 returned %d, want %d", got, want)
	}
	return nil
}

func (r *syncRunner) free(op int) {
	tracedFree(r.rec, op, func() { ray.Free(r.d, r.refs[op%len(r.refs)]) })
}

// --- remote_args --------------------------------------------------------------

// argDigest is what consume2 returns: both lengths and the page digests.
type argDigest struct {
	LenA, LenB int
	SumA, SumB uint64
}

type remoteArgsRunner struct {
	d        *ray.Driver
	rec      *recorder
	produce  ray.Func2[uint64, int, []byte]
	consume2 ray.Func2[[]byte, []byte, argDigest]
	seed     uint64
	driver   int
	a, b     ray.ObjectRef[[]byte]
	result   ray.ObjectRef[argDigest]
}

func registerRemoteArgs(rt *ray.Runtime) (runnerFactory, error) {
	produce, err := ray.Register2(rt, "produce", "returns size seeded bytes",
		func(_ *ray.Context, seed uint64, size int) ([]byte, error) { return payload(seed, size), nil })
	if err != nil {
		return nil, err
	}
	consume2, err := ray.Register2(rt, "consume2", "digests two byte arguments",
		func(_ *ray.Context, a, b []byte) (argDigest, error) {
			return argDigest{LenA: len(a), LenB: len(b), SumA: pageDigest(a), SumB: pageDigest(b)}, nil
		})
	if err != nil {
		return nil, err
	}
	return func(d *ray.Driver, driver int, _ int, seed uint64, rec *recorder) (opRunner, error) {
		return &remoteArgsRunner{d: d, rec: rec, produce: produce, consume2: consume2, seed: seed, driver: driver}, nil
	}, nil
}

// prepare produces the two arguments on nodes 1 and 2 and waits until both
// exist, so the timed part starts with the data at rest on remote nodes.
func (r *remoteArgsRunner) prepare(op int) error {
	s := opSeed(r.seed, r.driver, op)
	var err error
	if r.a, err = r.produce.Remote(r.d, s, remoteArgBytes, ray.OnNode(1)); err != nil {
		return err
	}
	if r.b, err = r.produce.Remote(r.d, s+1, remoteArgBytes, ray.OnNode(2)); err != nil {
		return err
	}
	t := r.rec.begin()
	_, notReady, err := ray.Wait(r.d, []ray.ObjectRef[[]byte]{r.a, r.b}, 2, 0)
	r.rec.end(spanWait, op, t)
	if err == nil && len(notReady) > 0 {
		err = fmt.Errorf("wait returned with %d arguments missing", len(notReady))
	}
	return err
}

func (r *remoteArgsRunner) submit(op int) error {
	t := r.rec.begin()
	var err error
	r.result, err = r.consume2.RemoteRef(r.d, r.a, r.b, ray.OnNode(3))
	r.rec.end(spanRemote, op, t)
	return err
}

func (r *remoteArgsRunner) get(op int) error {
	got, err := tracedGet(r.d, r.rec, op, r.result)
	if err != nil {
		return err
	}
	s := opSeed(r.seed, r.driver, op)
	want := argDigest{LenA: remoteArgBytes, LenB: remoteArgBytes,
		SumA: expectedDigest(s, remoteArgBytes), SumB: expectedDigest(s+1, remoteArgBytes)}
	if got != want {
		return fmt.Errorf("consume2 returned %+v, want %+v", got, want)
	}
	return nil
}

func (r *remoteArgsRunner) free(op int) {
	tracedFree(r.rec, op, func() {
		ray.Free(r.d, r.a, r.b)
		ray.Free(r.d, r.result)
	})
}

// --- rollout_actor ------------------------------------------------------------

// learner is the actor state: how many updates it has applied.
type learner struct{ calls int64 }

// updateAck is what learner.update returns.
type updateAck struct {
	Calls int64
	Sum   uint64
}

type rolloutSlot struct {
	obs   ray.ObjectRef[[]byte]
	ack   ray.ObjectRef[updateAck]
	calls int64 // the actor's call count this update must report
}

type rolloutRunner struct {
	d        *ray.Driver
	rec      *recorder
	rollout  ray.Func1[uint64, []byte]
	update   ray.ClassMethod1[learner, []byte, updateAck]
	learners [2]*ray.ActorOf[learner]
	issued   [2]int64
	seed     uint64
	driver   int
	slots    []rolloutSlot
}

func registerRolloutActor(rt *ray.Runtime) (runnerFactory, error) {
	rollout, err := ray.Register1(rt, "rollout", "returns 64 KiB of seeded observations",
		func(_ *ray.Context, seed uint64) ([]byte, error) { return payload(seed, rolloutBytes), nil })
	if err != nil {
		return nil, err
	}
	class, err := ray.RegisterActorClass0(rt, "learner", "counts and digests the updates it receives",
		func(*ray.Context) (*learner, error) { return &learner{}, nil })
	if err != nil {
		return nil, err
	}
	update, err := ray.ActorMethod1(class, "update",
		func(_ *ray.Context, s *learner, obs []byte) (updateAck, error) {
			s.calls++
			return updateAck{Calls: s.calls, Sum: pageDigest(obs)}, nil
		})
	if err != nil {
		return nil, err
	}
	return func(d *ray.Driver, driver int, window int, seed uint64, rec *recorder) (opRunner, error) {
		r := &rolloutRunner{d: d, rec: rec, rollout: rollout, update: update, seed: seed, driver: driver,
			slots: make([]rolloutSlot, window)}
		for i := range r.learners {
			a, err := class.New(d, ray.OnNode(2+i))
			if err != nil {
				return nil, err
			}
			r.learners[i] = a
		}
		return r, nil
	}, nil
}

func (r *rolloutRunner) prepare(int) error { return nil }

func (r *rolloutRunner) submit(op int) error {
	slot := &r.slots[op%len(r.slots)]
	which := op % 2
	t := r.rec.begin()
	obs, err := r.rollout.Remote(r.d, opSeed(r.seed, r.driver, op))
	if err == nil {
		slot.obs = obs
		slot.ack, err = r.update.RemoteRef(r.d, r.learners[which], obs)
	}
	r.rec.end(spanRemote, op, t)
	if err != nil {
		return err
	}
	r.issued[which]++
	slot.calls = r.issued[which]
	return nil
}

func (r *rolloutRunner) get(op int) error {
	slot := &r.slots[op%len(r.slots)]
	got, err := tracedGet(r.d, r.rec, op, slot.ack)
	if err != nil {
		return err
	}
	want := updateAck{Calls: slot.calls, Sum: expectedDigest(opSeed(r.seed, r.driver, op), rolloutBytes)}
	if got != want {
		return fmt.Errorf("update returned %+v, want %+v", got, want)
	}
	return nil
}

func (r *rolloutRunner) free(op int) {
	slot := &r.slots[op%len(r.slots)]
	tracedFree(r.rec, op, func() {
		ray.Free(r.d, slot.obs)
		ray.Free(r.d, slot.ack)
	})
}
