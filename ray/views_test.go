package ray_test

import (
	"bytes"
	"context"
	"hash/fnv"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ray/internal/codec"
	"ray/internal/objectstore"
	"ray/internal/types"
	"ray/internal/worker"
	"ray/ray"
)

// must unwraps a (value, error) pair; these tests have no use for a cluster
// that cannot register, submit or get.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// storedOn returns the copy of id held by the given node's store.
func storedOn(t *testing.T, rt *ray.Runtime, node types.NodeID, id types.ObjectID) *objectstore.Object {
	t.Helper()
	obj, ok := rt.Cluster().Node(node).Store().Get(id)
	if !ok {
		t.Fatalf("object %s is not in the store of node %s", id, node)
	}
	return obj
}

// The two halves of "one payload copy per hop". A task borrows what the store
// holds: the []byte a typed function receives is the stored payload itself
// (offset 1: the tag precedes it), with no capacity to append into. The store
// adopts what a task returns: the stored object is the very buffer the
// function's encoder made.
func TestBytesCrossTheStoreWithoutACopy(t *testing.T) {
	rt, d := newTestRuntime(t)
	type view struct {
		node     types.NodeID
		data     *byte
		len, cap int
	}
	seen := make(chan view, 1)
	look := must(ray.Register1(rt, "look", "reports where its argument lives",
		func(ctx *ray.Context, b []byte) (int, error) {
			seen <- view{ctx.Node, unsafe.SliceData(b), len(b), cap(b)}
			return len(b), nil
		}))
	type handover struct {
		node types.NodeID
		buf  []byte
	}
	handed := make(chan handover, 1)
	emit := must(ray.RegisterFuncN(rt, "emit", "returns an encoded payload", 1,
		func(ctx *worker.TaskContext, _ [][]byte) ([][]byte, error) {
			out := codec.MustEncode(bytes.Repeat([]byte("r"), 4096))
			handed <- handover{ctx.Node, out}
			return [][]byte{out}, nil
		}))

	payload := bytes.Repeat([]byte("p"), 4096)
	arg := must(ray.Put(d, payload))
	if n := must(ray.Get(d, must(look.RemoteRef(d, arg)))); n != len(payload) {
		t.Fatalf("look saw %d bytes, want %d", n, len(payload))
	}
	v := <-seen
	if obj := storedOn(t, rt, v.node, arg.ID); v.data != &obj.Data[1] || v.len != len(payload) || v.cap != v.len {
		t.Fatalf("the argument (len %d, cap %d) is not a view of the stored payload", v.len, v.cap)
	}

	results := must(emit.Remote(d))
	var got []byte
	if err := ray.GetInto(d, results[0], &got); err != nil || len(got) != 4096 {
		t.Fatalf("emit: %d bytes, %v", len(got), err)
	}
	h := <-handed
	if obj := storedOn(t, rt, h.node, results[0]); &obj.Data[0] != &h.buf[0] || len(obj.Data) != len(h.buf) {
		t.Fatal("the store copied the task's encoded result instead of adopting it")
	}
}

// Guards that hold by construction — Encode always copies on the way in,
// Get always decodes a caller-owned value on the way out — and must keep
// holding now that the store adopts and tasks borrow: nothing a program does
// to a value it owns can reach a stored object.
func TestOwnedValuesNeverReachTheStore(t *testing.T) {
	rt, d := newTestRuntime(t)
	want := bytes.Repeat([]byte("s"), 1024)

	// A slice changed after ray.Put.
	mine := bytes.Clone(want)
	put := must(ray.Put(d, mine))
	mine[0] = 'X'
	first := must(ray.Get(d, put))
	if !bytes.Equal(first, want) {
		t.Fatal("a write after ray.Put reached the stored object")
	}
	// The value Get returned is the caller's: overwriting it is not seen by
	// the next Get.
	for i := range first {
		first[i] = 'Y'
	}
	if again := must(ray.Get(d, put)); !bytes.Equal(again, want) {
		t.Fatal("a write to what ray.Get returned reached the stored object")
	}

	// An actor that returns its state buffer and later rewrites it in place.
	type scratch struct{ buf []byte }
	Scratch := must(ray.RegisterActorClass0(rt, "Scratch", "returns and rewrites one buffer",
		func(*ray.Context) (*scratch, error) { return &scratch{buf: bytes.Clone(want)}, nil }))
	snapshot := must(ray.ActorMethod0(Scratch, "snapshot",
		func(_ *ray.Context, s *scratch) ([]byte, error) { return s.buf, nil }))
	rewrite := must(ray.ActorMethod0(Scratch, "rewrite",
		func(_ *ray.Context, s *scratch) (bool, error) {
			for i := range s.buf {
				s.buf[i] = 'Z'
			}
			return true, nil
		}))
	actor := must(Scratch.New(d))
	snap := must(snapshot.Remote(d, actor))
	if !must(ray.Get(d, must(rewrite.Remote(d, actor)))) {
		t.Fatal("rewrite did not run")
	}
	if got := must(ray.Get(d, snap)); !bytes.Equal(got, want) {
		t.Fatal("an actor rewriting the state it had returned changed the stored result")
	}
}

func digestOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// A borrowed view is valid for as long as it is held, by construction: the
// store never reuses a payload buffer, so freeing the object (its store copy
// deleted) and churning the store past capacity only drop the store's
// reference. An actor that kept its []byte argument still reads the
// original bytes afterwards.
func TestKeptViewOutlivesTheStoredObject(t *testing.T) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 1
	cfg.ObjectStoreBytes = 256 << 10
	rt := must(ray.Init(context.Background(), cfg))
	t.Cleanup(rt.Shutdown)
	d := must(rt.NewDriver(context.Background()))

	type keeper struct{ kept []byte }
	keptAt := make(chan *byte, 1)
	Keeper := must(ray.RegisterActorClass0(rt, "Keeper", "keeps the view it is handed",
		func(*ray.Context) (*keeper, error) { return &keeper{}, nil }))
	keep := must(ray.ActorMethod1(Keeper, "keep",
		func(_ *ray.Context, k *keeper, b []byte) (int, error) {
			k.kept = b
			keptAt <- unsafe.SliceData(b)
			return len(b), nil
		}))
	digest := must(ray.ActorMethod0(Keeper, "digest",
		func(_ *ray.Context, k *keeper) (uint64, error) { return digestOf(k.kept), nil }))

	const size = 64 << 10
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	actor := must(Keeper.New(d))
	arg := must(ray.Put(d, payload))
	if n := must(ray.Get(d, must(keep.RemoteRef(d, actor, arg)))); n != size {
		t.Fatalf("keep saw %d bytes, want %d", n, size)
	}

	store := rt.Cluster().HeadNode().Store()
	if obj, ok := store.Get(arg.ID); !ok || <-keptAt != &obj.Data[1] {
		t.Fatal("the actor holds a copy, not a view of the stored object; the test would prove nothing")
	}
	ray.Free(d, arg)
	for deadline := time.Now().Add(5 * time.Second); store.Contains(arg.ID); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("freed object never left the store")
		}
	}
	evictionsBefore := store.Stats().Evictions
	for i := 0; i < 16; i++ {
		must(ray.Put(d, bytes.Repeat([]byte{byte(i)}, size)))
	}
	if store.Stats().Evictions == evictionsBefore {
		t.Fatalf("1 MiB through a %d-byte store evicted nothing; the churn exercised nothing", cfg.ObjectStoreBytes)
	}
	if got := must(ray.Get(d, must(digest.Remote(d, actor)))); got != digestOf(payload) {
		t.Fatal("the view an actor kept changed after its object was freed and the store churned")
	}
}

// The copy ledger of one cross-node hop, counted in allocated bytes: a 1 MiB
// []byte produced on node 1 and consumed on node 2 costs the producer's own
// buffer, its encoding (the one copy the paper's Figure 9 models: the store
// adopts that buffer) and the wire copy into node 2's store (the consumer
// borrows that buffer) — three payloads per op plus the tasks' small change.
// Before the store adopted and tasks borrowed it was five: copyPayload on the
// way in and the argument decode on the way out.
func TestCrossNodeHopAllocatesThreePayloads(t *testing.T) {
	cfg := ray.DefaultConfig()
	cfg.Nodes = 3
	cfg.LabelNodes = true
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	produce, err := ray.Register0(rt, "produce", "returns 1 MiB",
		func(*ray.Context) ([]byte, error) { return make([]byte, size), nil })
	if err != nil {
		t.Fatal(err)
	}
	consume, err := ray.Register1(rt, "consume", "measures its argument",
		func(_ *ray.Context, b []byte) (int, error) { return len(b), nil })
	if err != nil {
		t.Fatal(err)
	}
	hop := func() {
		made, err := produce.Remote(d, ray.OnNode(1))
		if err != nil {
			t.Fatal(err)
		}
		seen, err := consume.RemoteRef(d, made, ray.OnNode(2))
		if err != nil {
			t.Fatal(err)
		}
		if n, err := ray.Get(d, seen); err != nil || n != size {
			t.Fatalf("consume = %d, %v; want %d", n, err, size)
		}
		ray.Free(d, made)
		ray.Free(d, seen)
	}
	hop() // lazy set-up is not part of the ledger

	const ops = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		hop()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	if copies := perOp / size; copies > 3.3 {
		t.Fatalf("one hop of a %d-byte payload allocated %.0f bytes: %.2f payloads, want <= 3.3", size, perOp, copies)
	} else {
		t.Logf("%.2f payloads allocated per hop", copies)
	}
}
