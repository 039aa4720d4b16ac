package ray

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/node"
	"ray/internal/resources"
	"ray/internal/types"
	"ray/internal/worker"
)

// TestEffectiveDefaults pins what each node and the cluster actually run with,
// for DefaultConfig and for a config with every knob left at zero. Each
// default is applied once, in the constructor that consumes the value; moving
// one there is where a value could silently change.
func TestEffectiveDefaults(t *testing.T) {
	type nodeKnobs struct {
		StoreBytes, ChunkBytes             int64
		Streams, Depth, SpilloverThreshold int
		CPUs                               float64
	}
	want := nodeKnobs{StoreBytes: 1 << 30, ChunkBytes: 1 << 20, Streams: 8, Depth: 4, SpilloverThreshold: 64, CPUs: 4}
	for name, cfg := range map[string]Config{"DefaultConfig": DefaultConfig(), "zero": {}} {
		t.Run(name, func(t *testing.T) {
			rt, err := Init(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			cl := rt.Cluster()
			for _, n := range cl.NodeList() {
				om := n.ObjectManager().Config()
				got := nodeKnobs{
					StoreBytes: n.Store().Capacity(), ChunkBytes: om.ChunkBytes,
					Streams: om.TransferStreams, Depth: om.PipelineDepth,
					SpilloverThreshold: n.LocalScheduler().Config().SpilloverThreshold,
					CPUs:               n.Resources().Total(resources.CPU),
				}
				if got != want {
					t.Errorf("node %v runs with %+v, want %+v", n.ID(), got, want)
				}
			}
			sampled := 0
			for low := 0; low < 256; low++ {
				if cl.Tracer().Sampled(byte(low)) {
					sampled++
				}
			}
			if sampled != 256/16 {
				t.Errorf("tracer samples %d of 256 tasks, want 1 in 16", sampled)
			}
			if name != "DefaultConfig" {
				return
			}
			if got := len(cl.NodeList()); got != 4 {
				t.Errorf("%d nodes, want 4", got)
			}
			if got := cl.GCS().NumShards(); got != 4 {
				t.Errorf("%d GCS shards, want 4", got)
			}
			for i := 0; i < cl.GCS().NumShards(); i++ {
				if got := len(cl.GCS().Shard(i).Replicas()); got != 2 {
					t.Errorf("GCS shard %d has %d replicas, want 2", i, got)
				}
			}
			if !rt.Config().LocalityAware {
				t.Error("DefaultConfig does not select locality-aware placement")
			}
		})
	}
}

// TestAddedNodeIsTraced: a node added with a fresh node.Config is wired like
// the initial ones, so the tasks it runs are traced by the cluster's tracer.
func TestAddedNodeIsTraced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.TraceSampleEvery = 1
	rt, _ := newRuntime(t, cfg)
	ctx := context.Background()
	added, err := rt.Cluster().AddNode(ctx, node.Config{CPUs: 4, RecordLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := rt.NewDriverOn(ctx, added)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ref, err := d.Call1("square", worker.CallOptions{}, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Get(d, RefAs[float64](ref)); err != nil || got != float64(i*i) {
			t.Fatalf("square(%d) = %v, %v", i, got, err)
		}
	}
	if err := rt.Cluster().FlushTelemetry(ctx); err != nil {
		t.Fatal(err)
	}
	spans, err := rt.Cluster().GCS().Spans(ctx)
	if err != nil {
		t.Fatal(err)
	}
	onAdded := 0
	for _, sp := range spans {
		if sp.Node == added.ID().String() {
			onAdded++
		}
	}
	if onAdded == 0 {
		t.Fatalf("8 fully traced tasks on the added node left 0 of %d spans: the node has no tracer", len(spans))
	}
}

// TestAddedNodeHonoursJobWeights: the slot queue of a node added with a fresh
// node.Config serves a weight-3 job three tasks to a weight-1 job's one, like
// every initial node's. Gate tasks hold every slot while both jobs queue a
// backlog; the gate then opens onto tasks that block on a second gate, so
// each slot ends up holding one task the queue chose, and the backlogs left
// behind show the split it made.
func TestAddedNodeHonoursJobWeights(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	rt, _ := newRuntime(t, cfg)
	ctx := context.Background()
	added, err := rt.Cluster().AddNode(ctx, node.Config{CPUs: 4, RecordLineage: true, SpilloverThreshold: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var started atomic.Int64
	gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for i, name := range []string{"gate0", "gate1"} {
		gate := gates[i]
		if err := rt.RegisterN(name, "blocks until its gate opens", 1, func(*Context, [][]byte) ([][]byte, error) {
			started.Add(1)
			<-gate
			return [][]byte{codec.MustEncode(true)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitStarted := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for started.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d gate tasks started", started.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	type call struct {
		d   *Driver
		ref types.ObjectID
	}
	var calls []call
	submit := func(d *Driver, fn string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ref, err := d.Call1(fn, worker.CallOptions{ZeroResources: true})
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call{d, ref})
		}
	}
	driver := func(weight int) *Driver {
		t.Helper()
		d, err := rt.NewDriverWithOptions(ctx, added, JobOptions{Weight: weight})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	local := added.LocalScheduler()
	slots := local.Config().WorkerSlots
	heavy, light := driver(3), driver(1)
	submit(driver(1), "gate0", slots)
	waitStarted(int64(slots))
	submit(heavy, "gate1", slots)
	submit(light, "gate1", slots)
	close(gates[0])
	waitStarted(int64(2 * slots))
	ranHeavy := slots - local.PendingForJob(heavy.Job)
	ranLight := slots - local.PendingForJob(light.Job)
	close(gates[1])
	for _, c := range calls {
		if _, err := Get(c.d, RefAs[bool](c.ref)); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d slots: weight 3 got %d, weight 1 got %d", slots, ranHeavy, ranLight)
	if ranHeavy+ranLight != slots || ranLight == 0 || ranHeavy < 2*ranLight {
		t.Fatalf("%d freed slots went %d to the weight-3 job and %d to the weight-1 job, want about 3:1",
			slots, ranHeavy, ranLight)
	}
}
