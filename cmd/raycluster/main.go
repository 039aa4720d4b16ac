// Command raycluster starts an in-process Ray cluster, runs a stream of tasks
// and actor calls against it while injecting node failures, and prints the
// GCS event log and per-node statistics at the end — a small operational demo
// of the system layer (scheduler spillover, object transfer, lineage
// reconstruction, actor reconstruction).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"ray/internal/codec"
	"ray/internal/telemetry"
	"ray/ray"
)

func main() {
	// The demo's own settings; every knob flag binds straight into cfg.
	cfg := ray.DefaultConfig()
	cfg.SpilloverThreshold = 4
	cfg.CheckpointInterval = 10
	cfg.TraceSampleEvery = 1
	flag.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "number of nodes")
	flag.Float64Var(&cfg.CPUs, "cpus", cfg.CPUs, "CPUs per node (0 = 4)")
	flag.Int64Var(&cfg.ChunkBytes, "chunk-bytes", cfg.ChunkBytes, "chunk granularity of pipelined object pulls (0 = 1 MiB)")
	flag.IntVar(&cfg.PipelineDepth, "pipeline-depth", cfg.PipelineDepth, "chunks per transfer message round trip (0 = 4)")
	flag.StringVar(&cfg.SpillDir, "spill-dir", cfg.SpillDir, "directory for spill-to-disk of primary object copies under memory pressure (empty = spilling disabled)")
	flag.Int64Var(&cfg.ObjectStoreBytes, "store-bytes", cfg.ObjectStoreBytes, "object store capacity per node in bytes (0 = 1 GiB)")
	flag.IntVar(&cfg.TraceSampleEvery, "trace-sample", cfg.TraceSampleEvery, "trace one task lifecycle in every N (rounded up to a power of two); the demo defaults to full capture, the library default is 16")
	tasks := flag.Int("tasks", 200, "number of tasks to run")
	kill := flag.Int("kill", 1, "number of nodes to kill mid-run")
	weight := flag.Int("job-weight", 1, "fair-share weight of this driver's job")
	timeline := flag.String("timeline", "", "write the run's task-lifecycle spans as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	httpAddr := flag.String("http", "", "serve /metrics, /statusz, /timeline and /debug/pprof/* on this address (e.g. 127.0.0.1:8077; empty = off)")
	linger := flag.Duration("linger", 0, "keep the process (and the -http endpoint) alive this long after the run, for scraping")
	flag.Parse()

	ctx := context.Background()
	rt, err := ray.Init(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Shutdown()

	if *httpAddr != "" {
		cl := rt.Cluster()
		handler := telemetry.NewHandler(telemetry.HandlerConfig{
			Metrics:   cl.Metrics(),
			Reporters: cl.Reporters,
			Spans: func(ctx context.Context) ([]telemetry.Span, error) {
				if err := cl.FlushTelemetry(ctx); err != nil {
					return nil, err
				}
				return cl.GCS().Spans(ctx)
			},
		})
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry listening on http://%s (/metrics /statusz /timeline /debug/pprof/)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, handler); err != nil {
				log.Printf("telemetry server: %v", err)
			}
		}()
	}

	work, err := ray.Register1(rt, "work", "burns a few milliseconds and returns its input + 1",
		func(tc *ray.Context, x int) (int, error) {
			time.Sleep(2 * time.Millisecond)
			return x + 1, nil
		})
	if err != nil {
		log.Fatal(err)
	}
	Counter, err := ray.RegisterActorClass0(rt, "Counter", "stateful counter",
		func(tc *ray.Context) (*counter, error) { return &counter{}, nil })
	if err != nil {
		log.Fatal(err)
	}
	incM, err := ray.ActorMethod0(Counter, "inc",
		func(tc *ray.Context, c *counter) (int, error) {
			c.value++
			return c.value, nil
		})
	if err != nil {
		log.Fatal(err)
	}

	driver, err := rt.NewDriverWithOptions(ctx, rt.Cluster().HeadNode(), ray.JobOptions{Name: "raycluster-demo", Weight: *weight})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("driver attached as job %v (weight %d)\n", driver.Job, *weight)
	actor, err := Counter.New(driver)
	if err != nil {
		log.Fatal(err)
	}
	inc := incM.Bind(actor)

	fmt.Printf("running %d tasks across %d nodes, killing %d node(s) mid-run...\n", *tasks, cfg.Nodes, *kill)
	killed := 0
	var refs []ray.ObjectRef[int]
	for i := 0; i < *tasks; i++ {
		if killed < *kill && i == (*tasks/2)*(killed+1)/(*kill) {
			for _, n := range rt.Cluster().NodeList() {
				if !n.Dead() && n.ID() != driver.Node.ID() {
					fmt.Printf("  !! killing node %v at task %d\n", n.ID(), i)
					_ = rt.Cluster().KillNode(ctx, n.ID())
					killed++
					break
				}
			}
		}
		ref, err := work.Remote(driver, i)
		if err != nil {
			log.Fatal(err)
		}
		refs = append(refs, ref)
		if i%10 == 0 {
			if _, err := inc.Remote(driver); err != nil {
				log.Fatal(err)
			}
		}
	}
	ok := 0
	for _, ref := range refs {
		if _, err := ray.Get(driver, ref); err == nil {
			ok++
		}
	}
	fmt.Printf("tasks completed successfully: %d/%d\n", ok, *tasks)

	// Detach the driver: job-exit cleanup terminates its actor and releases
	// its objects before the cluster itself shuts down.
	report, err := ray.Shutdown(ctx, driver)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job cleanup: %d queued tasks cancelled, %d actors stopped, %d objects released\n",
		report.TasksCancelled, report.ActorsStopped, report.ObjectsReleased)

	fmt.Println("\nper-node statistics:")
	for i, n := range rt.Cluster().NodeList() {
		st := n.Stats()
		state := "alive"
		if n.Dead() {
			state = "dead"
		}
		fmt.Printf("  node %d [%s]: tasks=%d methods=%d forwarded=%d reconstructed=%d objects=%d\n",
			i, state, st.Workers.TasksRun, st.Workers.MethodsRun,
			st.Scheduler.Forwarded, st.Lineage.ReconstructedTasks, st.Objects.Objects)
	}
	stats := rt.Cluster().Stats()
	fmt.Printf("\ncluster: forwards=%d actorRoutes=%d actorsReconstructed=%d globalDecisions=%d\n",
		stats.Forwards, stats.ActorRoutes, stats.ActorsReconstructed, stats.GlobalDecisions)

	events, err := rt.Cluster().GCS().Events(ctx)
	if err == nil {
		fmt.Printf("\nGCS event log (%d events):\n", len(events))
		for _, e := range events {
			fmt.Printf("  [%s] %s %s\n", time.Unix(0, e.UnixNano).Format("15:04:05.000"), e.Kind, e.Message)
		}
	}

	if *timeline != "" {
		if err := writeTimeline(ctx, rt, *timeline); err != nil {
			log.Fatal(err)
		}
	}
	if *linger > 0 {
		fmt.Printf("lingering %v before shutdown...\n", *linger)
		time.Sleep(*linger)
	}
}

// writeTimeline flushes buffered spans into the GCS span table, reads the
// whole table back, and renders it as Chrome trace-event JSON.
func writeTimeline(ctx context.Context, rt *ray.Runtime, path string) error {
	cl := rt.Cluster()
	if err := cl.FlushTelemetry(ctx); err != nil {
		return fmt.Errorf("flush telemetry: %w", err)
	}
	spans, err := cl.GCS().Spans(ctx)
	if err != nil {
		return fmt.Errorf("read span table: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", len(spans), path)
	return nil
}

// counter is a checkpointable counter; its single method lives on the class's
// registration-time method table.
type counter struct{ value int }

func (c *counter) Checkpoint() ([]byte, error) { return codec.Encode(c.value) }
func (c *counter) Restore(data []byte) error   { return codec.Decode(data, &c.value) }
