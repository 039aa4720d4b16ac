// Package bench contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5). Each experiment is a
// function returning a Table of results; the root-level bench_test.go wraps
// them as testing.B benchmarks and cmd/raybench prints them as text tables.
//
// Scale: the paper's experiments ran on up to 100 AWS nodes for minutes to
// hours. Each runner here accepts a Scale knob; Quick (the default used by
// benchmarks and CI) shrinks object sizes, task counts, and cluster sizes so
// every experiment finishes in seconds on a laptop while preserving the
// *shape* of the result — who wins, by roughly what factor, and where the
// crossovers are. EXPERIMENTS.md records the paper-reported numbers next to
// the measured ones.
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ray/internal/core"
	"ray/internal/netsim"
	"ray/ray"
)

// Scale selects how much work an experiment does.
type Scale int

const (
	// Quick is laptop-scale: seconds per experiment.
	Quick Scale = iota
	// Full is closer to the paper's configuration where feasible in-process.
	Full
)

// Table is one experiment's result in row/column form.
type Table struct {
	// Name is the experiment identifier ("Figure 8a", "Table 3", ...).
	Name string
	// Description says what is being measured.
	Description string
	// Columns are the column headers.
	Columns []string
	// Rows are the result rows, one string per column.
	Rows [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(values ...string) {
	t.Rows = append(t.Rows, values)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Name, t.Description)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f formats a float with sensible precision for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// ms formats a duration as milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// newCluster builds a runtime with common benchmark defaults.
func newCluster(cfg core.Config) (*core.Runtime, *core.Driver, error) {
	ctx := context.Background()
	rt, err := core.Init(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	d, err := rt.NewDriver(ctx)
	if err != nil {
		rt.Shutdown()
		return nil, nil, err
	}
	return rt, d, nil
}

// benchFuncs holds the typed handles of the small remote functions the
// microbenchmarks use. Handles are minted at registration, so experiment
// code cannot misspell a function name or mistype an argument.
type benchFuncs struct {
	// noop is the empty task of the throughput microbenchmark.
	noop ray.Func0[bool]
	// consume takes one payload object and returns its size.
	consume ray.Func1[[]byte, int]
	// makeBytes produces a payload of the requested size.
	makeBytes ray.Func1[int, []byte]
	// chainStep sleeps sleepMillis then returns token+1.
	chainStep ray.Func2[int, int, int]
	// simRollout runs one simulator rollout (env, seed, maxSteps) and
	// returns its step count.
	simRollout ray.Func3[string, int64, int, int]
	// counter is the checkpointable counter actor class of the
	// fault-tolerance experiments, with its registered methods.
	counter      ray.Class0[benchCounter]
	counterInc   ray.ClassMethod0[benchCounter, int]
	counterValue ray.ClassMethod0[benchCounter, int]
}

// registerBenchFunctions publishes the benchmark functions and returns their
// typed handles.
func registerBenchFunctions(rt *core.Runtime) (benchFuncs, error) {
	var fns benchFuncs
	var err error
	fns.noop, err = ray.Register0(rt, "bench.noop", "empty task (throughput microbenchmark)",
		func(ctx *ray.Context) (bool, error) { return true, nil })
	if err != nil {
		return fns, err
	}
	fns.consume, err = ray.Register1(rt, "bench.consume", "consumes one object and returns its size",
		func(ctx *ray.Context, payload []byte) (int, error) { return len(payload), nil })
	if err != nil {
		return fns, err
	}
	fns.makeBytes, err = ray.Register1(rt, "bench.make_bytes", "produces a payload of the requested size",
		func(ctx *ray.Context, size int) ([]byte, error) {
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			return payload, nil
		})
	if err != nil {
		return fns, err
	}
	fns.chainStep, err = ray.Register2(rt, "bench.chain_step", "sleeps briefly and passes a token along a chain",
		func(ctx *ray.Context, token, sleepMillis int) (int, error) {
			if sleepMillis > 0 {
				time.Sleep(time.Duration(sleepMillis) * time.Millisecond)
			}
			return token + 1, nil
		})
	if err != nil {
		return fns, err
	}
	fns.simRollout, err = ray.Register3(rt, "bench.sim_rollout", "runs one simulator rollout and returns its step count",
		func(ctx *ray.Context, envName string, seed int64, maxSteps int) (int, error) {
			return runSimRollout(envName, seed, maxSteps)
		})
	if err != nil {
		return fns, err
	}
	fns.counter, err = ray.RegisterActorClass0(rt, "bench.Counter",
		"checkpointable counter actor (fault-tolerance experiments)",
		func(ctx *ray.Context) (*benchCounter, error) { return &benchCounter{}, nil })
	if err != nil {
		return fns, err
	}
	fns.counterInc, err = ray.ActorMethod0(fns.counter, "inc",
		func(ctx *ray.Context, c *benchCounter) (int, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.value++
			return c.value, nil
		})
	if err != nil {
		return fns, err
	}
	fns.counterValue, err = ray.ActorMethod0(fns.counter, "value",
		func(ctx *ray.Context, c *benchCounter) (int, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.value, nil
		})
	return fns, err
}

// realisticNetwork returns a data-plane model matching the paper's testbed
// (25 Gbps, 100µs latency) at the requested time scale.
func realisticNetwork(timeScale float64) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.TimeScale = timeScale
	return cfg
}
