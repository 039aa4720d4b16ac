package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// minReps is the fewest end-to-end repetitions a run makes, even when
	// they overrun -seconds (done asks for more where the tail needs them):
	// the quiet quarter it reports from is then never fewer than 3.
	minReps = 10
	// minTracedReps is the fewest traced repetitions (each paired with an
	// untraced one of the same size) the traced run reports from.
	minTracedReps = 3
	// tracedScale is the share of a workload's op count a traced repetition
	// and its untraced companion run.
	tracedScale = 0.4
)

// options are the settings of one invocation.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
	// scale multiplies every op and probe iteration count; 1 except in the
	// smoke test.
	scale float64
}

// workloadRun accumulates one workload's repetitions.
type workloadRun struct {
	w       workload
	plain   []*repResult // untraced: the end-to-end run, or the traced run's baseline
	traced  []*repResult
	spent   time.Duration
	longest time.Duration // the longest step so far, the estimate for the next
}

func (r *workloadRun) done(opt options, budget time.Duration) bool {
	enough := len(r.plain) >= max(minReps, repsForTail(r.w))
	if opt.traced {
		enough = len(r.traced) >= minTracedReps
	}
	return enough && r.spent+r.longest > budget
}

// step runs the next repetition: one untraced repetition at full size, or in
// the traced run an untraced and a traced one at tracedScale. Every
// repetition draws its inputs from its own seed.
func (r *workloadRun) step(opt options) error {
	start := time.Now()
	rc := repConfig{w: r.w, seed: mix(opt.seed + uint64(len(r.plain))), scale: opt.scale}
	if opt.traced {
		rc.scale *= tracedScale
	}
	rep, err := runRep(rc)
	if err != nil {
		return err
	}
	r.plain = append(r.plain, rep)
	if opt.traced {
		rc.traced = true
		if rep, err = runRep(rc); err != nil {
			return err
		}
		if opt.outDir != "" && len(r.traced) == 0 {
			tr := rep.trace
			if err := writeChromeTrace(opt.outDir, r.w.name, tr.epoch, tr.perDriver, tr.program); err != nil {
				return err
			}
		}
		// Spans are only needed until the metrics are derived.
		rep.inSitu = inSituMetrics(r.w, rep)
		rep.trace = nil
		r.traced = append(r.traced, rep)
	}
	took := time.Since(start)
	r.spent += took
	r.longest = max(r.longest, took)
	return nil
}

// reported is one metric of a result: the value, its unit, and for metrics
// taken over repetitions their spread and sample count.
type reported struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
	// Reps holds the metric's value in each repetition, in the order run.
	Reps []float64 `json:"reps,omitempty"`
}

// detail is the full record of one workload's run, one JSON line; -compare
// reads these.
type detail struct {
	Workload   string              `json:"workload"`
	Seed       uint64              `json:"seed"`
	Trace      int                 `json:"trace"`
	Env        envInfo             `json:"env"`
	Config     runConfig           `json:"config"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	FirstError string              `json:"first_error,omitempty"`
	Metrics    map[string]reported `json:"metrics"`
}

// runConfig records the sizes actually used.
type runConfig struct {
	Drivers     int     `json:"drivers"`
	Window      int     `json:"window"`
	OpsPerRep   int     `json:"ops_per_driver_per_rep"`
	WarmupOps   int     `json:"warmup_ops_per_driver"`
	Reps        int     `json:"reps"`
	QuietReps   int     `json:"reps_reported_from"`
	TracedReps  int     `json:"traced_reps"`
	Seconds     float64 `json:"seconds"`
	TasksPerOp  int     `json:"tasks_per_op"`
	BytesPerOp  int64   `json:"bulk_bytes_per_op"`
	NetworkTime float64 `json:"network_time_scale"`
}

// envInfo records where the numbers were taken.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func readEnv() envInfo {
	env := envInfo{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// contractResult is the last line of a single-workload run.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAll runs the selected workloads repetition-major (repetition 1 of each,
// then repetition 2, ...) so machine drift spreads evenly over them, prints
// every metric by name with its unit, then one JSON detail line per workload
// and, for a single workload, the driver's result line. ok is false when any
// op failed or a counter that must stay zero did not.
func runAll(out io.Writer, selected []workload, opt options) (ok bool, err error) {
	if opt.scale == 0 {
		opt.scale = 1
	}
	begin := time.Now()
	var probes metricSet
	if opt.traced {
		if probes, err = runProbes(scaledProbeSizes(opt.scale)); err != nil {
			return false, err
		}
	}
	budget := time.Duration(opt.seconds*float64(time.Second)) - time.Since(begin)/time.Duration(len(selected))
	runs := make([]*workloadRun, len(selected))
	for i, w := range selected {
		runs[i] = &workloadRun{w: w}
	}
	for active := true; active; {
		active = false
		for _, r := range runs {
			if r.done(opt, budget) {
				continue
			}
			active = true
			if err := r.step(opt); err != nil {
				return false, err
			}
		}
	}
	env := readEnv()
	ok = true
	for _, r := range runs {
		d := r.summarize(opt, env, probes)
		ok = ok && d.Correct
		printTable(out, d)
		line, err := json.Marshal(d)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "%s\n", line)
		if len(runs) == 1 {
			res := contractResult{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed,
				Metrics: make(map[string]contractMetric, len(d.Metrics))}
			for name, m := range d.Metrics {
				res.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
			}
			if line, err = json.Marshal(res); err != nil {
				return false, err
			}
			fmt.Fprintf(out, "%s\n", line)
		}
	}
	return ok, nil
}

// summarize turns the repetitions into the workload's reported metrics:
// end-to-end ones from the untraced repetitions, or per-layer ones from the
// traced repetitions and the probes.
func (r *workloadRun) summarize(opt options, env envInfo, probes metricSet) detail {
	w := r.w
	scale := opt.scale
	if opt.traced {
		scale *= tracedScale
	}
	ops, warm := repOps(w, scale)
	d := detail{
		Workload: w.name, Seed: opt.seed, Env: env, Correct: true,
		Config: runConfig{Drivers: w.drivers, Window: w.window, OpsPerRep: ops,
			WarmupOps: warm, Reps: len(r.plain), QuietReps: len(quietReps(w, r.plain)), TracedReps: len(r.traced),
			Seconds: opt.seconds, TasksPerOp: w.tasksPerOp, BytesPerOp: w.bulkBytesPerOp, NetworkTime: w.network.TimeScale},
	}
	for _, rep := range append(append([]*repResult(nil), r.plain...), r.traced...) {
		d.Attempted += rep.attempted
		d.Failed += rep.failed
		if rep.firstErr != nil && d.FirstError == "" {
			d.FirstError = rep.firstErr.Error()
		}
		// These must stay zero on a healthy run whatever the ops returned.
		if rep.delta[cReplays] != 0 || rep.delta[cAppErrors] != 0 || rep.delta[cSchedFailed] != 0 {
			d.Correct = false
			if d.FirstError == "" {
				d.FirstError = fmt.Sprintf("lineage replays %v, worker app errors %v, scheduler failures %v; all must be 0",
					rep.delta[cReplays], rep.delta[cAppErrors], rep.delta[cSchedFailed])
			}
		}
	}
	d.Correct = d.Correct && d.Failed == 0 && d.FirstError == ""

	if !opt.traced {
		d.Metrics = endToEndMetrics(w, r.plain)
		return d
	}
	d.Trace = 1
	d.Metrics = make(map[string]reported, len(perLayer))
	layer := map[string][]float64{}
	for _, rep := range r.traced {
		for name, v := range rep.inSitu {
			layer[name] = append(layer[name], v)
		}
	}
	for name, v := range probes {
		layer[name] = []float64{v}
	}
	// Untraced over traced, of the workload's primary metric: above 1 for a
	// throughput lost to tracing, below 1 for a latency gained.
	plain, traced := endToEndMetrics(w, r.plain), endToEndMetrics(w, r.traced)
	primary := "tasks_per_s"
	if w.sequential() {
		primary = "latency_p50_ms"
	}
	layer["trace.overhead_ratio"] = []float64{ratio(plain[primary].Value, traced[primary].Value)}
	layer["budget.explained_share"] = []float64{ratio(probes["budget.sum_layers_us"], median(layer["runtime.cpu_us_per_op"]))}
	for _, def := range perLayer {
		vals := layer[def.name]
		lo, hi := minMax(vals)
		d.Metrics[def.name] = reported{Value: median(vals), Unit: def.unit, Min: lo, Max: hi, Samples: len(vals)}
	}
	return d
}

// repsForTail is how many repetitions of w pool enough latency samples for
// latency_p99_ms to have tailSamples beyond it, whatever the machine's speed:
// a workload with few ops per repetition repeats more. (Full-size counts: a
// scaled-down smoke run reports what it has.)
func repsForTail(w workload) int {
	perRep := w.ops * w.drivers
	return (100*tailSamples + perRep - 1) / perRep
}

// quietReps picks the repetitions a run reports from: the quarter with the
// shortest timed sections, and more where latency_p99_ms needs their samples.
// Every repetition does the same work, and on a shared host whatever else
// runs only ever lengthens it, for seconds or for most of a run; the median
// over all repetitions moves with what a run happens to catch, the quiet
// quarter not until three quarters of the run are disturbed.
func quietReps(w workload, reps []*repResult) []*repResult {
	quiet := append([]*repResult(nil), reps...)
	sort.SliceStable(quiet, func(i, j int) bool { return quiet[i].wallS < quiet[j].wallS })
	return quiet[:max((len(quiet)+3)/4, min(len(quiet), repsForTail(w)))]
}

// repValues are one figure per repetition, each end-to-end metric's.
type repValues struct {
	tput, heap, setup, p50, p99, pooled []float64
}

func valuesOf(w workload, reps []*repResult) repValues {
	var v repValues
	for _, rep := range reps {
		v.tput = append(v.tput, rep.tasksPerS(w))
		v.heap = append(v.heap, rep.retainedHeapMB)
		v.setup = append(v.setup, rep.setupS)
		s := sortedCopy(rep.latencyMs)
		v.p50 = append(v.p50, percentile(s, 0.5))
		v.p99 = append(v.p99, tail(s, 0.99))
		v.pooled = append(v.pooled, rep.latencyMs...)
	}
	sort.Float64s(v.pooled)
	return v
}

// endToEndMetrics reports from the quiet repetitions: throughput, heap and
// set-up as medians over them, latency percentiles over their pooled
// samples. Min, max and the per-repetition values are over every repetition
// run (for the latencies, over the repetitions' own percentiles).
func endToEndMetrics(w workload, reps []*repResult) map[string]reported {
	all, quiet := valuesOf(w, reps), valuesOf(w, quietReps(w, reps))
	over := func(vals []float64, value float64, samples int) reported {
		lo, hi := minMax(vals)
		return reported{Value: value, Min: lo, Max: hi, Samples: samples, Reps: vals}
	}
	m := map[string]reported{
		"tasks_per_s":      over(all.tput, median(quiet.tput), len(quiet.tput)),
		"latency_p50_ms":   over(all.p50, percentile(quiet.pooled, 0.5), len(quiet.pooled)),
		"latency_p99_ms":   over(all.p99, percentile(quiet.pooled, 0.99), len(quiet.pooled)),
		"retained_heap_mb": over(all.heap, median(quiet.heap), len(quiet.heap)),
		"setup_s":          over(all.setup, median(quiet.setup), len(quiet.setup)),
	}
	for _, def := range endToEnd {
		v := m[def.name]
		v.Unit = def.unit
		m[def.name] = v
	}
	return m
}

// printTable prints every metric of a workload by name with its unit, and
// for the traced run the cost budget with its unexplained remainder.
func printTable(out io.Writer, d detail) {
	kind := fmt.Sprintf("end-to-end, untraced, from the %d quietest reps", d.Config.QuietReps)
	defs := endToEnd
	if d.Trace == 1 {
		kind = "per-layer, traced"
		defs = perLayer
	}
	fmt.Fprintf(out, "== %s (%s; seed %d; %d+%d reps x %d ops x %d drivers, W=%d) ==\n",
		d.Workload, kind, d.Seed, d.Config.Reps, d.Config.TracedReps, d.Config.OpsPerRep, d.Config.Drivers, d.Config.Window)
	for _, def := range defs {
		m := d.Metrics[def.name]
		fmt.Fprintf(out, "%-40s %14.4f %-6s [min %.4f max %.4f n=%d]\n", def.name, m.Value, m.Unit, m.Min, m.Max, m.Samples)
	}
	if d.Trace == 1 {
		cpu, sum := d.Metrics["runtime.cpu_us_per_op"].Value, d.Metrics["budget.sum_layers_us"].Value
		fmt.Fprintf(out, "budget: layers %.2f us of %.2f us CPU per op explained (share %.3f), %.2f us unexplained\n",
			sum, cpu, d.Metrics["budget.explained_share"].Value, cpu-sum)
		if d.Workload == "sync_roundtrip" {
			fmt.Fprintf(out, "ray.get_unexplained_p50_us: %.1f us of a %.1f us get is outside every program phase\n",
				d.Metrics["ray.get_unexplained_p50_us"].Value, d.Metrics["ray.get_p50_us"].Value)
		}
	}
	fmt.Fprintf(out, "ops attempted %d, failed %d, correct %v %s\n", d.Attempted, d.Failed, d.Correct, d.FirstError)
}
