package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// BENCHMARK.json and the program's own catalogue must name the same
// workloads and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, s.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, listed []specMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(listed), len(defs))
		}
		for i, def := range defs {
			got := listed[i]
			if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got, def)
			}
			if bounded != (got.Bound != nil) || (bounded && *got.Bound != def.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the program's %v", kind, def.name, def.bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)
}

// runSmoke runs every workload at 1% of its op count (and the probes at
// minimal iterations) and returns the detail records by workload.
func runSmoke(t *testing.T, traced bool) map[string]detail {
	t.Helper()
	var out bytes.Buffer
	ok, err := runAll(&out, workloads, options{seed: 7, seconds: 0, traced: traced, scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("smoke run reported failures:\n%s", out.String())
	}
	got := map[string]detail{}
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var d detail
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatal(err)
		}
		got[d.Workload] = d
	}
	return got
}

// Every metric BENCHMARK.json names is emitted with its unit for every
// workload, and none it does not name; every workload verifies its ops.
func TestSmokeEmitsExactlyTheNamedMetrics(t *testing.T) {
	s := readSpec(t)
	start := time.Now()
	for _, mode := range []struct {
		traced bool
		want   []specMetric
	}{{false, s.EndToEnd}, {true, s.PerLayer}} {
		got := runSmoke(t, mode.traced)
		for _, w := range s.Workloads {
			d, ok := got[w.Name]
			if !ok {
				t.Fatalf("traced=%v: no record for workload %s", mode.traced, w.Name)
			}
			if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
				t.Errorf("traced=%v %s: correct=%v attempted=%d failed=%d %s",
					mode.traced, w.Name, d.Correct, d.Attempted, d.Failed, d.FirstError)
			}
			if len(d.Metrics) != len(mode.want) {
				t.Errorf("traced=%v %s: %d metrics emitted, %d named", mode.traced, w.Name, len(d.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				if v, ok := d.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("traced=%v %s: metric %s emitted=%v unit %q, want unit %q", mode.traced, w.Name, m.Name, ok, v.Unit, m.Unit)
				}
			}
		}
		if mode.traced {
			// objectmanager.pulls_per_op also counts a Get that arrives before
			// its object exists, so bytes tell whether data moved.
			if p := got["remote_args"].Metrics["objectmanager.pulls_per_op"].Value; p < 2 {
				t.Errorf("remote_args pulled %v objects per op, want at least its 2 arguments", p)
			}
			if b := got["remote_args"].Metrics["objectmanager.bytes_pulled_per_op"].Value; b < 2*remoteArgBytes {
				t.Errorf("remote_args pulled %v bytes per op, want at least its two 4 MiB arguments", b)
			}
			if b := got["sync_roundtrip"].Metrics["objectmanager.bytes_pulled_per_op"].Value; b != 0 {
				t.Errorf("sync_roundtrip pulled %v bytes per op, want 0", b)
			}
		}
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("smoke runs took %v; they are meant to stay in the low seconds", took)
	}
}

// A single-workload run ends with the driver's result line: exactly the keys
// correct, attempted, failed and metrics, each metric a value and a unit.
func TestSingleWorkloadEndsWithResultLine(t *testing.T) {
	var out bytes.Buffer
	if _, err := runAll(&out, workloads[1:2], options{seed: 3, seconds: 0, scale: 0.01}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", res)
	}
	var metrics map[string]map[string]json.RawMessage
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("%d metrics on the result line, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
}

// The traced run writes a Chrome trace only when asked to.
func TestTraceFileOnlyWithOut(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if _, err := runAll(&out, workloads[1:2], options{seed: 3, seconds: 0, traced: true, scale: 0.01, outDir: dir}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "sync_roundtrip.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for _, e := range events {
		cats[e["cat"].(string)] = true
	}
	if !cats["benchmark"] || !cats["exec"] {
		t.Fatalf("trace has categories %v, want the benchmark's spans and the program's phases", cats)
	}
}
