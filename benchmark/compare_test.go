package main

import (
	"io"
	"testing"
)

func TestAgreeWithinBound(t *testing.T) {
	if v := agree(100, 105, 0.10); !v.ok {
		t.Fatalf("100 vs 105 at 10%% disagrees: %+v", v)
	}
	if v := agree(100, 125, 0.10); v.ok {
		t.Fatalf("100 vs 125 at 10%% agrees: %+v", v)
	}
	if v := agree(0, 0, 0.10); !v.ok || v.delta != 0 {
		t.Fatalf("0 vs 0 = %+v, want agreement with delta 0", v)
	}
}

func resultSet(tput float64, failed int) map[string]detail {
	set := map[string]detail{}
	for _, w := range workloads {
		m := map[string]reported{}
		for _, def := range endToEnd {
			m[def.name] = reported{Value: 1, Unit: def.unit}
		}
		m["tasks_per_s"] = reported{Value: tput, Unit: "1/s"}
		set[w.name] = detail{Workload: w.name, Failed: failed, Metrics: m}
	}
	return set
}

func TestCompareVerdict(t *testing.T) {
	base := resultSet(1000, 0)
	if code := compareDetails(io.Discard, base, resultSet(1050, 0)); code != 0 {
		t.Errorf("5%% apart under a 25%% bound: exit %d, want 0", code)
	}
	if code := compareDetails(io.Discard, base, resultSet(1400, 0)); code != 1 {
		t.Errorf("33%% apart under a 25%% bound: exit %d, want 1", code)
	}
	if code := compareDetails(io.Discard, base, resultSet(1000, 1)); code != 1 {
		t.Errorf("different failed-op counts: exit %d, want 1", code)
	}
	partial := resultSet(1000, 0)
	delete(partial, workloads[0].name)
	if code := compareDetails(io.Discard, base, partial); code != 1 {
		t.Errorf("workload missing from one set: exit %d, want 1", code)
	}
}
