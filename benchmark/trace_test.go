package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested counted once", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-20, 10}, {90, 150}}, 80},
		{"unsorted", []interval{{50, 70}, {10, 20}}, 70},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOpSelfTimeIsInFlightTime(t *testing.T) {
	// Op 7: submitted 0..10, in flight, retired with a get 80..95 and a free
	// 95..100.
	spans := []span{
		{spanRemote, 7, 0, 10},
		{spanGet, 7, 80, 95},
		{spanFree, 7, 95, 100},
		{spanOp, 7, 0, 100},
	}
	byKind, opSelf := durationsByKind(spans)
	if len(opSelf) != 1 || opSelf[0] != 0.07 {
		t.Fatalf("op self time = %v us, want [0.07]", opSelf)
	}
	if got := byKind[spanGet]; len(got) != 1 || got[0] != 0.015 {
		t.Fatalf("get durations = %v us, want [0.015]", got)
	}
}

func TestUnexplainedGetIsWhatNoPhaseCovers(t *testing.T) {
	spans := []span{
		{spanRemote, 0, 0, 10}, {spanGet, 0, 10, 110}, {spanOp, 0, 0, 110},
		{spanRemote, 1, 200, 210}, {spanGet, 1, 210, 300}, {spanOp, 1, 200, 300},
	}
	program := []interval{
		{5, 20}, {20, 60}, {30, 50}, // op 0: queue from before the get, exec with store nested
		{205, 230}, // op 1
	}
	got := unexplainedGet(spans, program)
	// op 0: get 100 ns, phases cover 10..60 of it; op 1: get 90 ns, 20 covered.
	if len(got) != 2 || got[0] != 0.05 || got[1] != 0.07 {
		t.Fatalf("unexplained = %v us, want [0.05 0.07]", got)
	}
}

func TestDecayRatio(t *testing.T) {
	// Eight ops: the first quarter completes by t=20, the last takes 40.
	var spans []span
	for i, end := range []int64{10, 20, 30, 40, 50, 60, 80, 100} {
		spans = append(spans, span{spanOp, int32(i), 0, end})
	}
	if got := decayRatio(spans, 0); got != 0.5 {
		t.Fatalf("decay ratio = %v, want 0.5", got)
	}
}
