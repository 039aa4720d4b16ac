package main

import (
	"math"
	"slices"
	"testing"
)

func TestMedianMinMax(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("empty median = %v, want 0", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("median reordered its input: %v", in)
	}
	lo, hi := minMax([]float64{2, -1, 7, 3})
	if lo != -1 || hi != 7 {
		t.Fatalf("minMax = %v, %v; want -1, 7", lo, hi)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("p%v of 1..100 = %v, want %v", q*100, got, want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
		{19, 0.5, false}, {20, 0.5, true},
	}
	for _, c := range cases {
		if got := percentileOK(c.n, c.q); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for n, want := range map[int]float64{10: 0, 20: 0.5, 100: 0.9, 1000: 0.99, 10000: 0.999} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestRatioOfZeroIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 || math.IsNaN(got) {
		t.Fatalf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestQuietReps(t *testing.T) {
	reps := func(walls ...float64) []*repResult {
		var out []*repResult
		for _, w := range walls {
			out = append(out, &repResult{wallS: w})
		}
		return out
	}
	walls := func(reps []*repResult) []float64 {
		var out []float64
		for _, r := range reps {
			out = append(out, r.wallS)
		}
		return out
	}
	// 2 x 50 000 samples per repetition: one repetition holds a p99, so the
	// quietest quarter (rounded up) is kept, shortest first.
	big := workload{ops: 50000, drivers: 2}
	if got, want := walls(quietReps(big, reps(3, 1, 5, 2, 4))), []float64{1, 2}; !slices.Equal(got, want) {
		t.Errorf("quietReps kept %v, want %v", got, want)
	}
	// 60 samples per repetition: the p99 needs 17 repetitions' samples, so
	// with fewer than that all are kept, and with 20 run, 17 not 5.
	small := workload{ops: 60, drivers: 1}
	if got := len(quietReps(small, reps(3, 1, 5, 2, 4))); got != 5 {
		t.Errorf("quietReps kept %d of 5 small repetitions, want all", got)
	}
	if got := len(quietReps(small, reps(make([]float64, 20)...))); got != 17 {
		t.Errorf("quietReps kept %d of 20 small repetitions, want 17", got)
	}
}
