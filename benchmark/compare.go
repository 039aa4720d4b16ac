package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// loadDetails reads a result file: the output of a run, of which every line
// that is a workload's JSON detail record is kept. Later records of the same
// workload and trace mode replace earlier ones.
func loadDetails(path string) (map[string]detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]detail{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var d detail
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if d.Trace == 0 {
			out[d.Workload] = d
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result records", path)
	}
	return out, nil
}

// agreement is the verdict on one metric of one workload in two result sets.
type agreement struct {
	a, b  float64
	delta float64 // |a-b| over their mean
	bound float64
	ok    bool
}

// agree compares two medians of one metric: they agree when they differ by
// no more than bound of their mean.
func agree(a, b, bound float64) agreement {
	mean := (a + b) / 2
	delta := 0.0
	if mean != 0 {
		delta = math.Abs(a-b) / math.Abs(mean)
	}
	return agreement{a: a, b: b, delta: delta, bound: bound, ok: delta <= bound}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their relative difference and the bound, and returns the exit code: 0 when
// every metric agrees within its bound and both sets failed the same number
// of ops, 1 otherwise.
func compareFiles(out io.Writer, pathA, pathB string) int {
	var sets [2]map[string]detail
	for i, path := range []string{pathA, pathB} {
		set, err := loadDetails(path)
		if err != nil {
			fmt.Fprintln(out, "compare:", err)
			return 1
		}
		sets[i] = set
	}
	return compareDetails(out, sets[0], sets[1])
}

func compareDetails(out io.Writer, a, b map[string]detail) int {
	code := 0
	fmt.Fprintf(out, "%-16s %-18s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "delta", "bound")
	for _, w := range workloads {
		da, inA := a[w.name]
		db, inB := b[w.name]
		if !inA || !inB {
			if inA != inB {
				fmt.Fprintf(out, "%-16s present in only one result set\n", w.name)
				code = 1
			}
			continue
		}
		for _, def := range endToEnd {
			v := agree(da.Metrics[def.name].Value, db.Metrics[def.name].Value, def.bound)
			verdict := "ok"
			if !v.ok {
				verdict, code = "DISAGREE", 1
			}
			fmt.Fprintf(out, "%-16s %-18s %14.4f %14.4f %7.1f%% %5.0f%% %s\n",
				w.name, def.name, v.a, v.b, 100*v.delta, 100*v.bound, verdict)
		}
		if da.Failed != db.Failed {
			fmt.Fprintf(out, "%-16s failed ops differ: %d vs %d DISAGREE\n", w.name, da.Failed, db.Failed)
			code = 1
		}
	}
	return code
}
