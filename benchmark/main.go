// Command benchmark is the repository's benchmark: four workloads driven
// through the public ray API against an in-process cluster, end-to-end
// metrics from untraced repetitions, and per-layer metrics from a separate
// traced run. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 30, "how long one workload measures")
		trace   = flag.Int("trace", 0, "1 runs the traced repetitions and the layer probes and reports per-layer metrics")
		out     = flag.String("out", "", "directory for <workload>.trace.json (traced run only)")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	ok, err := runAll(os.Stdout, selected, options{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
