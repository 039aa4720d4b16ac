// Command raybench regenerates the tables and figures of the paper's
// evaluation (Section 5) from the experiment harness in internal/bench.
//
// Usage:
//
//	raybench                 # run every experiment at quick (laptop) scale
//	raybench -exp fig12a     # run one experiment
//	raybench -list           # list experiment identifiers
//	raybench -scale full     # larger configurations (slower)
//
// Every experiment is a single run: performance claims are measured with
// `bash benchmark/run.sh`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ray/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (empty = all); see -list")
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	flag.Parse()

	registry := bench.Registry()
	if *list {
		ids := make([]string, 0, len(registry))
		for id := range registry {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	scale := bench.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	run := func(name string, fn func(bench.Scale) (*bench.Table, error)) {
		start := time.Now()
		table, err := fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(table.String())
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *exp != "" {
		fn, ok := registry[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		run(*exp, fn)
		return
	}

	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		run(id, registry[id])
	}
}
