// Command raylint runs the project's static-analysis suite: five analyzers
// enforcing the runtime's concurrency, error-handling, and context
// invariants (see internal/lint). It loads and type-checks every package
// under ./internal, ./ray, ./cmd, and ./examples using only the standard
// library, applies //lint:ignore suppressions, checks the suppressions
// themselves for staleness, and exits non-zero on any finding — it is a
// blocking CI gate.
//
// Usage:
//
//	go run ./cmd/raylint ./...            # lint the default trees
//	go run ./cmd/raylint ./internal/gcs   # lint one subtree
//	go run ./cmd/raylint -list            # list checks
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ray/internal/lint"
)

func main() {
	listChecks := flag.Bool("list", false, "list the available checks and exit")
	rootFlag := flag.String("root", "", "module root (default: nearest parent of the working directory containing go.mod)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: raylint [flags] [./... | dirs]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *listChecks {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name(), a.Doc())
		}
		fmt.Printf("%-10s %s\n", lint.StaleIgnoreCheck, "suppression directives must be well-formed and still suppress something")
		return
	}

	root := *rootFlag
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	dirs := targetDirs(flag.Args())
	prog, err := lint.Load(root, dirs...)
	if err != nil {
		fatal(err)
	}

	var diags []lint.Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Analyze(prog)...)
	}
	ignores, malformed := lint.CollectIgnores(prog)
	diags = lint.ApplyIgnores(diags, ignores, true)
	diags = append(diags, malformed...)
	lint.SortDiagnostics(diags)

	for _, d := range diags {
		d.Pos.Filename = relativeTo(root, d.Pos.Filename)
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "raylint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// targetDirs maps command-line patterns to the directory trees to load.
// "./..." (and no arguments) selects the default trees; explicit directory
// arguments are loaded as given, with any "/..." suffix stripped (the loader
// always walks recursively).
func targetDirs(args []string) []string {
	defaults := []string{"internal", "ray", "cmd", "examples"}
	if len(args) == 0 {
		return defaults
	}
	var out []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == "." {
			return defaults
		}
		arg = strings.TrimSuffix(arg, "/...")
		arg = strings.TrimPrefix(arg, "./")
		out = append(out, filepath.Clean(arg))
	}
	return out
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("raylint: no go.mod found above working directory")
		}
		dir = parent
	}
}

func relativeTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
