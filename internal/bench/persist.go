package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Result is the machine-readable form of one experiment run, which
// `raybench -persist` writes as BENCH_<experiment>.json at the repository
// root so runs are comparable across commits. Throughput and latency describe
// the experiment's primary configuration; Rows carries every variant
// (ablations included).
type Result struct {
	// Experiment is the registry identifier (e.g. "larger_than_memory").
	Experiment string `json:"experiment"`
	// Config records the knobs the run used (cluster size, payload sizes...).
	Config map[string]any `json:"config"`
	// Throughput is the primary configuration's throughput, in the unit
	// recorded under ThroughputUnit.
	Throughput     float64 `json:"throughput"`
	ThroughputUnit string  `json:"throughput_unit"`
	// P50Millis / P99Millis are the primary configuration's per-operation
	// latency percentiles.
	P50Millis float64 `json:"p50_millis"`
	P99Millis float64 `json:"p99_millis"`
	// Rows holds one entry per variant with the full measured metrics.
	Rows []map[string]any `json:"rows,omitempty"`
}

// Persist writes the result to BENCH_<experiment>.json at the repository
// root (found by walking up to go.mod). Outside a repo checkout it reports
// an error.
func Persist(r Result) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, "BENCH_"+r.Experiment+".json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// repoRoot walks up from the working directory to the directory containing
// go.mod.
func repoRoot() (string, error) {
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
			return "", fmt.Errorf("bench: no go.mod above working directory")
		}
		dir = parent
	}
}
