// Package core only keeps the config names benchmark/harness.go compiles
// against; the runtime itself is package ray. Nothing else may import it.
package core

import "ray/internal/cluster"

// Config is cluster.Config (ray.Config is the same type).
type Config = cluster.Config

// DefaultConfig returns cluster.DefaultConfig().
func DefaultConfig() Config { return cluster.DefaultConfig() }
