// Package scheduler implements Ray's bottom-up distributed scheduler
// (paper Section 4.2.2): per-node local schedulers that run tasks locally
// whenever possible and forward to horizontally scalable global schedulers
// only when a node is overloaded or cannot satisfy a task's resource
// requirements.
package scheduler

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ray/internal/gcs"
	"ray/internal/resources"
	"ray/internal/task"
	"ray/internal/types"
)

// GlobalConfig controls global scheduler policy.
type GlobalConfig struct {
	// LocalityAware enables the input-transfer term of the placement cost.
	// Disabling it reproduces the "unaware" line of Figure 8a.
	LocalityAware bool
	// BandwidthBytesPerSec is the assumed transfer bandwidth used to convert
	// remote input bytes into estimated transfer time.
	BandwidthBytesPerSec float64
	// InjectedLatency adds artificial delay to every scheduling decision,
	// reproducing the scheduler-latency ablation of Figure 12b.
	InjectedLatency time.Duration
	// MemoryWatermark is the object-store occupancy fraction (used/capacity,
	// reported via heartbeats) above which a node is considered close to
	// eviction: placing a task there would likely spill or evict objects to
	// make room for its outputs. Such nodes are only chosen when no node
	// below the watermark can run the task. Zero disables the check.
	MemoryWatermark float64
}

// DefaultGlobalConfig returns a locality-aware configuration assuming a
// 25 Gbps interconnect, steering work away from nodes above 80% object-store
// occupancy.
func DefaultGlobalConfig() GlobalConfig {
	return GlobalConfig{LocalityAware: true, BandwidthBytesPerSec: 3.125e9, MemoryWatermark: 0.8}
}

// unreportedTaskMillis is the task time assumed for a node whose heartbeats
// have not reported an average yet.
const unreportedTaskMillis = 5

// Global is the global scheduler. It is stateless: every scheduling decision
// is made from GCS state (node heartbeats and object locations), which is
// what lets the paper scale it out by adding replicas. In one process
// replicas would decide exactly alike, so a cluster runs one.
type Global struct {
	cfg       GlobalConfig
	gcs       *gcs.Store
	decisions atomic.Int64
}

// NewGlobal creates a global scheduler backed by the given GCS.
func NewGlobal(cfg GlobalConfig, store *gcs.Store) *Global {
	if cfg.BandwidthBytesPerSec <= 0 {
		cfg.BandwidthBytesPerSec = DefaultGlobalConfig().BandwidthBytesPerSec
	}
	return &Global{cfg: cfg, gcs: store}
}

// Decisions returns how many placement decisions the scheduler has made.
func (g *Global) Decisions() int64 { return g.decisions.Load() }

// Schedule picks the node with the lowest estimated waiting time for the
// task: (queued tasks × the node's average task time) + (remote input bytes
// ÷ bandwidth), considering only nodes whose total resources can satisfy
// the request (paper Section 4.2.2).
func (g *Global) Schedule(ctx context.Context, spec *task.Spec) (types.NodeID, error) {
	g.decisions.Add(1)
	if g.cfg.InjectedLatency > 0 {
		timer := time.NewTimer(g.cfg.InjectedLatency)
		select {
		case <-ctx.Done():
			timer.Stop()
			return types.NilNodeID, ctx.Err()
		case <-timer.C:
		}
	}

	nodes, err := g.gcs.AliveNodes(ctx)
	if err != nil {
		return types.NilNodeID, err
	}
	if len(nodes) == 0 {
		return types.NilNodeID, fmt.Errorf("scheduler: no alive nodes: %w", types.ErrNoResources)
	}

	// Fetch dependency metadata once (it is the same for every candidate).
	type depInfo struct {
		size      int64
		locations []types.NodeID
	}
	var deps []depInfo
	if g.cfg.LocalityAware {
		for _, dep := range spec.Dependencies() {
			entry, ok, err := g.gcs.GetObject(ctx, dep)
			if err != nil {
				return types.NilNodeID, err
			}
			if ok {
				deps = append(deps, depInfo{size: entry.Size, locations: entry.Locations})
			}
		}
	}

	// Two candidate tiers: nodes whose *currently available* resources fit
	// the request (preferred — the task can start immediately), and nodes
	// whose total capacity fits it (fallback — the task must queue there).
	// Within a tier, pick the lowest estimated waiting time. Nodes above the
	// memory watermark are demoted out of the preferred tier and penalized in
	// the fallback tier, so tasks land on memory-pressured nodes only when
	// nothing else can run them.
	const memoryPressurePenaltyMillis = 1e9
	best := types.NilNodeID
	bestCost := math.MaxFloat64
	bestAvailable := types.NilNodeID
	bestAvailableCost := math.MaxFloat64
	feasible := false
	for _, n := range nodes {
		if !requestFitsTotal(n.TotalResources, spec.Resources) {
			continue
		}
		feasible = true
		pressured := g.cfg.MemoryWatermark > 0 && n.MemoryPressure() >= g.cfg.MemoryWatermark
		// Queueing delay estimate.
		avg := n.AvgTaskMillis
		if avg <= 0 {
			avg = unreportedTaskMillis
		}
		cost := float64(n.QueueLength) * avg
		// Transfer delay estimate for inputs not already on the node.
		if g.cfg.LocalityAware {
			var remoteBytes int64
			for _, d := range deps {
				if !containsNode(d.locations, n.ID) {
					remoteBytes += d.size
				}
			}
			cost += float64(remoteBytes) / g.cfg.BandwidthBytesPerSec * 1000 // milliseconds
		}
		if pressured {
			cost += memoryPressurePenaltyMillis
		}
		if cost < bestCost {
			bestCost = cost
			best = n.ID
		}
		if !pressured && resources.FitsSnapshot(n.AvailableResources, spec.Resources) && cost < bestAvailableCost {
			bestAvailableCost = cost
			bestAvailable = n.ID
		}
	}
	if !feasible {
		return types.NilNodeID, fmt.Errorf("scheduler: no node satisfies %s: %w",
			spec.Resources.String(), types.ErrNoResources)
	}
	if !bestAvailable.IsNil() {
		return bestAvailable, nil
	}
	return best, nil
}

func requestFitsTotal(total map[string]float64, req resources.Request) bool {
	return resources.FitsSnapshot(total, req)
}

func containsNode(nodes []types.NodeID, id types.NodeID) bool {
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}
