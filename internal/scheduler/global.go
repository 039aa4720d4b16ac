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
	"sync"
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
	// remote input bytes into estimated transfer time. It is refined at run
	// time by exponential averaging over observed transfers.
	BandwidthBytesPerSec float64
	// InjectedLatency adds artificial delay to every scheduling decision,
	// reproducing the scheduler-latency ablation of Figure 12b.
	InjectedLatency time.Duration
	// EMAAlpha is the exponential-averaging coefficient for observed task
	// durations and bandwidth (paper Section 4.2.2). Zero means 0.2.
	EMAAlpha float64
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
	return GlobalConfig{LocalityAware: true, BandwidthBytesPerSec: 3.125e9, EMAAlpha: 0.2, MemoryWatermark: 0.8}
}

// Global is one global scheduler replica. Replicas are stateless: every
// scheduling decision is made from GCS state (node heartbeats and object
// locations), so adding replicas scales the control plane horizontally.
type Global struct {
	cfg GlobalConfig
	gcs *gcs.Store

	mu           sync.Mutex
	avgTaskMs    float64 //guard:by mu — exponentially averaged task execution time
	avgBandwidth float64 //guard:by mu — exponentially averaged transfer bandwidth

	decisions atomic.Int64
}

// NewGlobal creates a global scheduler replica backed by the given GCS.
func NewGlobal(cfg GlobalConfig, store *gcs.Store) *Global {
	if cfg.BandwidthBytesPerSec <= 0 {
		cfg.BandwidthBytesPerSec = DefaultGlobalConfig().BandwidthBytesPerSec
	}
	if cfg.EMAAlpha <= 0 || cfg.EMAAlpha > 1 {
		cfg.EMAAlpha = 0.2
	}
	return &Global{cfg: cfg, gcs: store, avgBandwidth: cfg.BandwidthBytesPerSec, avgTaskMs: 5}
}

// Decisions returns how many placement decisions this replica has made.
func (g *Global) Decisions() int64 { return g.decisions.Load() }

// ObserveTaskDuration folds an observed task execution time into the
// exponential average used for queue-delay estimation.
func (g *Global) ObserveTaskDuration(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.avgTaskMs = g.cfg.EMAAlpha*float64(d.Milliseconds()) + (1-g.cfg.EMAAlpha)*g.avgTaskMs
}

// ObserveBandwidth folds an observed transfer bandwidth (bytes/sec) into the
// exponential average used for transfer-delay estimation.
func (g *Global) ObserveBandwidth(bytesPerSec float64) {
	if bytesPerSec <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.avgBandwidth = g.cfg.EMAAlpha*bytesPerSec + (1-g.cfg.EMAAlpha)*g.avgBandwidth
}

// Schedule picks the node with the lowest estimated waiting time for the
// task: (queued tasks × average task duration) + (remote input bytes ÷
// average bandwidth), considering only nodes whose total resources can
// satisfy the request (paper Section 4.2.2).
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

	g.mu.Lock()
	avgTaskMs := g.avgTaskMs
	bandwidth := g.avgBandwidth
	g.mu.Unlock()

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
			avg = avgTaskMs
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
			cost += float64(remoteBytes) / bandwidth * 1000 // milliseconds
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

// Pool is a set of global scheduler replicas with round-robin selection.
// All replicas share state through the GCS, so adding replicas removes the
// global scheduler as a bottleneck (paper Section 4.2.2).
type Pool struct {
	replicas []*Global
	next     atomic.Uint64
}

// NewPool creates n global scheduler replicas.
func NewPool(n int, cfg GlobalConfig, store *gcs.Store) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{}
	for i := 0; i < n; i++ {
		p.replicas = append(p.replicas, NewGlobal(cfg, store))
	}
	return p
}

// Pick returns the next replica (round-robin).
func (p *Pool) Pick() *Global {
	idx := p.next.Add(1)
	return p.replicas[int(idx)%len(p.replicas)]
}

// Replicas returns all replicas.
func (p *Pool) Replicas() []*Global { return p.replicas }

// Schedule delegates to the next replica.
func (p *Pool) Schedule(ctx context.Context, spec *task.Spec) (types.NodeID, error) {
	return p.Pick().Schedule(ctx, spec)
}
