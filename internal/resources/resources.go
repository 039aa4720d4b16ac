// Package resources models the resource vectors Ray uses to express task and
// actor requirements (CPUs, GPUs, and arbitrary user-defined resources) and
// the per-node availability the schedulers match those requirements against.
//
// Quantities are stored in fixed-point milli-units (1 CPU == 1000 milli-CPUs)
// so fractional requests such as 0.5 GPU are exact and arithmetic never
// accumulates floating-point drift.
package resources

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"
)

// Canonical resource names.
const (
	CPU = "CPU"
	GPU = "GPU"
	// Memory is expressed in megabytes.
	Memory = "memory"
)

const milli = 1000

// Request is a demand for resources, e.g. the `num_gpus=2` annotation on a
// remote function in the paper's Figure 3.
type Request struct {
	// demands lists the requested resources sorted by name. Requests name a
	// handful of resources and are walked on every scheduling decision and
	// spec encode, which a short sorted slice serves faster than a map and in
	// a deterministic order.
	demands []demand
}

// demand is one resource's requested quantity in milli-units.
type demand struct {
	name  string
	milli int64
}

// NewRequest builds a Request from whole-unit float quantities.
// Zero-valued entries are dropped.
func NewRequest(quantities map[string]float64) Request {
	r := Request{demands: make([]demand, 0, len(quantities))}
	for name, q := range quantities {
		if q == 0 {
			continue
		}
		r.demands = append(r.demands, demand{name, int64(q*milli + 0.5)})
	}
	r.sort()
	return r
}

func (r Request) sort() {
	slices.SortFunc(r.demands, func(a, b demand) int { return cmp.Compare(a.name, b.name) })
}

// CPUs is shorthand for a CPU-only request.
func CPUs(n float64) Request { return NewRequest(map[string]float64{CPU: n}) }

// GPUs is shorthand for a request of n GPUs and one CPU, the common shape of
// a training task.
func GPUs(n float64) Request {
	return NewRequest(map[string]float64{CPU: 1, GPU: n})
}

// Empty reports whether the request demands nothing.
func (r Request) Empty() bool { return len(r.demands) == 0 }

// Get returns the requested whole-unit quantity of a named resource.
func (r Request) Get(name string) float64 {
	for _, d := range r.demands {
		if d.name == name {
			return float64(d.milli) / milli
		}
	}
	return 0
}

// Len returns how many resources the request names.
func (r Request) Len() int { return len(r.demands) }

// All iterates the request's resources in name order with their whole-unit
// quantities, without allocating.
func (r Request) All() iter.Seq2[string, float64] {
	return func(yield func(string, float64) bool) {
		for _, d := range r.demands {
			if !yield(d.name, float64(d.milli)/milli) {
				return
			}
		}
	}
}

// Add returns a request combining the demands of r and other.
func (r Request) Add(other Request) Request {
	out := Request{demands: append(make([]demand, 0, len(r.demands)+len(other.demands)), r.demands...)}
	for _, d := range other.demands {
		if i := slices.IndexFunc(out.demands, func(o demand) bool { return o.name == d.name }); i >= 0 {
			out.demands[i].milli += d.milli
		} else {
			out.demands = append(out.demands, d)
		}
	}
	out.sort()
	return out
}

// String implements fmt.Stringer, e.g. "{CPU:1 GPU:2}".
func (r Request) String() string {
	if r.Empty() {
		return "{}"
	}
	parts := make([]string, 0, len(r.demands))
	for n, q := range r.All() {
		parts = append(parts, fmt.Sprintf("%s:%g", n, q))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Pool tracks the total and currently available resources of a node. It is
// not safe for concurrent use; callers (the local scheduler) serialize access.
type Pool struct {
	total     map[string]int64
	available map[string]int64
}

// NewPool creates a pool with the given whole-unit capacities.
func NewPool(capacities map[string]float64) *Pool {
	p := &Pool{
		total:     make(map[string]int64, len(capacities)),
		available: make(map[string]int64, len(capacities)),
	}
	for name, q := range capacities {
		units := int64(q*milli + 0.5)
		p.total[name] = units
		p.available[name] = units
	}
	return p
}

// NewNodePool is shorthand for the common CPU/GPU/memory node shape.
func NewNodePool(cpus, gpus float64, memoryMB float64) *Pool {
	caps := map[string]float64{CPU: cpus}
	if gpus > 0 {
		caps[GPU] = gpus
	}
	if memoryMB > 0 {
		caps[Memory] = memoryMB
	}
	return NewPool(caps)
}

// Total returns the whole-unit capacity of a named resource.
func (p *Pool) Total(name string) float64 { return float64(p.total[name]) / milli }

// Available returns the whole-unit currently free quantity of a resource.
func (p *Pool) Available(name string) float64 { return float64(p.available[name]) / milli }

// CanEverFit reports whether the request fits within the pool's *total*
// capacity, i.e. whether the request is feasible on this node at all.
func (p *Pool) CanEverFit(r Request) bool {
	for _, d := range r.demands {
		if p.total[d.name] < d.milli {
			return false
		}
	}
	return true
}

// Fits reports whether the request fits within currently available resources.
func (p *Pool) Fits(r Request) bool {
	for _, d := range r.demands {
		if p.available[d.name] < d.milli {
			return false
		}
	}
	return true
}

// Acquire reserves the requested resources. It returns false (and changes
// nothing) if the request does not fit.
func (p *Pool) Acquire(r Request) bool {
	if !p.Fits(r) {
		return false
	}
	for _, d := range r.demands {
		p.available[d.name] -= d.milli
	}
	return true
}

// Release returns previously acquired resources to the pool. Releasing more
// than was acquired is a programming error and panics, because silently
// inflating capacity would let the scheduler over-commit the node.
func (p *Pool) Release(r Request) {
	for _, d := range r.demands {
		p.available[d.name] += d.milli
		if p.available[d.name] > p.total[d.name] {
			panic(fmt.Sprintf("resources: release of %s exceeds capacity (%d > %d milli-units)",
				d.name, p.available[d.name], p.total[d.name]))
		}
	}
}

// Utilization returns the fraction of a named resource currently in use,
// in [0,1]. Unknown resources report zero utilization.
func (p *Pool) Utilization(name string) float64 {
	total := p.total[name]
	if total == 0 {
		return 0
	}
	return float64(total-p.available[name]) / float64(total)
}

// Snapshot returns the whole-unit available quantities, used in heartbeats to
// the global scheduler.
func (p *Pool) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(p.available))
	for name, q := range p.available {
		out[name] = float64(q) / milli
	}
	return out
}

// TotalSnapshot returns the whole-unit total capacities.
func (p *Pool) TotalSnapshot() map[string]float64 {
	out := make(map[string]float64, len(p.total))
	for name, q := range p.total {
		out[name] = float64(q) / milli
	}
	return out
}

// String implements fmt.Stringer.
func (p *Pool) String() string {
	names := make([]string, 0, len(p.total))
	for n := range p.total {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s:%g/%g", n, p.Available(n), p.Total(n)))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// FitsSnapshot reports whether a request fits in a snapshot of available
// resources (as exchanged via heartbeats). The global scheduler uses this to
// filter candidate nodes without holding any node-local lock.
func FitsSnapshot(available map[string]float64, r Request) bool {
	for name, q := range r.All() {
		if available[name] < q-1e-9 {
			return false
		}
	}
	return true
}
