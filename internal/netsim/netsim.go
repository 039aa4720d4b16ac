// Package netsim models the data plane of a simulated cluster: link
// bandwidth, link latency, and (optionally scaled) task compute time.
//
// Every Ray control-plane component in this repository is real code; what is
// simulated is only the physical movement of bytes between nodes and the
// wall-clock cost of application compute. The model is deliberately simple —
// a fixed per-link latency plus size/bandwidth, divided across the number of
// parallel transfer streams — because that is the model the paper itself uses
// to motivate multi-threaded transfers (Section 5.1, allreduce) and
// locality-aware scheduling (Figure 8a).
//
// Two transfer granularities are offered. Transfer models a whole object
// moved as one blocking message striped over k streams: one latency plus
// size at k streams' worth of bandwidth. TransferChunk models one chunk
// train moved over a single stream: one latency plus the chunk bytes at a
// single stream's share of the NIC. A puller that splits an object into
// chunks and issues them concurrently from several worker goroutines (the
// object manager's pipelined pull path) pays the message latency once per
// in-flight window rather than once per object, and can overlap chunks of
// several objects — the multi-stream win of Figure 12a. TransferChunk is
// given the time the train was sent and returns when the model says it
// arrived, so whatever the receiver did since — reserve its buffer, copy the
// bytes in as they land — is inside the wire time, as on a real NIC, not
// added to it.
//
// A global TimeScale lets experiments that span hundreds of seconds in the
// paper complete in seconds here while preserving every ratio between
// compute, transfer, and scheduling delays.
//
// Wake-up precision. A modelled delay must end when the model says, or a
// 121 µs hop costs what the host's timer granularity costs instead. The Go
// runtime's own timers do not manage that on an idle process: with every P
// idle, the netpoller sleeps in epoll_wait, whose timeout is in whole
// milliseconds, so a 100 µs time.Timer fires after about 1.1 ms. On Linux a
// delay therefore parks on a one-shot timerfd registered with the netpoller:
// the kernel's high-resolution timer makes the fd readable and that wakes
// epoll_wait, within tens of microseconds of the deadline. Nothing spins, so
// a wait burns no CPU, and cancellation still ends it at once (the context
// moves the fd's read deadline into the past). Where a timerfd cannot be
// made — a process out of descriptors, or any other OS — the wait falls back
// to a time.Timer and its millisecond overshoot. TimeScale 0 makes no system
// call at all.
package netsim

import (
	"context"
	"time"
)

// Config describes the simulated interconnect and time scaling.
type Config struct {
	// BandwidthBytesPerSec is the per-stream bandwidth of a single link
	// direction. The paper's testbed uses 25 Gbps NICs (~3.1 GB/s).
	BandwidthBytesPerSec float64
	// LatencyPerMessage is the fixed one-way latency of a message.
	LatencyPerMessage time.Duration
	// MaxParallelStreams caps how many streams a single transfer can be
	// striped across (Ray stripes large objects over multiple TCP
	// connections; OpenMPI's eager protocol uses one).
	MaxParallelStreams int
	// TimeScale multiplies every simulated delay. 1.0 means real time;
	// 0.01 runs the simulation 100x faster. Zero means "no delays at all",
	// which unit tests use to stay instantaneous.
	TimeScale float64
}

// DefaultConfig returns a configuration approximating the paper's testbed
// (25 Gbps links, 100µs message latency) scaled 100x faster so benchmarks
// remain laptop-friendly.
func DefaultConfig() Config {
	return Config{
		BandwidthBytesPerSec: 3.125e9, // 25 Gbps
		LatencyPerMessage:    100 * time.Microsecond,
		MaxParallelStreams:   8,
		TimeScale:            0.01,
	}
}

// InstantConfig returns a configuration with no simulated delays. Unit and
// integration tests use it so correctness checks run as fast as possible.
func InstantConfig() Config {
	return Config{
		BandwidthBytesPerSec: 3.125e9,
		MaxParallelStreams:   8,
		TimeScale:            0,
	}
}

// Network simulates the cluster interconnect. It is safe for concurrent use:
// it holds no mutable state beyond its configuration.
type Network struct {
	cfg Config
}

// New creates a Network with the given configuration. Non-positive bandwidth
// or stream counts fall back to the defaults.
func New(cfg Config) *Network {
	if cfg.BandwidthBytesPerSec <= 0 {
		cfg.BandwidthBytesPerSec = DefaultConfig().BandwidthBytesPerSec
	}
	if cfg.MaxParallelStreams <= 0 {
		cfg.MaxParallelStreams = 1
	}
	if cfg.TimeScale < 0 {
		cfg.TimeScale = 0
	}
	return &Network{cfg: cfg}
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// TransferDuration returns the unscaled time to move size bytes using the
// given number of parallel streams. Streams beyond MaxParallelStreams give no
// additional speedup, matching the paper's observation that OpenMPI's
// single-threaded transfers cannot saturate a 25 Gbps link.
func (n *Network) TransferDuration(size int64, streams int) time.Duration {
	if size <= 0 {
		return n.cfg.LatencyPerMessage
	}
	if streams < 1 {
		streams = 1
	}
	if streams > n.cfg.MaxParallelStreams {
		streams = n.cfg.MaxParallelStreams
	}
	effective := n.cfg.BandwidthBytesPerSec * float64(streams) / float64(n.cfg.MaxParallelStreams)
	// A single stream still gets a full stream's share of the NIC; the
	// aggregate NIC bandwidth is BandwidthBytesPerSec and a transfer using k
	// of the MaxParallelStreams streams achieves k/Max of it.
	seconds := float64(size) / effective
	return n.cfg.LatencyPerMessage + time.Duration(seconds*float64(time.Second))
}

// Transfer blocks for the scaled duration of moving size bytes over the given
// number of streams, or until the context is cancelled.
func (n *Network) Transfer(ctx context.Context, size int64, streams int) error {
	return n.sleep(ctx, n.TransferDuration(size, streams))
}

// ChunkDuration returns the unscaled time to move one chunk train of size
// bytes over a single stream: one message latency plus the bytes at one
// stream's share of the NIC (BandwidthBytesPerSec / MaxParallelStreams).
// Chunked pullers run several such transfers concurrently — one per worker —
// so a window of k in-flight chunks achieves k streams' aggregate bandwidth
// while paying the latency once per window, not once per chunk round trip
// per object.
func (n *Network) ChunkDuration(size int64) time.Duration {
	if size <= 0 {
		return n.cfg.LatencyPerMessage
	}
	perStream := n.cfg.BandwidthBytesPerSec / float64(n.cfg.MaxParallelStreams)
	seconds := float64(size) / perStream
	return n.cfg.LatencyPerMessage + time.Duration(seconds*float64(time.Second))
}

// TransferChunk blocks until one chunk train of size bytes, sent at sent,
// has arrived: sent plus the scaled ChunkDuration(size). A train already due
// returns at once; cancellation ends the wait either way.
func (n *Network) TransferChunk(ctx context.Context, sent time.Time, size int64) error {
	return until(ctx, n.Scale(n.ChunkDuration(size))-time.Since(sent))
}

// MessageDelay blocks for one scaled message latency (a control-plane RPC).
func (n *Network) MessageDelay(ctx context.Context) error {
	return n.sleep(ctx, n.cfg.LatencyPerMessage)
}

// Compute blocks for the scaled equivalent of d of application compute time.
// Task workloads use it to model "a 100ms simulation step" without pinning a
// CPU for 100ms of real time.
func (n *Network) Compute(ctx context.Context, d time.Duration) error {
	return n.sleep(ctx, d)
}

// Scale returns d scaled by the configured TimeScale.
func (n *Network) Scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * n.cfg.TimeScale)
}

func (n *Network) sleep(ctx context.Context, d time.Duration) error {
	return until(ctx, n.Scale(d))
}

// until blocks for the already scaled remaining time, or until ctx is done.
func until(ctx context.Context, remaining time.Duration) error {
	if remaining <= 0 {
		// Still honour cancellation so infinite loops cannot ignore it.
		return ctx.Err()
	}
	return wait(ctx, remaining)
}

// timerWait blocks for d on the runtime timer, or until ctx is done: the
// portable wait, precise to the runtime's idle-poll granularity.
func timerWait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
