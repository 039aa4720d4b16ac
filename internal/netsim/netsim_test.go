package netsim

import (
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTransferDurationScalesWithSize(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 8, LatencyPerMessage: time.Millisecond})
	small := n.TransferDuration(1<<20, 8)
	large := n.TransferDuration(100<<20, 8)
	if large <= small {
		t.Fatalf("larger transfers must take longer: %v vs %v", small, large)
	}
	// 100MB at 1GB/s over all 8 streams ≈ 100ms + 1ms latency.
	want := 100*time.Millisecond + time.Millisecond
	if large < want*9/10 || large > want*11/10 {
		t.Fatalf("100MB duration %v, want ≈%v", large, want)
	}
}

func TestTransferDurationMoreStreamsFaster(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 8})
	one := n.TransferDuration(1<<30, 1)
	eight := n.TransferDuration(1<<30, 8)
	if one <= eight {
		t.Fatalf("single-stream transfer must be slower: 1=%v 8=%v", one, eight)
	}
	// One of eight streams gets 1/8 the bandwidth.
	if ratio := float64(one) / float64(eight); ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("expected ~8x slowdown for one stream, got %.2fx", ratio)
	}
	// Streams beyond the cap give no further speedup.
	if n.TransferDuration(1<<30, 16) != eight {
		t.Fatal("streams beyond MaxParallelStreams must not speed up transfers")
	}
}

func TestTransferDurationEdgeCases(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 4, LatencyPerMessage: time.Millisecond})
	if n.TransferDuration(0, 1) != time.Millisecond {
		t.Fatal("zero-size transfer should cost one message latency")
	}
	if n.TransferDuration(-5, 1) != time.Millisecond {
		t.Fatal("negative size treated as empty message")
	}
	if n.TransferDuration(1<<20, 0) != n.TransferDuration(1<<20, 1) {
		t.Fatal("zero streams must be treated as one")
	}
}

func TestTransferDurationMonotonicProperty(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 2e9, MaxParallelStreams: 8})
	f := func(a, b uint32, streams uint8) bool {
		s := int(streams%8) + 1
		small, big := int64(a%(1<<24)), int64(b%(1<<24))
		if small > big {
			small, big = big, small
		}
		return n.TransferDuration(small, s) <= n.TransferDuration(big, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstantConfigDoesNotSleep(t *testing.T) {
	n := New(InstantConfig())
	start := time.Now()
	for i := 0; i < 1000; i++ {
		if err := n.Transfer(context.Background(), 1<<30, 1); err != nil {
			t.Fatal(err)
		}
		if err := n.TransferChunk(context.Background(), time.Now(), 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("instant network slept: %v", elapsed)
	}
}

func TestTransferHonoursCancellation(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1, MaxParallelStreams: 1, TimeScale: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.Transfer(ctx, 1<<30, 1); err == nil {
		t.Fatal("cancelled transfer must return an error")
	}
	// Instant config must also observe a cancelled context.
	ni := New(InstantConfig())
	if err := ni.Compute(ctx, time.Second); err == nil {
		t.Fatal("cancelled compute must return an error even with TimeScale=0")
	}
}

func TestComputeAndMessageDelayScaled(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: 10 * time.Second, TimeScale: 0.0001})
	start := time.Now()
	if err := n.MessageDelay(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := n.Compute(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("scaled delays too slow: %v", elapsed)
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("scaled delays should still take ~2ms, took %v", elapsed)
	}
}

func TestDefaultsApplied(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: -1, MaxParallelStreams: -2, TimeScale: -1})
	cfg := n.Config()
	if cfg.BandwidthBytesPerSec <= 0 || cfg.MaxParallelStreams < 1 || cfg.TimeScale != 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if DefaultConfig().TimeScale <= 0 {
		t.Fatal("default config must have positive time scale")
	}
	if n.Scale(time.Second) != 0 {
		t.Fatal("negative time scale must clamp to zero")
	}
}

func TestChunkDurationSingleStreamShare(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 8, LatencyPerMessage: time.Millisecond})
	// One chunk rides one stream: 1MB at 1/8 of a 1GB/s NIC ≈ 8ms + 1ms latency.
	got := n.ChunkDuration(1 << 20)
	want := time.Millisecond + time.Duration(float64(1<<20)/(1e9/8)*float64(time.Second))
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("chunk duration %v, want ≈%v", got, want)
	}
	// Zero/negative sizes cost one message latency.
	if n.ChunkDuration(0) != time.Millisecond || n.ChunkDuration(-1) != time.Millisecond {
		t.Fatal("empty chunk should cost one message latency")
	}
	// A full window of MaxParallelStreams concurrent chunks matches a
	// whole-object transfer striped across every stream, modulo latency.
	whole := n.TransferDuration(8<<20, 8)
	chunked := n.ChunkDuration(1 << 20) // 8 of these run concurrently
	if chunked > whole+time.Millisecond || whole > chunked*8 {
		t.Fatalf("chunk model inconsistent with striped transfer: chunk=%v whole=%v", chunked, whole)
	}
}

func TestTransferChunkHonoursCancellation(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1, MaxParallelStreams: 1, TimeScale: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := n.TransferChunk(ctx, time.Now(), 1<<30); err == nil {
		t.Fatal("cancelled chunk transfer must return an error")
	}
	// A train already due still reports the cancellation.
	if err := n.TransferChunk(ctx, time.Now().Add(-time.Hour), 1); err == nil {
		t.Fatal("cancelled chunk transfer that is already due must return an error")
	}
}

// A chunk train counts its wire time from when it was sent: one sent long
// enough ago has arrived and returns at once, a recent one ends no earlier
// than its send time plus its modelled duration.
func TestTransferChunkCountsFromItsSendTime(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: time.Hour, TimeScale: 1})
	start := time.Now()
	if err := n.TransferChunk(context.Background(), start.Add(-2*time.Hour), 1<<20); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("a train due an hour ago waited %v", took)
	}

	n = New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: 20 * time.Millisecond, TimeScale: 1})
	for _, ago := range []time.Duration{0, 5 * time.Millisecond, 15 * time.Millisecond} {
		sent := time.Now().Add(-ago)
		if err := n.TransferChunk(context.Background(), sent, 1<<10); err != nil {
			t.Fatal(err)
		}
		if took, want := time.Since(sent), n.ChunkDuration(1<<10); took < want {
			t.Fatalf("train sent %v ago arrived %v after its send, before its modelled %v", ago, took, want)
		}
	}
}

// TestModelledWaitEndsNearItsDeadline: a 100 µs modelled delay costs about
// 100 µs, not the ~1.1 ms an idle runtime's millisecond poll timeout makes of
// a time.Timer.
func TestModelledWaitEndsNearItsDeadline(t *testing.T) {
	if raceEnabled {
		t.Skip("-race stretches wake-ups")
	}
	if runtime.GOOS != "linux" {
		t.Skip("no timerfd: waits fall back to the runtime timer")
	}
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: 100 * time.Microsecond, TimeScale: 1})
	took := make([]time.Duration, 50)
	for i := range took {
		start := time.Now()
		if err := n.MessageDelay(context.Background()); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if median := took[len(took)/2]; median < 100*time.Microsecond || median >= 500*time.Microsecond {
		t.Fatalf("median of 50 waits modelled at 100µs: %v (want 100µs..500µs)", median)
	}
}

// TestWaitCancelledMidFlightReturnsPromptly cancels a wait that is already
// parked, on the precise path, on a chunk train's and on the timer fallback.
func TestWaitCancelledMidFlightReturnsPromptly(t *testing.T) {
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: time.Hour, TimeScale: 1})
	for name, wait := range map[string]func(context.Context) error{
		"netsim":   n.MessageDelay,
		"chunk":    func(ctx context.Context) error { return n.TransferChunk(ctx, time.Now(), 1<<20) },
		"fallback": func(ctx context.Context) error { return timerWait(ctx, time.Hour) },
	} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var cancelledAt atomic.Int64
			time.AfterFunc(20*time.Millisecond, func() {
				cancelledAt.Store(time.Now().UnixNano())
				cancel()
			})
			err := wait(ctx)
			lag := time.Since(time.Unix(0, cancelledAt.Load()))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
			}
			if lag > 5*time.Millisecond {
				t.Fatalf("wait returned %v after its cancellation (want ≤ 5ms)", lag)
			}
		})
	}
}

// TestWaitsLeakNoDescriptors: every wait closes what it opened, whether it
// ran to its deadline or was cancelled mid-flight.
func TestWaitsLeakNoDescriptors(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot list open descriptors: %v", err)
		}
		return len(entries)
	}
	n := New(Config{BandwidthBytesPerSec: 1e9, MaxParallelStreams: 1, LatencyPerMessage: time.Microsecond, TimeScale: 1})
	before := fds()
	for i := 0; i < 1000; i++ {
		if i%10 != 0 {
			if err := n.MessageDelay(context.Background()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
		if err := n.Compute(ctx, time.Hour); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("wait past its context's deadline returned %v", err)
		}
		cancel()
	}
	if after := fds(); after != before {
		t.Fatalf("1000 waits changed the open descriptor count: %d → %d", before, after)
	}
}
