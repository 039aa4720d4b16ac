package chain

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ray/internal/netsim"
)

func TestBasicPutGet(t *testing.T) {
	c := New(DefaultConfig())
	ctx := context.Background()
	if err := c.Put(ctx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(ctx, "a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, _ := c.Get(ctx, "missing"); ok {
		t.Fatal("missing key reported present")
	}
	if c.Len() != 1 {
		t.Fatalf("len=%d", c.Len())
	}
	if c.Bytes() <= 0 {
		t.Fatal("bytes must be positive")
	}
}

func TestAllReplicasReceiveWrites(t *testing.T) {
	c := New(Config{ReplicationFactor: 3})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := c.Put(ctx, fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range c.Replicas() {
		if r.Store().Len() != 20 {
			t.Fatalf("replica %s has %d keys, want 20", r.ID, r.Store().Len())
		}
	}
}

func TestSurvivesTailFailure(t *testing.T) {
	c := New(Config{ReplicationFactor: 2})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		mustPut(t, c, fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if !c.KillReplica(1) {
		t.Fatal("kill failed")
	}
	// Reads and writes keep working; the chain reconfigures transparently.
	v, ok, err := c.Get(ctx, "k5")
	if err != nil || !ok || v[0] != 5 {
		t.Fatalf("get after tail failure: %v %v %v", v, ok, err)
	}
	mustPut(t, c, "post-failure", []byte("x"))
	if c.Reconfigurations() == 0 {
		t.Fatal("expected at least one reconfiguration")
	}
	// Replication factor restored, and the new replica has the full state.
	reps := c.Replicas()
	if len(reps) != 2 {
		t.Fatalf("expected 2 replicas after repair, got %d", len(reps))
	}
	for _, r := range reps {
		if !r.Alive() {
			t.Fatal("dead replica still in chain")
		}
		if r.Store().Len() != 11 {
			t.Fatalf("replica %s has %d keys, want 11", r.ID, r.Store().Len())
		}
	}
}

func TestSurvivesHeadFailure(t *testing.T) {
	c := New(Config{ReplicationFactor: 3})
	for i := 0; i < 5; i++ {
		mustPut(t, c, fmt.Sprintf("k%d", i), nil)
	}
	c.KillReplica(0)
	mustPut(t, c, "after", []byte("y"))
	v, ok, err := c.Get(context.Background(), "after")
	if err != nil || !ok || string(v) != "y" {
		t.Fatal("write after head failure lost")
	}
	if len(c.Replicas()) != 3 {
		t.Fatal("replication factor not restored")
	}
}

func TestKillOutOfRange(t *testing.T) {
	c := New(DefaultConfig())
	if c.KillReplica(-1) || c.KillReplica(99) {
		t.Fatal("out-of-range kill must return false")
	}
}

func TestAllReplicasDead(t *testing.T) {
	c := New(Config{ReplicationFactor: 2})
	mustPut(t, c, "a", nil)
	c.KillReplica(0)
	c.KillReplica(1)
	if err := c.Put(context.Background(), "b", nil); err == nil {
		t.Fatal("expected error when every replica is dead")
	}
	if _, _, err := c.Get(context.Background(), "a"); err == nil {
		t.Fatal("expected error when every replica is dead")
	}
}

func TestReportFailureProactive(t *testing.T) {
	c := New(Config{ReplicationFactor: 2})
	mustPut(t, c, "a", []byte("1"))
	c.KillReplica(1)
	if err := c.ReportFailure(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(c.Replicas()) != 2 {
		t.Fatal("proactive report must restore the chain")
	}
	v, ok, err := c.Get(context.Background(), "a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatal("state lost during proactive repair")
	}
}

func TestReconfigureLatencyBounded(t *testing.T) {
	// With a scaled network and a 20ms reconfiguration delay the paper's
	// "max client-observed latency under 30ms" property should hold at scale
	// 1.0; we run at 0.1 and check the equivalent bound.
	net := netsim.New(netsim.Config{
		BandwidthBytesPerSec: 3.125e9,
		LatencyPerMessage:    50 * time.Microsecond,
		MaxParallelStreams:   8,
		TimeScale:            0.1,
	})
	c := New(Config{ReplicationFactor: 2, Network: net, ReconfigureDelay: 20 * time.Millisecond, StateTransferBytesPerEntry: 512})
	for i := 0; i < 100; i++ {
		mustPut(t, c, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 512))
	}
	c.KillReplica(1)
	start := time.Now()
	mustPut(t, c, "during-failure", []byte("v"))
	elapsed := time.Since(start)
	if elapsed > 300*time.Millisecond {
		t.Fatalf("reconfiguration latency %v too high", elapsed)
	}
	if c.Reconfigurations() != 1 {
		t.Fatalf("expected exactly 1 reconfiguration, got %d", c.Reconfigurations())
	}
}

func TestMinimumReplicationFactor(t *testing.T) {
	c := New(Config{ReplicationFactor: 0})
	if len(c.Replicas()) != 1 {
		t.Fatal("replication factor must clamp to at least 1")
	}
}

func TestContextCancellation(t *testing.T) {
	c := New(DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Put(ctx, "a", nil); err == nil {
		t.Fatal("cancelled put must fail")
	}
	if _, _, err := c.Get(ctx, "a"); err == nil {
		t.Fatal("cancelled get must fail")
	}
}

// Property: after any sequence of writes and a random single replica failure,
// reads observe the latest committed value for every key (linearizability of
// single-key operations across reconfiguration).
func TestConsistencyAcrossFailureProperty(t *testing.T) {
	f := func(values []uint8, killHead bool) bool {
		c := New(Config{ReplicationFactor: 2})
		ctx := context.Background()
		shadow := make(map[string]byte)
		for i, v := range values {
			key := fmt.Sprintf("k%d", i%16)
			if err := c.Put(ctx, key, []byte{v}); err != nil {
				return false
			}
			shadow[key] = v
			if i == len(values)/2 {
				if killHead {
					c.KillReplica(0)
				} else {
					c.KillReplica(1)
				}
			}
		}
		for k, want := range shadow {
			got, ok, err := c.Get(ctx, k)
			if err != nil || !ok || got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	c := New(Config{ReplicationFactor: 3})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := c.Put(ctx, fmt.Sprintf("g%d-%d", g, i), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 8*200 {
		t.Fatalf("len=%d want %d", c.Len(), 8*200)
	}
}

func mustPut(t *testing.T, c *Chain, key string, value []byte) {
	t.Helper()
	if err := c.Put(context.Background(), key, value); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func TestPutBatchCommitsAllKeys(t *testing.T) {
	c := New(DefaultConfig())
	ctx := context.Background()
	keys := []string{"a", "b", "a"}
	values := [][]byte{[]byte("1"), []byte("2"), []byte("3")}
	if err := c.PutBatch(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	// Later duplicate key wins, exactly as with sequential Puts.
	if v, ok, _ := c.Get(ctx, "a"); !ok || string(v) != "3" {
		t.Fatalf("a=%q ok=%v", v, ok)
	}
	if v, ok, _ := c.Get(ctx, "b"); !ok || string(v) != "2" {
		t.Fatalf("b=%q ok=%v", v, ok)
	}
	// Every replica holds the batch.
	for _, r := range c.Replicas() {
		if r.Store().Len() != 2 {
			t.Fatalf("replica %s has %d keys, want 2", r.ID, r.Store().Len())
		}
	}
	// Empty batches are no-ops; mismatched lengths are errors.
	if err := c.PutBatch(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBatch(ctx, []string{"x"}, nil); err == nil {
		t.Fatal("mismatched batch must error")
	}
}

func TestPutBatchSurvivesReplicaFailure(t *testing.T) {
	c := New(Config{ReplicationFactor: 3, StateTransferBytesPerEntry: 64})
	ctx := context.Background()
	if err := c.Put(ctx, "seed", []byte("s")); err != nil {
		t.Fatal(err)
	}
	c.KillReplica(1)
	keys := make([]string, 16)
	values := make([][]byte, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		values[i] = []byte{byte(i)}
	}
	if err := c.PutBatch(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	if c.Reconfigurations() == 0 {
		t.Fatal("batch through a dead replica must trigger reconfiguration")
	}
	for _, k := range keys {
		if _, ok, _ := c.Get(ctx, k); !ok {
			t.Fatalf("key %s lost across reconfiguration", k)
		}
	}
}

// batch returns n keys, the same on every call, with values tagged by round.
func batch(n int, round byte) ([]string, [][]byte) {
	keys := make([]string, n)
	values := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		values[i] = []byte{round, byte(i)}
	}
	return keys, values
}

// Every replica, one joined by state transfer included, holds the very
// slices a batch handed over: a committed value exists once.
func TestPutBatchReplicasAdoptValues(t *testing.T) {
	c := New(Config{ReplicationFactor: 3})
	ctx := context.Background()
	keys, values := batch(256, 0)
	if err := c.PutBatch(ctx, keys, values); err != nil {
		t.Fatal(err)
	}
	c.KillReplica(1)
	if err := c.ReportFailure(ctx); err != nil {
		t.Fatal(err)
	}
	if reps := c.Replicas(); len(reps) != 3 || c.Reconfigurations() != 1 {
		t.Fatalf("%d replicas after %d reconfigurations, want 3 after 1", len(reps), c.Reconfigurations())
	}
	for _, r := range c.Replicas() {
		for i, k := range keys {
			if v, ok := r.Store().Get(k); !ok || &v[0] != &values[i][0] || len(v) != len(values[i]) {
				t.Fatalf("replica %s does not hold the slice %s was handed", r.ID, k)
			}
		}
	}
}

// A 256-entry batch through an RF=2 chain allocates nothing per entry or per
// replica: the replicas adopt the values instead of copying them.
func TestPutBatchAllocatesNothingPerEntry(t *testing.T) {
	c := New(Config{ReplicationFactor: 2})
	ctx := context.Background()
	keys, values := batch(256, 0)
	if n := testing.AllocsPerRun(20, func() {
		if err := c.PutBatch(ctx, keys, values); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("a 256-entry RF=2 PutBatch allocates %v times, want at most 2", n)
	}
}

// A reader polling the tail while batches land never sees a batch's first key
// without its last: each replica applies a batch under one lock.
func TestPutBatchVisibleAllAtOnce(t *testing.T) {
	c := New(Config{ReplicationFactor: 2})
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= 200; round++ {
			keys, values := batch(256, byte(round))
			if err := c.PutBatch(ctx, keys, values); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for landing := true; landing; {
		select {
		case <-done:
			landing = false
		default:
		}
		first, okFirst, err := c.Get(ctx, "k000")
		if err != nil {
			t.Fatal(err)
		}
		last, okLast, err := c.Get(ctx, "k255")
		if err != nil {
			t.Fatal(err)
		}
		if okFirst && (!okLast || last[0] < first[0]) {
			t.Fatalf("the tail shows round %d of the first key before that round's last key", first[0])
		}
	}
}

// A WriteBatch delete removes the key from every replica, and a replica that
// joins afterwards does not get it back through state transfer.
func TestWriteBatchDeletesOnEveryReplica(t *testing.T) {
	ctx := context.Background()
	c := New(Config{ReplicationFactor: 3})
	mustPut(t, c, "a", []byte("1"))
	mustPut(t, c, "b", []byte("2"))
	if err := c.WriteBatch(ctx, []string{"a", "b"}, [][]byte{nil, []byte("3")}, []bool{true, false}); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Replicas() {
		if _, ok := r.Store().Get("a"); ok {
			t.Fatalf("replica %s kept the deleted key", r.ID)
		}
		if v, ok := r.Store().Get("b"); !ok || string(v) != "3" {
			t.Fatalf("replica %s: b = %q ok=%v", r.ID, v, ok)
		}
	}
	c.KillReplica(0)
	if err := c.WriteBatch(ctx, []string{"b"}, [][]byte{nil}, []bool{true}); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Replicas() {
		if r.Store().Len() != 0 {
			t.Fatalf("replica %s holds %d keys after every key was deleted", r.ID, r.Store().Len())
		}
	}
	if err := c.WriteBatch(ctx, []string{"a"}, [][]byte{nil}, []bool{true, false}); err == nil {
		t.Fatal("a delete list longer than the batch must be refused")
	}
}
