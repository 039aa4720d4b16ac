package core

import (
	"context"
	"testing"
	"time"

	"ray/internal/codec"
	"ray/internal/types"
)

// TestRoundTripsWaitOnNoTimer: nothing between a task's result being written
// and its driver's Get returning may wait for a timer. The GCS flush interval
// is an hour, so a waiter that depended on the commit would be rescued only by
// its 10 ms safety re-poll: 200 sequential round trips would take over 2 s, as
// they did when pub-sub fired at commit time. Every wake-up must come from a
// signal (no re-poll rescue), and a Free that follows a Get that fast must
// still find the location it has to withdraw (every store ends empty).
func TestRoundTripsWaitOnNoTimer(t *testing.T) {
	const rounds = 200
	call := func(d *Driver, opts CallOptions, x int) types.ObjectID {
		t.Helper()
		id, err := d.Call1("add1", opts, x)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	get := func(d *Driver, id types.ObjectID, want int) {
		t.Helper()
		if got, err := Get[int](d.TaskContext, id); err != nil || got != want {
			t.Fatalf("Get = %d, %v; want %d", got, err, want)
		}
	}
	for name, round := range map[string]func(d *Driver, i int){
		"local": func(d *Driver, i int) {
			id := call(d, CallOptions{}, i)
			get(d, id, i+1)
			d.Free(id)
		},
		"forwarded": func(d *Driver, i int) {
			id := call(d, CallOptions{Resources: OnNode(1)}, i)
			get(d, id, i+1)
			d.Free(id)
		},
		"wait": func(d *Driver, i int) {
			ids := []types.ObjectID{
				call(d, CallOptions{Resources: OnNode(1)}, i),
				call(d, CallOptions{Resources: OnNode(2)}, -i),
			}
			ready, _, err := d.Wait(ids, len(ids), 0)
			if err != nil || len(ready) != len(ids) {
				t.Fatalf("Wait = %v, %v", ready, err)
			}
			get(d, ids[0], i+1)
			get(d, ids[1], -i+1)
			d.Free(ids...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.LabelNodes = true
			cfg.GCSBatchFlushInterval = time.Hour
			rt, err := Init(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Shutdown()
			err = rt.Register("add1", "returns its argument plus one", func(_ *TaskContext, args [][]byte) ([][]byte, error) {
				var x int
				if err := codec.Decode(args[0], &x); err != nil {
					return nil, err
				}
				return [][]byte{codec.MustEncode(x + 1)}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			d, err := rt.NewDriver(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			round(d, 0) // first use pays one-time set-up
			start := time.Now()
			for i := 1; i <= rounds; i++ {
				round(d, i)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("%d round trips took %v: a waiter is sleeping on a timer", rounds, elapsed)
			}
			for i, n := range rt.Cluster().NodeList() {
				if used := n.Store().Used(); used != 0 {
					t.Errorf("node %d: %d bytes left in the store after every object was freed", i, used)
				}
				if st := n.Stats(); st.Transfers.RepollRescues != 0 || st.Lineage.RepollRescues != 0 {
					t.Errorf("node %d: re-poll rescues %d (pull) %d (lineage); every wake-up must be a signal",
						i, st.Transfers.RepollRescues, st.Lineage.RepollRescues)
				}
			}
		})
	}
}
