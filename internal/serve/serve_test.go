package serve

import (
	"context"
	"testing"

	"ray/ray"
)

func newDriver(t *testing.T) *ray.Driver {
	t.Helper()
	cfg := ray.DefaultConfig()
	cfg.Nodes = 2
	rt, err := ray.Init(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	if err := Register(rt); err != nil {
		t.Fatal(err)
	}
	d, err := rt.NewDriver(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallModel() ModelConfig {
	return ModelConfig{ObsSize: 32, ActionSize: 4, Hidden: []int{16}, Seed: 1}
}

func TestRayServerPredict(t *testing.T) {
	d := newDriver(t)
	srv, err := NewRayServer(d.TaskContext, smallModel())
	if err != nil {
		t.Fatal(err)
	}
	batch := MakeStateBatch(8, 256)
	actions, err := srv.Predict(d.TaskContext, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 8 || len(actions[0]) != 4 {
		t.Fatalf("action shapes wrong: %d × %d", len(actions), len(actions[0]))
	}
	// Determinism: the same batch yields the same actions.
	again, err := srv.Predict(d.TaskContext, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range actions {
		for j := range actions[i] {
			if actions[i][j] != again[i][j] {
				t.Fatal("predictions not deterministic")
			}
		}
	}
	served, err := srv.Served(d.TaskContext)
	if err != nil || served != 16 {
		t.Fatalf("served = %d, %v", served, err)
	}
}

func TestRESTServerMatchesRayServer(t *testing.T) {
	d := newDriver(t)
	cfg := smallModel()
	raySrv, err := NewRayServer(d.TaskContext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restSrv, err := NewRESTServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restSrv.Close()
	client := NewRESTClient(restSrv.Addr())

	batch := MakeStateBatch(4, 128)
	rayActions, err := raySrv.Predict(d.TaskContext, batch)
	if err != nil {
		t.Fatal(err)
	}
	restActions, err := client.Predict(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(restActions) != len(rayActions) {
		t.Fatal("batch sizes disagree")
	}
	// Both paths serve the same model (same seed) so predictions agree up to
	// JSON float round-tripping.
	for i := range rayActions {
		for j := range rayActions[i] {
			diff := rayActions[i][j] - restActions[i][j]
			if diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("REST and Ray predictions disagree at [%d][%d]: %v vs %v",
					i, j, rayActions[i][j], restActions[i][j])
			}
		}
	}
}

func TestRESTClientErrors(t *testing.T) {
	client := NewRESTClient("127.0.0.1:1") // nothing listening
	if _, err := client.Predict(MakeStateBatch(1, 8)); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestMakeStateBatch(t *testing.T) {
	batch := MakeStateBatch(64, 4096)
	if len(batch) != 64 || len(batch[0]) != 512 {
		t.Fatalf("batch shape wrong: %d × %d", len(batch), len(batch[0]))
	}
	tiny := MakeStateBatch(1, 0)
	if len(tiny[0]) != 1 {
		t.Fatal("state size must clamp to at least one element")
	}
}

func TestStatePaddingAndTruncation(t *testing.T) {
	d := newDriver(t)
	srv, err := NewRayServer(d.TaskContext, smallModel())
	if err != nil {
		t.Fatal(err)
	}
	// States both larger and smaller than the model's input are accepted.
	big := MakeStateBatch(2, 100*1024)
	small := MakeStateBatch(2, 8)
	if _, err := srv.Predict(d.TaskContext, big); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Predict(d.TaskContext, small); err != nil {
		t.Fatal(err)
	}
}
