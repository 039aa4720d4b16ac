// Package serve reproduces the paper's embedded model-serving comparison
// (Section 5.2.2, Table 3): serving policy evaluations from a Ray actor that
// clients reach through the shared object store, versus a Clipper-style
// dedicated serving system reached over REST (HTTP + JSON on loopback).
//
// The Ray path pays one actor method call and zero-copy object-store reads;
// the REST path pays HTTP framing and JSON serialization per request, which
// is exactly the gap the paper measures (an order of magnitude for large
// inputs).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ray/internal/rl"
	"ray/internal/telemetry"
	"ray/internal/worker"
	"ray/ray"
)

// policyServerName is the registered actor class for policy servers.
const policyServerName = "serve.PolicyServer"

// The policy-server class handle and its declared methods. Declaring each
// method once installs the callee-side dispatch entry in the class's method
// table and mints the caller-side handle whose types NewRayServer binds
// below — there is no Call switch anywhere. Register runs the declarations
// against every runtime it is given; the minted handle values are identical
// each time (class and method names only), so the package globals are
// assigned exactly once, making concurrent Register calls race-free.
var (
	handlesOnce       sync.Once
	policyServerClass ray.Class1[policyServer, ModelConfig]
	predictMethod     ray.ClassMethod1[policyServer, predictBatch, [][]float64]
	servedMethod      ray.ClassMethod0[policyServer, int]
)

// The serving metrics registry of the most recently Registered runtime.
// NewRayServer snapshots it into the server it builds; a nil registry (no
// telemetry, or NewRayServer before Register) degrades to detached metrics.
var (
	metricsMu     sync.Mutex
	serveRegistry *telemetry.Registry //guard:by metricsMu
)

// predictBatch is the wire form of one predict request: the states plus the
// caller's submit timestamp, which lets the server separate time spent
// queued behind other requests (the actor serializes evaluations) from time
// spent in the handler itself — the split ROADMAP item 2's queue-depth
// autoscaler keys on.
type predictBatch struct {
	SubmitUnixNano int64
	States         [][]float64
}

// Register publishes the policy-server actor class and its method table with
// the runtime. Call once per runtime before NewRayServer.
func Register(rt *ray.Runtime) error {
	reg := rt.Cluster().Metrics()
	metricsMu.Lock()
	serveRegistry = reg
	metricsMu.Unlock()
	class, err := ray.RegisterActorClass1(rt, policyServerName, "embedded policy serving actor",
		func(ctx *ray.Context, cfg ModelConfig) (*policyServer, error) {
			return &policyServer{
				policy:  rl.NewMLPPolicy(cfg.ObsSize, cfg.ActionSize, cfg.Hidden, cfg.Seed),
				obsSize: cfg.ObsSize,
				delay:   cfg.EvalDelay,
				queueWait: reg.Histogram("ray_serve_queue_wait_seconds",
					"Time a predict request waited between client submit and handler start.", telemetry.DefLatencyBuckets),
				handler: reg.Histogram("ray_serve_handler_seconds",
					"Time the policy handler spent evaluating a predict batch.", telemetry.DefLatencyBuckets),
			}, nil
		})
	if err != nil {
		return err
	}
	predict, err := ray.ActorMethod1(class, "predict",
		func(ctx *ray.Context, p *policyServer, req predictBatch) ([][]float64, error) {
			start := time.Now()
			if req.SubmitUnixNano > 0 {
				p.queueWait.Observe(start.Sub(time.Unix(0, req.SubmitUnixNano)).Seconds())
			}
			actions := p.evaluate(req.States)
			p.handler.Observe(time.Since(start).Seconds())
			return actions, nil
		})
	if err != nil {
		return err
	}
	served, err := ray.ActorMethod0(class, "served",
		func(ctx *ray.Context, p *policyServer) (int, error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.served, nil
		})
	if err != nil {
		return err
	}
	handlesOnce.Do(func() {
		policyServerClass, predictMethod, servedMethod = class, predict, served
	})
	return nil
}

// ModelConfig describes the served policy.
type ModelConfig struct {
	// ObsSize and ActionSize are the policy's input/output sizes.
	ObsSize    int
	ActionSize int
	// Hidden are the MLP hidden-layer widths.
	Hidden []int
	// EvalDelay pads each batch evaluation to model a heavier network than
	// the pure-Go MLP (the paper's models take 5ms and 10ms per batch).
	EvalDelay time.Duration
	// Seed controls policy initialization.
	Seed int64
}

// policyServer is the Ray actor that evaluates the policy.
type policyServer struct {
	mu      sync.Mutex
	policy  *rl.MLPPolicy //guard:by mu
	obsSize int           //guard:init
	delay   time.Duration //guard:by mu
	served  int           //guard:by mu

	// Request latency split, recorded by the predict method: queue wait
	// (client submit → handler start) vs handler time (evaluate only).
	queueWait *telemetry.Histogram //guard:init
	handler   *telemetry.Histogram //guard:init
}

// fit pads or truncates a state to the policy's input size, so clients can
// send raw feature payloads of any length (the Table 3 workloads send 4KB and
// 100KB states regardless of the model's input width).
func (p *policyServer) fit(obs []float64) []float64 {
	if len(obs) == p.obsSize {
		return obs
	}
	out := make([]float64, p.obsSize)
	copy(out, obs)
	return out
}

func (p *policyServer) evaluate(batch [][]float64) [][]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.delay > 0 {
		//lint:ignore mutexhold the sleep models a single model replica; REST requests must serialize like the actor for a fair comparison
		time.Sleep(p.delay)
	}
	actions := make([][]float64, len(batch))
	for i, obs := range batch {
		actions[i] = p.policy.Act(p.fit(obs))
	}
	p.served += len(batch)
	return actions
}

// RayServer serves a policy from an actor reachable through the object store.
type RayServer struct {
	actor    *ray.ActorOf[policyServer]
	predict  ray.MethodHandle1[predictBatch, [][]float64]
	served   ray.MethodHandle0[int]
	requests *telemetry.Histogram //guard:init — end-to-end request latency
}

// NewRayServer creates the serving actor (Register must have run on the
// actor's runtime first).
func NewRayServer(ctx *worker.TaskContext, cfg ModelConfig) (*RayServer, error) {
	actor, err := policyServerClass.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	metricsMu.Lock()
	reg := serveRegistry
	metricsMu.Unlock()
	return &RayServer{
		actor:   actor,
		predict: predictMethod.Bind(actor),
		served:  servedMethod.Bind(actor),
		requests: reg.Histogram("ray_serve_request_seconds",
			"End-to-end predict latency: submit through result read.", telemetry.DefLatencyBuckets),
	}, nil
}

// Predict evaluates a batch of states and returns the actions.
func (s *RayServer) Predict(ctx *worker.TaskContext, states [][]float64) ([][]float64, error) {
	start := time.Now()
	ref, err := s.predict.Remote(ctx, predictBatch{SubmitUnixNano: start.UnixNano(), States: states})
	if err != nil {
		return nil, err
	}
	out, err := ray.Get(ctx, ref)
	if err == nil {
		s.requests.Observe(time.Since(start).Seconds())
	}
	return out, err
}

// Served returns the number of states the actor has evaluated.
func (s *RayServer) Served(ctx *worker.TaskContext) (int, error) {
	ref, err := s.served.Remote(ctx)
	if err != nil {
		return 0, err
	}
	return ray.Get(ctx, ref)
}

// --- Clipper-like REST baseline -----------------------------------------------------

// predictRequest is the REST request body.
type predictRequest struct {
	States [][]float64 `json:"states"`
}

// predictResponse is the REST response body.
type predictResponse struct {
	Actions [][]float64 `json:"actions"`
}

// RESTServer is the Clipper-style baseline: the same policy behind an HTTP
// endpoint with JSON bodies.
type RESTServer struct {
	policy   *policyServer
	listener net.Listener
	server   *http.Server
}

// NewRESTServer starts the baseline server on a loopback port.
func NewRESTServer(cfg ModelConfig) (*RESTServer, error) {
	listener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	rs := &RESTServer{
		policy: &policyServer{
			policy:  rl.NewMLPPolicy(cfg.ObsSize, cfg.ActionSize, cfg.Hidden, cfg.Seed),
			obsSize: cfg.ObsSize,
			delay:   cfg.EvalDelay,
		},
		listener: listener,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", rs.handlePredict)
	rs.server = &http.Server{Handler: mux}
	go func() { _ = rs.server.Serve(listener) }()
	return rs, nil
}

func (rs *RESTServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	actions := rs.policy.evaluate(req.States)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(predictResponse{Actions: actions})
}

// Addr returns the server's address.
func (rs *RESTServer) Addr() string { return rs.listener.Addr().String() }

// Close shuts the server down.
func (rs *RESTServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return rs.server.Shutdown(ctx)
}

// RESTClient queries a RESTServer.
type RESTClient struct {
	url    string
	client *http.Client
}

// NewRESTClient builds a client for the given server address.
func NewRESTClient(addr string) *RESTClient {
	return &RESTClient{
		url:    "http://" + addr + "/predict",
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// Predict sends one batch over REST and returns the actions.
func (c *RESTClient) Predict(states [][]float64) ([][]float64, error) {
	body, err := json.Marshal(predictRequest{States: states})
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: REST status %s", resp.Status)
	}
	var out predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Actions, nil
}

// MakeStateBatch builds a batch of identical-size states whose per-state
// payload is approximately stateBytes (8 bytes per float64 element), the
// knob Table 3 varies between 4KB and 100KB.
func MakeStateBatch(batch int, stateBytes int) [][]float64 {
	elems := stateBytes / 8
	if elems < 1 {
		elems = 1
	}
	out := make([][]float64, batch)
	for i := range out {
		s := make([]float64, elems)
		for j := range s {
			s[j] = float64(i+j) * 0.001
		}
		out[i] = s
	}
	return out
}
