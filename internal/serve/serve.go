// Package serve is the online serving layer over the error-propagation
// stack: a concurrent, batched HTTP/JSON inference service that treats
// the paper's QoI tolerance as a per-request contract.
//
// Architecture (all stdlib):
//
//	handler -> bounded admission queue -> work-conserving batcher -> worker pool
//	            (whole requests; 503 +     (dispatch the moment a     (one compiled
//	             Retry-After when full)     worker is free)            Engine each)
//
// Each registered model owns one admission queue, one batcher goroutine
// and Config.Workers worker goroutines. A worker holds a private
// compiled inference engine (nn.CompileInference) rather than a full
// nn.Network clone: engines share the served network's weights as
// read-only views — no per-worker weight duplication, no backward-cache
// baggage — while each engine's private buffer arena gives the worker
// the mutable per-call state a shared *nn.Network cannot (Forward on a
// network caches per-layer state for Backward). Engine.Forward is
// bit-identical to Network.Forward, so the model's error-flow analysis
// applies to the served path verbatim.
//
// A request is admitted whole or not at all: its samples are counted
// against Config.QueueCap in one step, and it travels the queue as one
// entry. The batcher has no flush timer and never waits for a batch to
// fill: it hands what it holds to the first free worker, and only while
// the server is saturated does it absorb more queued requests into the
// next batch, up to Config.MaxBatch samples; a request larger than that
// is split across consecutive batches. Coalescing therefore happens
// exactly under load, where one (features x batch) forward pass
// amortizes per-call dispatch and weight traffic, and costs an idle
// server no latency (see batchLoop).
//
// Error budgets: a request may carry a QoI tolerance (and optionally the
// input reconstruction error of a lossy-compressed payload). The server
// evaluates the registered model's error-flow analysis (internal/core,
// Inequality (3)) against that tolerance before running inference and
// rejects unsatisfiable requests with 422 — the serving-time counterpart
// of the paper's Fig. 1 planner, which is itself exposed at /v1/plan so
// clients can split a tolerance between input compression and weight
// format up front.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/quant"
)

// Config tunes the service. The zero value is usable; every field has a
// production-shaped default.
type Config struct {
	// MaxBatch is the most samples one forward pass runs (default 32).
	// 1 disables coalescing: every sample runs as its own forward pass.
	MaxBatch int
	// QueueCap bounds the samples queued per model, waiting for a worker
	// (default 1024). A request that does not fit rejects whole with
	// 503 + Retry-After instead of blocking; one larger than QueueCap is
	// refused with 413.
	QueueCap int
	// Workers is the number of compiled inference engines serving each model
	// (default 4).
	Workers int
	// EngineShards splits each engine's forward pass column-wise across
	// this many goroutines (default 1 = unsharded). Outputs are
	// bit-identical for any value (nn.CompileInferenceSharded); raise it
	// when large batches on few models should use more cores than the
	// worker count alone provides.
	EngineShards int
	// RequestTimeout bounds each request's time in queue + execution
	// (default 5s); expiry returns 504.
	RequestTimeout time.Duration
	// RetryAfter is the client backoff hint on 503 responses (default
	// 1s; rounded up to whole seconds, minimum 1).
	RetryAfter time.Duration
	// MaxBodyBytes caps accepted request bodies (default 32 MiB).
	MaxBodyBytes int64
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.EngineShards <= 0 {
		c.EngineShards = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBusy means the admission queue is full (503 + Retry-After).
	ErrBusy = errors.New("serve: admission queue full")
	// ErrDraining means the server is shutting down (503).
	ErrDraining = errors.New("serve: server draining")
	// ErrBudget means the predicted error bound exceeds the request's
	// tolerance (422).
	ErrBudget = errors.New("serve: error budget unsatisfiable")
)

// Server routes inference requests to registered models. Create with
// New, add models with Register, mount Handler, stop with Close.
type Server struct {
	cfg     Config
	metrics *metrics

	mu       sync.RWMutex
	models   map[string]*model
	draining atomic.Bool
	closed   chan struct{}
	once     sync.Once

	// planMu guards the per-weights error-flow graph cache: registering
	// the same serialized network under several names (or formats) builds
	// and analyzes its graph once, keyed by the weights checksum.
	planMu      sync.Mutex
	planGraphs  map[string]*core.Node
	graphBuilds atomic.Int64 // graph constructions, for the dedupe regression test

	// gate, when set (tests only, before Register), is called by a worker
	// with each batch's sample count before running it, and may block to
	// hold the worker busy.
	gate func(samples int)
}

// New builds a server (no listening socket; mount Server.Handler).
func New(cfg Config) *Server {
	cfg.fillDefaults()
	return &Server{
		cfg:        cfg,
		metrics:    newMetrics(),
		models:     make(map[string]*model),
		closed:     make(chan struct{}),
		planGraphs: make(map[string]*core.Node),
	}
}

// Config reports the effective (defaults-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// model is one registered network with its serving machinery.
type model struct {
	name     string
	orig     *nn.Network // as registered, full precision (nil when cold-started from an artifact)
	format   numfmt.Format
	analysis *core.Analysis // error-flow analysis at the serving format
	// planRoot and stepsFor are the planner's inputs: the error-flow
	// graph of the original network plus the format -> step-size
	// derivation. Spec-registered models derive steps from live weights
	// (core.StepsForFormat); artifact models use the build-time tables
	// shipped inside the artifact.
	planRoot *core.Node
	stepsFor func(numfmt.Format) (core.StepFunc, error)
	inDim    int
	outDim   int
	checksum string // CRC32C identity: serialized network (spec path) or artifact body (artifact path)

	queue chan *request // admission queue, one entry per request
	work  chan batch    // batcher -> workers (unbuffered: backpressure)
	depth atomic.Int64  // samples admitted but not yet taken by a worker

	enqMu  sync.RWMutex // guards queue close vs. concurrent sends
	closed bool

	wg sync.WaitGroup // batcher + workers

	requests atomic.Int64
	samples  atomic.Int64
	admitted atomic.Int64 // samples accepted into queue (counted at admission, not completion)

	srv *Server
}

// request is one admitted predict call travelling through the batcher.
// Its samples may be split across batches run by different workers;
// each writes only its own out slots, and whichever finishes the last
// sample closes done. expired records that some segment was skipped
// because the request's context ended first.
type request struct {
	ctx     context.Context
	x       [][]float64
	out     [][]float64
	left    atomic.Int64 // samples not yet finished
	expired atomic.Bool
	done    chan struct{}
}

func newRequest(ctx context.Context, samples [][]float64) *request {
	r := &request{ctx: ctx, x: samples, out: make([][]float64, len(samples)), done: make(chan struct{})}
	r.left.Store(int64(len(samples)))
	return r
}

// finish marks n of the request's samples done.
func (r *request) finish(n int) {
	if r.left.Add(-int64(n)) == 0 {
		close(r.done)
	}
}

// Register adds a named model served at weight format f. The network is
// quantized once at registration (f != FP32), analyzed for its error
// bounds, and compiled into Config.Workers inference engines sharing the
// serving network's weights (nn.CompileInference — no per-worker weight
// copies); net itself is kept full-precision for /v1/plan. The output
// dimension comes from the engine's static shape inference, not a data
// probe. The network must carry its Spec.
func (s *Server) Register(name string, net *nn.Network, f numfmt.Format) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if s.draining.Load() {
		return ErrDraining
	}
	serving := net
	if f != numfmt.FP32 {
		q, err := quant.Quantize(net, f)
		if err != nil {
			return fmt.Errorf("serve: quantizing %q: %w", name, err)
		}
		serving = q
	}
	// Checksum the model's serialized form so /v1/models can report which
	// exact weights are being served — operators diffing a fleet against
	// a known-good model file compare this string.
	var serialized bytes.Buffer
	if err := net.Save(&serialized); err != nil {
		return fmt.Errorf("serve: serializing %q for checksum: %w", name, err)
	}
	sum := integrity.ChecksumString(integrity.Checksum(serialized.Bytes()))
	root, err := s.graphFor(sum, net)
	if err != nil {
		return fmt.Errorf("serve: analyzing %q: %w", name, err)
	}
	stepsFor := func(f numfmt.Format) (core.StepFunc, error) { return core.StepsForFormat(f), nil }
	an := core.Analyze(root, core.StepsForFormat(f))
	engines := make([]*nn.Engine, s.cfg.Workers)
	for i := range engines {
		eng, err := nn.CompileInferenceSharded(serving, s.cfg.MaxBatch, s.cfg.EngineShards)
		if err != nil {
			return fmt.Errorf("serve: compiling inference engine for %q: %w", name, err)
		}
		engines[i] = eng
	}
	m := &model{
		name:     name,
		orig:     net,
		format:   f,
		analysis: an,
		planRoot: root,
		stepsFor: stepsFor,
		inDim:    net.InputDim,
		outDim:   engines[0].OutputDim(),
		checksum: sum,
		queue:    make(chan *request, s.cfg.QueueCap),
		work:     make(chan batch),
		srv:      s,
	}

	return s.install(m, engines)
}

// RegisterArtifact adds a model cold-started from an ahead-of-time
// compiled artifact (internal/artifact). Nothing is recompiled or
// re-derived: the shipped program is bound to the shipped (already
// quantized) weights, the planner runs against the shipped error-flow
// graph and build-time step tables, and the model's reported checksum is
// the artifact body's — the identity a gateway registry pins. The
// artifact must come from artifact.Decode/ReadFile, which has already
// verified its frame, canonical form, program, and certified bound.
func (s *Server) RegisterArtifact(name string, art *artifact.Artifact) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if art == nil {
		return fmt.Errorf("serve: nil artifact for %q", name)
	}
	if s.draining.Load() {
		return ErrDraining
	}
	steps, err := art.StepsFor(art.Format)
	if err != nil {
		return fmt.Errorf("serve: artifact %q: %w", name, err)
	}
	engines := make([]*nn.Engine, s.cfg.Workers)
	for i := range engines {
		eng, err := art.Program.Bind(art.Net, s.cfg.MaxBatch, s.cfg.EngineShards)
		if err != nil {
			return fmt.Errorf("serve: binding artifact engine for %q: %w", name, err)
		}
		engines[i] = eng
	}
	m := &model{
		name:     name,
		format:   art.Format,
		analysis: core.Analyze(art.Root, steps),
		planRoot: art.Root,
		stepsFor: art.StepsFor,
		inDim:    art.Net.InputDim,
		outDim:   engines[0].OutputDim(),
		checksum: art.Checksum,
		queue:    make(chan *request, s.cfg.QueueCap),
		work:     make(chan batch),
		srv:      s,
	}
	return s.install(m, engines)
}

// graphFor returns the error-flow graph for a network, cached by its
// serialized-weights checksum: the same weights registered under many
// names (or formats) translate once.
func (s *Server) graphFor(sum string, net *nn.Network) (*core.Node, error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if root, ok := s.planGraphs[sum]; ok {
		return root, nil
	}
	root, err := core.FromNetwork(net)
	if err != nil {
		return nil, err
	}
	s.planGraphs[sum] = root
	s.graphBuilds.Add(1)
	return root, nil
}

// install publishes a fully-built model and starts its goroutines.
func (s *Server) install(m *model, engines []*nn.Engine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: Close snapshots s.models while holding it,
	// so a model added here is either drained by Close or rejected.
	if s.draining.Load() {
		return ErrDraining
	}
	if _, dup := s.models[m.name]; dup {
		return fmt.Errorf("serve: model %q already registered", m.name)
	}
	s.models[m.name] = m

	m.wg.Add(1 + len(engines))
	go m.batchLoop(s.cfg.MaxBatch)
	for _, eng := range engines {
		go m.workLoop(eng)
	}
	return nil
}

// Models lists registered model names in sorted order, so the /v1/models
// response is byte-identical across calls and processes.
func (s *Server) Models() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.models))
	for name := range s.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Server) model(name string) (*model, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	return m, ok
}

// Draining reports whether Close has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth reports the samples queued across models, admitted but not
// yet taken by a worker — the backlog a request admitted right now
// would sit behind.
func (s *Server) QueueDepth() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	depth := 0
	for _, m := range s.models {
		depth += int(m.depth.Load()) //lint:ignore maporder integer addition commutes; the sum is order-independent
	}
	return depth
}

// Close drains the server: new requests are rejected with 503, every
// already-admitted request is executed to completion, and all batcher
// and worker goroutines exit before Close returns. Safe to call more
// than once.
func (s *Server) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		models := make([]*model, 0, len(s.models))
		for _, m := range s.models {
			models = append(models, m) //lint:ignore maporder shutdown order is observationally irrelevant: every queue is closed before any wait
		}
		s.mu.Unlock()
		for _, m := range models {
			m.enqMu.Lock()
			m.closed = true
			close(m.queue)
			m.enqMu.Unlock()
		}
		for _, m := range models {
			m.wg.Wait()
		}
		close(s.closed)
	})
	<-s.closed
}

// enqueue admits a whole request without blocking, or none of it: its
// samples are reserved against QueueCap in one step. The channel send
// cannot block, because every entry in the channel carries at least one
// reserved sample and the channel holds QueueCap entries.
func (m *model) enqueue(r *request) error {
	n := int64(len(r.x))
	m.enqMu.RLock()
	defer m.enqMu.RUnlock()
	if m.closed {
		return ErrDraining
	}
	for {
		d := m.depth.Load()
		if d+n > int64(m.srv.cfg.QueueCap) {
			return ErrBusy
		}
		if m.depth.CompareAndSwap(d, d+n) {
			break
		}
	}
	m.queue <- r
	// Counted at admission (requests/samples count at completion), so
	// observers — drain tests, operators watching a wedged model — can
	// distinguish "accepted but stuck" from "never arrived".
	m.admitted.Add(n)
	return nil
}

// predict admits samples (at least one; the handler rejects empty
// requests) as one request and waits for every result (or ctx expiry).
// A rejected request admits nothing.
func (m *model) predict(ctx context.Context, samples [][]float64) ([][]float64, error) {
	r := newRequest(ctx, samples)
	if err := m.enqueue(r); err != nil {
		return nil, err
	}
	select {
	case <-r.done:
		if r.expired.Load() {
			return nil, ctx.Err()
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m.requests.Add(1)
	m.samples.Add(int64(len(samples)))
	return r.out, nil
}

// checkBudget evaluates the model's predicted QoI bound (quantization
// plus declared input error) against a request tolerance. tol <= 0 means
// "no contract": the bound is still reported, never enforced.
func (m *model) checkBudget(tol float64, norm core.Norm, inputErr float64) (quantBound, totalBound float64, err error) {
	quantBound = m.analysis.QuantizationBound()
	if norm == core.NormLinf {
		totalBound = m.analysis.BoundLinf(inputErr)
	} else {
		totalBound = m.analysis.Bound(inputErr)
	}
	if tol > 0 && totalBound > tol {
		return quantBound, totalBound, ErrBudget
	}
	return quantBound, totalBound, nil
}
