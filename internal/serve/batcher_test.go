package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/tensor"
)

// workerGate holds every batch a worker takes until the test releases
// it, so a test can keep the pool busy for exactly as long as it likes
// and observe each batch's size — no sleeps, no wall clock.
type workerGate struct {
	taken   chan int      // sample count of each batch, as a worker takes it
	release chan struct{} // one send lets one held worker run its batch
	open    chan struct{} // closed at cleanup: stop holding anything
}

func (g *workerGate) hold(samples int) {
	select {
	case g.taken <- samples:
	case <-g.open:
		return
	}
	select {
	case <-g.release:
	case <-g.open:
	}
}

// next waits for a worker to take a batch and returns its size.
func (g *workerGate) next() int { return <-g.taken }

// runNext releases the held worker, then waits for the next batch.
func (g *workerGate) runNext() int {
	g.release <- struct{}{}
	return g.next()
}

// newGatedServer serves h2Net as "h2" with every worker behind a gate.
func newGatedServer(t *testing.T, cfg Config) (*Server, *model, *workerGate, *httptest.Server) {
	t.Helper()
	g := &workerGate{taken: make(chan int), release: make(chan struct{}), open: make(chan struct{})}
	s := New(cfg)
	s.gate = g.hold
	if err := s.Register("h2", h2Net(t), numfmt.FP32); err != nil {
		t.Fatal(err)
	}
	m, _ := s.model("h2")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		close(g.open)
		ts.Close()
		s.Close()
	})
	return s, m, g, ts
}

// seededRows returns n distinct 9-feature samples.
func seededRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, 9)
		for f := range rows[i] {
			rows[i][f] = rng.NormFloat64()
		}
	}
	return rows
}

// mustEnqueue admits samples as one request; enqueue is synchronous, so
// on return the request is counted in the queue depth.
func mustEnqueue(t *testing.T, m *model, samples [][]float64) *request {
	t.Helper()
	r := newRequest(context.Background(), samples)
	if err := m.enqueue(r); err != nil {
		t.Fatalf("enqueue %d samples: %v", len(samples), err)
	}
	return r
}

// assertAnswered waits for r and checks every output is bit-identical to
// a batch-of-one forward pass of the same sample on a fresh engine.
func assertAnswered(t *testing.T, r *request) {
	t.Helper()
	<-r.done
	if r.expired.Load() {
		t.Fatal("request expired")
	}
	eng, err := nn.CompileInference(h2Net(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range r.x {
		want := eng.Forward(tensor.NewMatrixFrom(len(x), 1, append([]float64(nil), x...))).Data
		if !reflect.DeepEqual(r.out[i], want) {
			t.Fatalf("sample %d: served %v, batch-of-one forward %v", i, r.out[i], want)
		}
	}
}

func waitAdmitted(m *model, samples int64) {
	for m.admitted.Load() < samples {
		runtime.Gosched()
	}
}

// waitAbsorbed returns once the batcher has pulled all but entries
// requests off the admission queue — with every worker held, that means
// it holds a full batch.
func waitAbsorbed(m *model, entries int) {
	for len(m.queue) > entries {
		runtime.Gosched()
	}
}

// TestBatcherDispatchesLoneRequestAtOnce: with no deadline to wait out,
// a lone request reaches a free worker as a batch of one, though the
// batch has room for 31 more — and a second lone request arriving while
// that worker is held goes straight to the other free worker rather
// than waiting to coalesce.
func TestBatcherDispatchesLoneRequestAtOnce(t *testing.T) {
	_, m, g, _ := newGatedServer(t, Config{Workers: 2, MaxBatch: 32})
	rows := seededRows(2, 1)
	a := mustEnqueue(t, m, rows[:1])
	if n := g.next(); n != 1 {
		t.Fatalf("lone request dispatched as a batch of %d, want 1", n)
	}
	b := mustEnqueue(t, m, rows[1:])
	if n := g.next(); n != 1 {
		t.Fatalf("second lone request dispatched as a batch of %d, want 1", n)
	}
	g.release <- struct{}{}
	g.release <- struct{}{}
	assertAnswered(t, a)
	assertAnswered(t, b)
}

// TestBatcherCoalescesBehindBusyWorkers: one-sample requests queued
// while the only worker is held coalesce into full MaxBatch batches,
// and the remainder runs as one partial batch.
func TestBatcherCoalescesBehindBusyWorkers(t *testing.T) {
	s, m, g, _ := newGatedServer(t, Config{Workers: 1, MaxBatch: 4})
	rows := seededRows(11, 2)
	reqs := []*request{mustEnqueue(t, m, rows[:1])}
	if n := g.next(); n != 1 {
		t.Fatalf("first batch %d samples, want 1", n)
	}
	for i := 1; i < len(rows); i++ {
		reqs = append(reqs, mustEnqueue(t, m, rows[i:i+1]))
	}
	if d := s.QueueDepth(); d != 10 {
		t.Fatalf("queue depth %d behind the held worker, want 10", d)
	}
	waitAbsorbed(m, 6)
	var sizes []int
	for range 3 {
		sizes = append(sizes, g.runNext())
	}
	g.release <- struct{}{}
	if want := []int{4, 4, 2}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for _, r := range reqs {
		assertAnswered(t, r)
	}
	if snap := s.Metrics(); snap.Batches != 4 || snap.Samples != 11 {
		t.Fatalf("metrics batches=%d samples=%d, want 4 and 11", snap.Batches, snap.Samples)
	}
}

// TestBatcherSplitsOversizeRequest: a request larger than MaxBatch runs
// across consecutive batches and is answered bit-identically.
func TestBatcherSplitsOversizeRequest(t *testing.T) {
	s, m, g, _ := newGatedServer(t, Config{Workers: 1, MaxBatch: 4})
	r := mustEnqueue(t, m, seededRows(10, 3))
	sizes := []int{g.next()}
	if d := s.QueueDepth(); d != 6 {
		t.Fatalf("queue depth %d after the first 4 samples were taken, want 6", d)
	}
	sizes = append(sizes, g.runNext(), g.runNext())
	g.release <- struct{}{}
	if want := []int{4, 4, 2}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	assertAnswered(t, r)
}

// TestRejectedRequestAdmitsNothing: a request that does not fit the
// remaining queue capacity is refused whole with 503 — none of its
// samples are admitted or queued — while a request that fits exactly is
// still admitted.
func TestRejectedRequestAdmitsNothing(t *testing.T) {
	s, m, g, ts := newGatedServer(t, Config{Workers: 1, MaxBatch: 4, QueueCap: 8})
	rows := seededRows(9, 4)
	a := mustEnqueue(t, m, rows[:1])
	g.next()
	b := mustEnqueue(t, m, rows[1:7])

	before := s.Metrics().Models["h2"]
	if before.Admitted != 7 || before.QueueDepth != 6 {
		t.Fatalf("admitted=%d queue_depth=%d, want 7 and 6", before.Admitted, before.QueueDepth)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/predict", PredictRequest{Model: "h2", Inputs: seededRows(3, 5)})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("3 samples into 2 free slots: status %d Retry-After %q (%s), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	after := s.Metrics()
	if got := after.Models["h2"]; got.Admitted != before.Admitted || got.QueueDepth != before.QueueDepth || after.QueueDepth != 6 {
		t.Fatalf("rejected request changed admission: admitted %d -> %d, queue_depth %d -> %d (total %d)",
			before.Admitted, got.Admitted, before.QueueDepth, got.QueueDepth, after.QueueDepth)
	}

	c := mustEnqueue(t, m, rows[7:9])
	if err := m.enqueue(newRequest(context.Background(), rows[:1])); err != ErrBusy {
		t.Fatalf("enqueue into a full queue: %v, want ErrBusy", err)
	}
	if sizes := []int{g.runNext(), g.runNext()}; !reflect.DeepEqual(sizes, []int{4, 4}) {
		t.Fatalf("batch sizes %v, want [4 4]", sizes)
	}
	g.release <- struct{}{}
	for _, r := range []*request{a, b, c} {
		assertAnswered(t, r)
	}
}

// TestQueueDepthCountsSamples: queue depth — Server.QueueDepth, /metrics
// per model and total, and /healthz — counts queued samples, not queued
// requests, and falls by each batch's size as a worker takes it.
func TestQueueDepthCountsSamples(t *testing.T) {
	s, m, g, ts := newGatedServer(t, Config{Workers: 1, MaxBatch: 2})
	if err := s.Register("idle", h2Net(t), numfmt.FP32); err != nil {
		t.Fatal(err)
	}
	rows := seededRows(10, 6)
	reqs := []*request{mustEnqueue(t, m, rows[:1])}
	g.next()
	reqs = append(reqs, mustEnqueue(t, m, rows[1:4]), mustEnqueue(t, m, rows[4:9]), mustEnqueue(t, m, rows[9:]))

	if d := s.QueueDepth(); d != 9 {
		t.Fatalf("QueueDepth %d, want 9 samples in 3 requests", d)
	}
	var snap Snapshot
	if err := json.Unmarshal(getBody(t, ts.URL+"/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.QueueDepth != 9 || snap.Models["h2"].QueueDepth != 9 || snap.Models["idle"].QueueDepth != 0 {
		t.Fatalf("/metrics queue_depth total=%d h2=%d idle=%d, want 9, 9, 0",
			snap.QueueDepth, snap.Models["h2"].QueueDepth, snap.Models["idle"].QueueDepth)
	}
	_, h := getHealth(t, ts)
	if h.QueueDepth != 9 {
		t.Fatalf("/healthz queue_depth %d, want 9", h.QueueDepth)
	}

	for _, want := range []int{7, 5, 3, 1, 0} {
		g.runNext()
		if d := s.QueueDepth(); d != want {
			t.Fatalf("QueueDepth %d after a worker took a batch, want %d", d, want)
		}
	}
	g.release <- struct{}{}
	for _, r := range reqs {
		assertAnswered(t, r)
	}
}
