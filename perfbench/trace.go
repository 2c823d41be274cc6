package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans stay in memory and
// are written out when the run ends.
type span struct {
	Op     int64  `json:"op"`               // operation (request, chunk or job) the span belongs to
	Name   string `json:"name"`             // layer boundary: "op", "gateway", "serve", "replay.*", ...
	Parent string `json:"parent,omitempty"` // name of the enclosing span
	Start  int64  `json:"start_ns"`         // since the tracer's base time
	End    int64  `json:"end_ns"`
	digest uint64 // request-body digest, for matching spans across hops
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans. Recording is off until enabled, so the same
// hosted handlers serve the untraced and the traced half of a run.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap is the benchmark's middleware around a module's public Handler:
// while tracing is on it records one span per request, keyed by the
// digest of the request body. The gateway forwards bodies unchanged and
// carries no request ID, so the digest is what ties a backend span to
// the client operation and the gateway span that caused it.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		t.record(span{Name: name, Start: start, End: t.now(), digest: digest(body)})
	})
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// requestTree is one client operation with the handler spans it caused.
type requestTree struct {
	op      span
	gateway *span  // nil when the workload has no gateway
	serve   []span // backend handler spans: one per attempt
}

// assemble matches handler spans to client "op" spans by body digest
// and interval containment, assigns op ids and parents, and returns the
// trees of operations whose spans were all found.
func (t *tracer) assemble() []requestTree {
	t.mu.Lock()
	defer t.mu.Unlock()
	byDigest := make(map[uint64][]int)
	for i, s := range t.spans {
		if s.Name == "gateway" || s.Name == "serve" {
			byDigest[s.digest] = append(byDigest[s.digest], i)
		}
	}
	inside := func(inner, outer span) bool { return inner.Start >= outer.Start && inner.End <= outer.End }
	var trees []requestTree
	var id int64
	for i := range t.spans {
		if t.spans[i].Name != "op" {
			continue
		}
		id++
		t.spans[i].Op = id
		op := t.spans[i]
		tree := requestTree{op: op}
		for _, j := range byDigest[op.digest] {
			s := &t.spans[j]
			if s.Name == "gateway" && inside(*s, op) && s.Op == 0 {
				s.Op, s.Parent = id, "op"
				tree.gateway = s
				break
			}
		}
		outer := op
		parent := "op"
		if tree.gateway != nil {
			outer, parent = *tree.gateway, "gateway"
		}
		for _, j := range byDigest[op.digest] {
			s := &t.spans[j]
			if s.Name == "serve" && inside(*s, outer) && s.Op == 0 {
				s.Op, s.Parent = id, parent
				tree.serve = append(tree.serve, *s)
			}
		}
		if len(tree.serve) > 0 {
			trees = append(trees, tree)
		}
	}
	return trees
}

// covered returns how much of [lo, hi) the union of the spans covers:
// the part of a parent span its children account for.
func covered(lo, hi int64, children []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// writeSpans writes every recorded span as one JSON line, sorted by
// start time, to <build>/trace/<workload>-seed<seed>.spans.jsonl and
// returns the path.
func (e *env) writeSpans(workload string, t *tracer) (string, error) {
	dir := filepath.Join(e.build, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layerRow is one line of a traced run's self-time table.
type layerRow struct {
	metric string  // per-layer metric the row feeds
	what   string  // how it was measured
	meanMS float64 // mean self time per operation
}

// printSelfTimes prints the per-layer self-time table of a traced run:
// each row's mean self time per operation and its share of the mean
// operation time, with the unexplained remainder as its own row.
func (e *env) printSelfTimes(opMeanMS float64, rows []layerRow, remainderMS float64) {
	e.logf("self time per operation (mean over traced operations, %.3f ms each):", opMeanMS)
	e.logf("  %-28s %10s %7s  %s", "layer metric", "self ms", "share", "measured as")
	for _, r := range rows {
		if r.meanMS == 0 {
			continue // the workload does not pass through this layer
		}
		e.logf("  %-28s %10.4f %6.1f%%  %s", r.metric, r.meanMS, 100*r.meanMS/opMeanMS, r.what)
	}
	e.logf("  %-28s %10.4f %6.1f%%  %s", "trace.unexplained_ms", remainderMS, 100*remainderMS/opMeanMS, "operation time no span or replay above accounts for")
}
