package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/serve"
	"github.com/scidata/errprop/internal/tensor"
)

// gateway-mlp-json: `errpropd -gateway -spawn 2` over backends serving an
// .aot artifact of the paper's H2-combustion MLP (9-50-50-9 tanh, fp16).
// Each request is one 9-feature JSON sample with a tolerance, so the
// budget check runs. The engine does microseconds of work per request;
// two HTTP hops, JSON, the gateway relay and the batcher's flush wait
// make up nearly all of the latency. Bodies are distinct because the
// gateway's consistent-hash key is the body: identical bodies would all
// land on one backend.
func runGatewayMLP(e *env, trace bool) (*Report, error) {
	wl, err := e.gatewayMLPWorkload()
	if err != nil {
		return nil, err
	}
	if trace {
		return e.tracedServing(wl)
	}
	return e.timedServing(wl)
}

// h2Rows returns n distinct rows of the H2-combustion surrogate
// generated from seed, growing the grid until enough rows differ (the
// air outside the vortex repeats the same composition).
func h2Rows(n int, seed int64) ([][]float64, error) {
	for grid := int(math.Ceil(math.Sqrt(float64(n)))); grid <= 16*n; grid *= 2 {
		ds := dataset.H2Combustion(grid, seed)
		seen := make(map[[9]float64]bool, n)
		rows := make([][]float64, 0, n)
		for i := 0; i < ds.N() && len(rows) < n; i++ {
			var key [9]float64
			for f := range key {
				key[f] = ds.X.Data[f*ds.N()+i]
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			rows = append(rows, key[:])
		}
		if len(rows) == n {
			return rows, nil
		}
	}
	return nil, fmt.Errorf("H2 surrogate has fewer than %d distinct rows", n)
}

func (e *env) gatewayMLPWorkload() (*servingWL, error) {
	net, err := nn.MLPSpec("h2", []int{9, 50, 50, 9}, nn.ActTanh, false).Build(int64(e.seed))
	if err != nil {
		return nil, err
	}
	aot, art, err := e.compileArtifact("h2", net)
	if err != nil {
		return nil, err
	}
	steps, err := art.StepsFor(art.Format)
	if err != nil {
		return nil, err
	}
	an := core.Analyze(art.Root, steps)
	qb := an.QuantizationBound()
	bound := an.BoundLinf(0)
	tol := 2 * bound

	rows, err := h2Rows(e.size.h2Pool, int64(e.seed))
	if err != nil {
		return nil, err
	}
	eng, err := art.Program.Bind(art.Net, 1, 1)
	if err != nil {
		return nil, err
	}
	x := tensor.NewMatrix(9, 1)
	ops := make([]servOp, len(rows))
	resps := make([]serve.PredictResponse, len(rows))
	var all bytes.Buffer
	for i, row := range rows {
		body, err := json.Marshal(serve.PredictRequest{Model: "h2", Inputs: [][]float64{row}, Tolerance: tol, Norm: "linf"})
		if err != nil {
			return nil, err
		}
		copy(x.Data, row)
		want := append([]float64(nil), eng.Forward(x).Data...)
		ops[i] = servOp{body: body, digest: digest(body), samples: 1, want: [][]float64{want}}
		resps[i] = serve.PredictResponse{Model: "h2", Samples: 1, Outputs: ops[i].want,
			Bound: &serve.BoundInfo{Format: art.Format.String(), Norm: "linf", QuantBound: qb, TotalBound: bound, Tolerance: tol}}
		all.Write(body)
		all.WriteByte('\n')
	}
	e.recordDigest("h2.requests", all.Bytes())

	wl := &servingWL{
		name:       "gateway-mlp-json",
		model:      "h2",
		path:       "/v1/predict",
		ctype:      "application/json",
		ops:        ops,
		argv:       []string{"-gateway", "-spawn", "2", "-model", "h2=" + aot},
		gateway:    true,
		maxBatch:   32,
		quantBound: qb,
	}
	wl.host = func(tr *tracer) (*hosted, error) { return hostGateway(tr, aot) }
	wl.replay = func(e *env, batch int) (*layerReplays, error) {
		rp := &layerReplays{forwardBatch: batch, metrics: map[string]Metric{}}
		rp.jsonDecodeUS = us(perCall(func(i int) {
			var req serve.PredictRequest
			_ = json.Unmarshal(ops[i%len(ops)].body, &req) // the pool was built with json.Marshal
		}))
		var buf bytes.Buffer
		rp.jsonEncodeUS = us(perCall(func(i int) {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(resps[i%len(resps)]) // as the handlers write responses; a buffer cannot fail
		}))
		fwd, err := art.Program.Bind(art.Net, 32, 1)
		if err != nil {
			return nil, err
		}
		in := tensor.NewMatrix(9, batch)
		for c := 0; c < batch; c++ {
			for f := 0; f < 9; f++ {
				in.Data[f*batch+c] = rows[c%len(rows)][f]
			}
		}
		rp.forwardMS = ms(perCall(func(int) { fwd.Forward(in) }))
		am, err := artifactReplays(aot, 32)
		if err != nil {
			return nil, err
		}
		for k, v := range am {
			rp.metrics[k] = v
		}
		return rp, nil
	}
	return wl, nil
}

// artifactReplays times the artifact cold-start path: artifact.ReadFile
// with all its verification, and Program.Bind of one engine.
func artifactReplays(path string, batch int) (map[string]Metric, error) {
	art, err := artifact.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rerr error
	decode := perCall(func(int) {
		if _, err := artifact.ReadFile(path); err != nil {
			rerr = err
		}
	})
	bind := perCall(func(int) {
		if _, err := art.Program.Bind(art.Net, batch, 1); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return nil, rerr
	}
	return map[string]Metric{
		"artifact.decode_ms": {ms(decode), "ms"},
		"artifact.bind_ms":   {ms(bind), "ms"},
	}, nil
}

// hostGateway runs the gateway-mlp-json fleet in-process with
// errpropd's default configuration: two serve.Servers registered from
// the artifact and a gateway.Gateway routing over them, each public
// Handler wrapped by the tracer.
func hostGateway(tr *tracer, aot string) (*hosted, error) {
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	var backends []gateway.Backend
	for i := 0; i < 2; i++ {
		art, err := artifact.ReadFile(aot)
		if err != nil {
			closeAll()
			return nil, err
		}
		s := serve.New(serve.Config{})
		if err := s.RegisterArtifact("h2", art); err != nil {
			closeAll()
			return nil, err
		}
		addr, stop, err := listenAndServe(tr.wrap("serve", s.Handler()))
		if err != nil {
			s.Close()
			closeAll()
			return nil, err
		}
		closers = append(closers, func() { stop(); s.Close() })
		backends = append(backends, gateway.Backend{Name: fmt.Sprintf("backend-%d", i), Addr: addr, Weight: 1})
	}
	g := gateway.New(gateway.Config{ProbeInterval: 250 * time.Millisecond, MaxAttempts: 3, Seed: 1})
	closers = append(closers, g.Close)
	if err := g.SetBackends(backends); err != nil {
		closeAll()
		return nil, err
	}
	if err := g.WaitReady("h2", 30*time.Second); err != nil {
		closeAll()
		return nil, err
	}
	addr, stop, err := listenAndServe(tr.wrap("gateway", g.Handler()))
	if err != nil {
		closeAll()
		return nil, err
	}
	closers = append(closers, stop)
	return &hosted{url: "http://" + addr + "/v1/predict", close: closeAll}, nil
}
