package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/core"
	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/numfmt"
	"github.com/scidata/errprop/internal/quant"
	"github.com/scidata/errprop/internal/serve"
	"github.com/scidata/errprop/internal/tensor"
)

// szTol is the absolute L-infinity tolerance the direct-conv-blob
// client compresses its tiles with.
const szTol = 1e-3

// direct-conv-blob: one errpropd booted from a saved model (so it
// quantizes, analyzes and compiles at boot) serving the repository's
// EuroSAT classifier: a ResNet over 13x8x8 tiles, blocks [1,1],
// channels [8,16], ReLU, PSN, fp16. Each request carries 16 seeded
// tiles as one SZ L-infinity blob. The engine dominates, the batcher
// coalesces requests into near-full batches, and the gateway and JSON
// request decoding are bypassed. The spec boot prices the second
// model-loading path in setup_s.
func runDirectConv(e *env, trace bool) (*Report, error) {
	wl, err := e.directConvWorkload()
	if err != nil {
		return nil, err
	}
	if trace {
		return e.tracedServing(wl)
	}
	return e.timedServing(wl)
}

func (e *env) directConvWorkload() (*servingWL, error) {
	const size = 8
	spec := nn.ResNetSpec("eurosat", dataset.EuroSATBands, size, size, 10, []int{1, 1}, []int{8, 16}, nn.ActReLU, true)
	built, err := spec.Build(int64(e.seed))
	if err != nil {
		return nil, err
	}
	modelPath, raw, err := e.saveNetwork("conv", built)
	if err != nil {
		return nil, err
	}
	// The reference follows errpropd's spec boot on the same bytes: load,
	// quantize, analyze, compile.
	net, err := nn.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	q, err := quant.Quantize(net, numfmt.FP16)
	if err != nil {
		return nil, err
	}
	an, err := core.AnalyzeNetwork(net, numfmt.FP16)
	if err != nil {
		return nil, err
	}
	qb := an.QuantizationBound()
	tol := 2 * an.BoundLinf(szTol)
	tiles, nblobs := e.size.convTiles, e.size.convBlobs
	eng, err := nn.CompileInference(q, tiles)
	if err != nil {
		return nil, err
	}

	imgs := dataset.EuroSAT(nblobs*tiles, size, int64(e.seed))
	feat := imgs.InputDim()
	ops := make([]servOp, nblobs)
	decoded := make([][]float64, nblobs)
	resps := make([]serve.PredictResponse, nblobs)
	var all bytes.Buffer
	for b := range ops {
		data := make([]float64, feat*tiles)
		for i := 0; i < tiles; i++ {
			s := imgs.Images.Sample(b*tiles + i)
			for f := 0; f < feat; f++ {
				data[f*tiles+i] = s[f]
			}
		}
		blob, err := compress.Encode("sz", data, []int{feat, tiles}, compress.AbsLinf, szTol)
		if err != nil {
			return nil, fmt.Errorf("compressing blob %d: %w", b, err)
		}
		// SZ is lossy: the server answers for the decoded values.
		dec, _, err := compress.Decode(blob)
		if err != nil {
			return nil, err
		}
		decoded[b] = dec
		y := eng.Forward(tensor.NewMatrixFrom(feat, tiles, dec))
		want := make([][]float64, tiles)
		for i := range want {
			want[i] = make([]float64, y.Rows)
			for o := 0; o < y.Rows; o++ {
				want[i][o] = y.Data[o*tiles+i]
			}
		}
		ops[b] = servOp{body: blob, digest: digest(blob), samples: tiles, want: want}
		resps[b] = serve.PredictResponse{Model: "conv", Samples: tiles, Outputs: want,
			Bound: &serve.BoundInfo{Format: numfmt.FP16.String(), Norm: "linf", QuantBound: qb, TotalBound: an.BoundLinf(szTol), Tolerance: tol}}
		all.Write(blob)
	}
	e.recordDigest("conv.blobs", all.Bytes())

	query := "/v1/predict?model=conv&tolerance=" + strconv.FormatFloat(tol, 'g', -1, 64)
	wl := &servingWL{
		name:       "direct-conv-blob",
		model:      "conv",
		path:       query,
		ctype:      serve.BlobContentType,
		ops:        ops,
		argv:       []string{"-format", "fp16", "-model", "conv=" + modelPath},
		maxBatch:   32,
		quantBound: qb,
	}
	wl.host = func(tr *tracer) (*hosted, error) {
		hnet, err := nn.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		s := serve.New(serve.Config{})
		if err := s.Register("conv", hnet, numfmt.FP16); err != nil {
			return nil, err
		}
		addr, stop, err := listenAndServe(tr.wrap("serve", s.Handler()))
		if err != nil {
			s.Close()
			return nil, err
		}
		return &hosted{url: "http://" + addr + query, close: func() { stop(); s.Close() }}, nil
	}
	wl.replay = func(e *env, batch int) (*layerReplays, error) {
		rp := &layerReplays{forwardBatch: batch, metrics: map[string]Metric{}}
		var buf bytes.Buffer
		rp.jsonEncodeUS = us(perCall(func(i int) {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(resps[i%len(resps)]) // as the handlers write responses; a buffer cannot fail
		}))
		var rerr error
		decode := perCall(func(i int) {
			if _, _, err := compress.Decode(ops[i%len(ops)].body); err != nil {
				rerr = err
			}
		})
		var stored float64
		for _, op := range ops {
			stored += float64(len(op.body))
		}
		rawBytes := float64(feat * tiles * 8)
		rp.blobDecodeMS = ms(decode)
		rp.blobMBps = rawBytes / decode.Seconds() / 1e6
		rp.blobRatio = rawBytes / (stored / float64(len(ops)))

		fwd, err := nn.CompileInference(q, 32)
		if err != nil {
			return nil, err
		}
		in := tensor.NewMatrix(feat, batch)
		for c := 0; c < batch; c++ {
			src := decoded[(c/tiles)%len(decoded)]
			for f := 0; f < feat; f++ {
				in.Data[f*batch+c] = src[f*tiles+c%tiles]
			}
		}
		rp.forwardMS = ms(perCall(func(int) { fwd.Forward(in) }))

		// The spec boot, step by step: quantize, analyze, and compile one
		// engine per serving worker (errpropd's default is 4).
		quantize := perCall(func(int) {
			if _, err := quant.Quantize(net, numfmt.FP16); err != nil {
				rerr = err
			}
		})
		analyze := perCall(func(int) {
			if _, err := core.AnalyzeNetwork(net, numfmt.FP16); err != nil {
				rerr = err
			}
		})
		compile := perCall(func(int) {
			for w := 0; w < 4; w++ {
				if _, err := nn.CompileInferenceSharded(q, 32, 1); err != nil {
					rerr = err
				}
			}
		})
		if rerr != nil {
			return nil, rerr
		}
		rp.metrics["quant.quantize_ms"] = Metric{ms(quantize), "ms"}
		rp.metrics["core.analyze_ms"] = Metric{ms(analyze), "ms"}
		rp.metrics["nn.compile_ms"] = Metric{ms(compile), "ms"}
		return rp, nil
	}
	return wl, nil
}
