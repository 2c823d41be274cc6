// Command errpropd is the error-propagation inference daemon: it loads
// one or more saved networks (nn.Save format), optionally quantizes
// them, and serves batched predictions over HTTP with per-request QoI
// error budgets (see internal/serve).
//
// Usage:
//
//	errpropd -addr :8080 -model h2=h2.model -model flame=flame.model -format fp16
//	errpropd -addr 127.0.0.1:0 -demo -portfile /tmp/errpropd.port
//
// Endpoints: GET /healthz, GET /metrics, GET /v1/models,
// POST /v1/predict (JSON or application/x-errprop-blob),
// POST /v1/plan.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// in-flight and queued requests complete, workers exit, then the process
// exits 0.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	errprop "github.com/scidata/errprop"
)

// modelFlag is one -model name=path pair.
type modelFlag struct {
	name, path string
}

// parseModelFlag splits a -model argument of the form name=path.
func parseModelFlag(arg string) (modelFlag, error) {
	name, path, ok := strings.Cut(arg, "=")
	if !ok || name == "" || path == "" {
		return modelFlag{}, fmt.Errorf("-model wants name=path, got %q", arg)
	}
	return modelFlag{name: name, path: path}, nil
}

// demoNetwork builds the built-in demo model (the paper's H2-combustion
// MLP shape, deterministic untrained weights) so smoke tests need no
// model file.
func demoNetwork() (*errprop.Network, error) {
	return errprop.MLPSpec("demo", []int{9, 50, 50, 9}, errprop.ActTanh, false).Build(1)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// runCompile is -compile: the single blessed producer of ahead-of-time
// artifacts. Each -model (and -demo) is loaded, compiled at format f —
// quantization, op-program compilation, error-flow analysis, certified
// bound — and written to <out>/<name>.aot.
func runCompile(outDir string, f errprop.Format, models []modelFlag, demo bool) error {
	if demo {
		models = append(models, modelFlag{name: "demo"})
	}
	for _, m := range models {
		var net *errprop.Network
		var err error
		if m.path == "" {
			net, err = demoNetwork()
		} else {
			var raw []byte
			if raw, err = os.ReadFile(m.path); err != nil {
				return err
			}
			if errprop.IsArtifact(raw) {
				return fmt.Errorf("%s is already a compiled artifact", m.path)
			}
			net, err = errprop.LoadNetwork(bytes.NewReader(raw))
		}
		if err != nil {
			return fmt.Errorf("loading %s: %w", m.path, err)
		}
		art, err := errprop.BuildArtifact(net, f)
		if err != nil {
			return fmt.Errorf("compiling %q: %w", m.name, err)
		}
		path := filepath.Join(outDir, m.name+".aot")
		if err := errprop.WriteArtifactFile(path, art); err != nil {
			return err
		}
		log.Printf("compiled %q -> %s (format %s, certified bound %g, %s)", m.name, path, art.Format, art.QuantBound, art.Checksum)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("errpropd", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		format   = fs.String("format", "fp32", "serving weight format for all models (fp32|tf32|bf16|fp16|int8)")
		demo     = fs.Bool("demo", false, "also register a built-in demo model named \"demo\"")
		portfile = fs.String("portfile", "", "write the bound address to this file once listening")

		maxBatch = fs.Int("max-batch", 32, "most samples per forward pass (requests coalesce only under load)")
		queueCap = fs.Int("queue", 1024, "admission queue capacity per model, in samples")
		workers  = fs.Int("workers", 4, "inference engines per model")
		shards   = fs.Int("engine-shards", 1, "goroutines each engine splits a batch across (bit-identical for any value)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-request timeout")

		compileMode = fs.Bool("compile", false, "compile each -model (and -demo) into an ahead-of-time artifact at -format instead of serving, then exit")
		outDir      = fs.String("out", ".", "compile: directory artifacts are written to, one <name>.aot per model")

		gatewayMode = fs.Bool("gateway", false, "run as a routing gateway over a fleet of errpropd backends instead of serving models directly")
		spawn       = fs.Int("spawn", 0, "gateway: spawn this many backend child processes (re-invoking this binary with the serving flags) and supervise them")
		registry    = fs.String("registry", "", "gateway: checksummed fleet manifest to route to; SIGHUP re-reads it (corrupt manifests are refused, keeping the current fleet)")
		probeEvery  = fs.Duration("probe", 250*time.Millisecond, "gateway: health-probe interval")
		retries     = fs.Int("retries", 3, "gateway: total send attempts per request, first try included")
		seed        = fs.Uint64("seed", 1, "gateway: retry-jitter seed (drills replay bit-identically for a fixed seed)")
	)
	var models []modelFlag
	fs.Func("model", "register a model as name=path (repeatable)", func(arg string) error {
		m, err := parseModelFlag(arg)
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gatewayMode {
		return runGateway(gatewayOpts{
			addr:       *addr,
			portfile:   *portfile,
			spawn:      *spawn,
			registry:   *registry,
			probeEvery: *probeEvery,
			retries:    *retries,
			seed:       *seed,
			backendArgs: backendArgs(backendFlags{
				format: *format, demo: *demo, models: models,
				maxBatch: *maxBatch, queueCap: *queueCap,
				workers: *workers, shards: *shards, timeout: *timeout,
			}),
		})
	}
	if *spawn > 0 || *registry != "" {
		return fmt.Errorf("-spawn and -registry require -gateway")
	}
	if len(models) == 0 && !*demo {
		if *compileMode {
			return fmt.Errorf("nothing to compile: pass -model name=path and/or -demo")
		}
		return fmt.Errorf("nothing to serve: pass -model name=path and/or -demo")
	}
	var f errprop.Format
	switch strings.ToLower(*format) {
	case "fp32":
		f = errprop.FP32
	case "tf32":
		f = errprop.TF32
	case "bf16":
		f = errprop.BF16
	case "fp16":
		f = errprop.FP16
	case "int8":
		f = errprop.INT8
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if *compileMode {
		return runCompile(*outDir, f, models, *demo)
	}

	srv := errprop.NewServer(errprop.ServeConfig{
		MaxBatch:       *maxBatch,
		QueueCap:       *queueCap,
		Workers:        *workers,
		EngineShards:   *shards,
		RequestTimeout: *timeout,
	})
	for _, m := range models {
		raw, err := os.ReadFile(m.path)
		if err != nil {
			return err
		}
		if errprop.IsArtifact(raw) {
			// Ahead-of-time artifact: bind the shipped program to the
			// shipped weights; no recompilation, no re-analysis. The
			// artifact's baked-in format wins over -format. A corrupt
			// artifact is a boot refusal naming the file.
			art, err := errprop.DecodeArtifact(raw)
			if err != nil {
				return fmt.Errorf("refusing to boot: artifact %s: %w", m.path, err)
			}
			if err := srv.RegisterArtifact(m.name, art); err != nil {
				return err
			}
			log.Printf("registered %q from artifact %s (format %s, %s)", m.name, m.path, art.Format, art.Checksum)
			continue
		}
		net, err := errprop.LoadNetwork(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("loading %s: %w", m.path, err)
		}
		if err := srv.Register(m.name, net, f); err != nil {
			return err
		}
		log.Printf("registered %q from %s (format %s)", m.name, m.path, f)
	}
	if *demo {
		net, err := demoNetwork()
		if err != nil {
			return err
		}
		if err := srv.Register("demo", net, f); err != nil {
			return err
		}
		log.Printf("registered built-in demo model (format %s)", f)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	log.Printf("errpropd listening on %s", bound)
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received; draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	srv.Close()
	log.Printf("drained; exiting")
	return nil
}
