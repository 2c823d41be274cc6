// Command perfbench is the errprop repository's benchmark. One run boots
// the system under test from the checkout, drives one workload as a
// closed loop for a fixed time, checks every output bit-exactly against
// an in-process reference, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_p50_ms": {"value": 2.93, "unit": "ms"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. -steady N runs the
// workload N times with consecutive seeds and prints each end-to-end
// metric's median, quartiles and spread against its bound in
// BENCHMARK.json.
//
// It is started by run.sh, which builds this program and errpropd first:
//
//	bash perfbench/run.sh --workload gateway-mlp-json --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metric
// glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	_ "github.com/scidata/errprop/internal/compress/mgard" // register codecs
	_ "github.com/scidata/errprop/internal/compress/sz"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is the benchmark's result line.
type Report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// tally counts operation outcomes. An operation is a request for the
// serving workloads and a scoring job for score-mgard.
type tally struct {
	attempted int64
	failed    int64 // transport errors and non-503 error statuses
	refused   int64 // 503s
	wrong     int64 // answered, but not bit-exact with the reference
	samples   int64 // samples in correctly answered operations
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.wrong += o.wrong
	t.samples += o.samples
}

func (t tally) bad() int64 { return t.failed + t.refused + t.wrong }

// okRatio is the share of attempted operations answered correctly: the
// complement of error_ratio, reported this way round so that the metric
// is never zero.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.bad()) / float64(t.attempted)
}

func (t tally) report(metrics map[string]Metric) *Report {
	return &Report{Correct: t.bad() == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.bad(), Metrics: metrics}
}

// sizes fixes how much input each workload generates. Tests shrink it.
type sizes struct {
	h2Pool     int           // distinct single-sample JSON bodies (gateway-mlp-json)
	convBlobs  int           // distinct SZ blobs (direct-conv-blob)
	convTiles  int           // EuroSAT tiles per blob
	scoreGrid  int           // H2 surrogate grid side; the dataset has grid^2 samples
	scoreChunk int           // samples per dataset chunk
	boots      int           // cold boots per serving run; setup_s is their median
	minJobs    int           // scoring jobs per run at least; setup_s is their median
	warmup     time.Duration // closed-loop warm-up before the measured window
	calmWait   time.Duration // longest a timed run goes on beyond its window to find calm windows (see calmSteal)
}

var defaultSizes = sizes{
	h2Pool:     4096,
	convBlobs:  128,
	convTiles:  16,
	scoreGrid:  512,
	scoreChunk: 8192,
	boots:      7,
	minJobs:    5,
	warmup:     time.Second,
	calmWait:   120 * time.Second, // a run stays under 180 s; a noisy phase of up to ~4.5 min spoils at most one run
}

// hooks let the benchmark's own tests corrupt outputs to prove the
// correctness gate counts them.
type hooks struct {
	corruptResponse func(body []byte) []byte
	corruptChunk    func(index int64, sum []float64)
}

// env is one benchmark run's context.
type env struct {
	root     string        // checkout root
	build    string        // where runs and span files go: <root>/.bench_build
	errpropd string        // errpropd binary built from the checkout
	work     string        // scratch directory, removed when the run ends
	seed     uint64        // input seed
	seconds  time.Duration // measured window
	out      io.Writer     // human-readable progress and tables
	size     sizes
	hooks    hooks
	digests  []string // "name sha256" of every fixture, in build order
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// logCalm reports the steal share of each window (or job) of a timed
// run and which of them the metrics are taken over.
func (e *env) logCalm(what string, steal []float64, sel []int, calmEnough bool) {
	how := fmt.Sprintf("the %d calm ones", len(sel))
	if !calmEnough {
		how = fmt.Sprintf("the %d calmest: a noisy phase outlasted the wait", len(sel))
	}
	e.logf("hypervisor steal per %s (%%): %.1f; metrics are over %s", what, scale(steal, 100), how)
}

// workloads maps a workload name to its runner; trace selects the
// per-layer run.
var workloads = map[string]func(e *env, trace bool) (*Report, error){
	"gateway-mlp-json": runGatewayMLP,
	"direct-conv-blob": runDirectConv,
	"score-mgard":      runScoreMGARD,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root     = fs.String("root", ".", "checkout root holding go.mod and BENCHMARK.json")
		errpropd = fs.String("errpropd", "", "errpropd binary built from the checkout (run.sh passes it)")
		steady   = fs.Int("steady", 0, "steadiness report: run the workload this many times with seeds seed, seed+1, ...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *errpropd == "" {
		fmt.Fprintf(os.Stderr, "perfbench: -errpropd is required (run the benchmark through run.sh)\n")
		return 2
	}
	if *steady > 0 {
		if err := steadiness(stdout, absRoot, *workload, *seed, *seconds, *steady, *errpropd); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	e := &env{
		root:     absRoot,
		build:    filepath.Join(absRoot, ".bench_build"),
		errpropd: *errpropd,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		out:      stdout,
		size:     defaultSizes,
	}
	rep, err := e.runWorkload(*workload, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload runs one workload in a fresh scratch directory under
// e.build and removes it afterwards.
func (e *env) runWorkload(name string, trace bool) (*Report, error) {
	if _, err := os.Stat(filepath.Join(e.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not an errprop checkout: %w", e.root, err)
	}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(e.build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e.work = work
	mode := "end-to-end"
	if trace {
		mode = "traced"
	}
	e.logf("perfbench: workload %s, seed %d, %s window, %s run", name, e.seed, e.seconds, mode)
	return workloads[name](e, trace)
}
