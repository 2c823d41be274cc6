package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// errpropdBin is errpropd built from this checkout for the tests.
var errpropdBin string

func TestMain(m *testing.M) {
	os.Exit(runTests(m))
}

func runTests(m *testing.M) int {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	errpropdBin = filepath.Join(dir, "errpropd")
	cmd := exec.Command("go", "build", "-o", errpropdBin, "./cmd/errpropd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building errpropd: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// tinyEnv is a benchmark run shrunk to test size: small pools and
// dataset, one boot, sub-second windows.
func tinyEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return &env{
		root:     root,
		build:    t.TempDir(),
		work:     t.TempDir(),
		errpropd: errpropdBin,
		seed:     seed,
		seconds:  600 * time.Millisecond,
		out:      io.Discard,
		size: sizes{
			h2Pool:     64,
			convBlobs:  4,
			convTiles:  16,
			scoreGrid:  64,
			scoreChunk: 1024,
			boots:      1,
			minJobs:    2,
			warmup:     100 * time.Millisecond,
		},
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				e := tinyEnv(t, 3)
				rep, err := e.runWorkload(name, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(rep.Metrics), len(want))
				}
				for metric, unit := range want {
					got, ok := rep.Metrics[metric]
					switch {
					case !ok:
						t.Errorf("metric %s missing", metric)
					case got.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", metric, got.Unit, unit)
					case !trace && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", metric, got.Value)
					}
				}
			})
		}
	}
}

// flipFirstOutputDigit changes the first digit of the first output in
// a predict response, as a server that computed a wrong value would.
func flipFirstOutputDigit(body []byte) []byte {
	out := append([]byte(nil), body...)
	i := bytes.Index(out, []byte(`"outputs":[[`))
	if i < 0 {
		return out
	}
	for j := i; j < len(out); j++ {
		if out[j] >= '0' && out[j] <= '9' {
			if out[j] == '1' {
				out[j] = '2'
			} else {
				out[j] = '1'
			}
			break
		}
	}
	return out
}

func TestCorruptedResponseCountsAsWrong(t *testing.T) {
	e := tinyEnv(t, 3)
	e.hooks.corruptResponse = flipFirstOutputDigit
	rep, err := e.runWorkload("direct-conv-blob", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every operation counted wrong", rep.Correct, rep.Attempted, rep.Failed)
	}
	if r := rep.Metrics["ok_ratio"].Value; r != 0 {
		t.Errorf("ok_ratio = %v, want 0", r)
	}
}

func TestCorruptedChunkResultCountsAsWrong(t *testing.T) {
	e := tinyEnv(t, 3)
	e.hooks.corruptChunk = func(index int64, sum []float64) {
		if index == 1 {
			sum[0] = math.Nextafter(sum[0], math.Inf(1))
		}
	}
	rep, err := e.runWorkload("score-mgard", false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every job counted wrong", rep.Correct, rep.Attempted, rep.Failed)
	}
}

func TestDamagedChunkFileFailsTheJob(t *testing.T) {
	e := tinyEnv(t, 3)
	fx, err := e.scoreFixture()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(fx.dir, fx.man.Chunks[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var tl tally
	j := e.runJob(fx)
	if e.judgeJob(fx, &j, &tl) || tl.failed != 1 || tl.okRatio() != 0 {
		t.Fatalf("job on a damaged chunk: err=%v tally=%+v, want one failed job", j.err, tl)
	}
}

// fixtureDigests builds every workload's fixtures from seed and returns
// their digests.
func fixtureDigests(t *testing.T, seed uint64) []string {
	t.Helper()
	e := tinyEnv(t, seed)
	if _, err := e.gatewayMLPWorkload(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.directConvWorkload(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.scoreFixture(); err != nil {
		t.Fatal(err)
	}
	return e.digests
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := fixtureDigests(t, 7), fixtureDigests(t, 7), fixtureDigests(t, 8)
	if !slices.Equal(a, b) {
		t.Errorf("seed 7 twice gave different fixtures:\n%v\n%v", a, b)
	}
	for i := range a {
		if i < len(c) && a[i] == c[i] {
			t.Errorf("seeds 7 and 8 gave the same fixture %s", a[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want map[string]string) {
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(listed), len(want))
		}
		for _, m := range listed {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s]; perfbench reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestPickCalm(t *testing.T) {
	steal := []float64{0.30, 0.01, 0.20, 0.00, 0.04, 0.25}
	atLeast := func(n int) func([]int) bool { return func(sel []int) bool { return len(sel) >= n } }
	if sel, calm := pickCalm(steal, atLeast(2)); !calm || !slices.Equal(sel, []int{1, 3, 4}) {
		t.Fatalf("enough calm windows: got %v calm=%v, want every calm one [1 3 4]", sel, calm)
	}
	if sel, calm := pickCalm(steal, atLeast(5)); calm || !slices.Equal(sel, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("too few calm windows: got %v calm=%v, want the five calmest in order", sel, calm)
	}
	if sel, calm := pickCalm(steal, atLeast(9)); calm || len(sel) != len(steal) {
		t.Fatalf("more wanted than there are: got %v calm=%v, want all", sel, calm)
	}
}
