package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload n times, each in a fresh process with
// seeds seed, seed+1, ..., and prints for every end-to-end metric the
// median, the quartiles (as Python's statistics.quantiles(n=4) gives
// them) and the spread (q3-q1)/median against the metric's bound. A
// spread under a third of the bound is steady; setup_s is judged on its
// median alone and reported for information.
func steadiness(stdout io.Writer, root, workload string, seed uint64, seconds float64, n int, errpropd string) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-root", root, "-errpropd", errpropd)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		last := lines[len(lines)-1]
		var rep Report
		if err := json.Unmarshal([]byte(last), &rep); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i+1, s, err)
		}
		if !rep.Correct {
			return fmt.Errorf("run %d (seed %d) reported incorrect outputs: %s", i+1, s, last)
		}
		for k, v := range rep.Metrics {
			values[k] = append(values[k], v.Value)
		}
		fmt.Fprintf(stdout, "run %2d seed %d: %s\n", i+1, s, last)
		for _, l := range lines {
			if strings.Contains(l, "steal") {
				fmt.Fprintf(stdout, "        %s\n", l)
			}
		}
	}
	var tbl bytes.Buffer
	fmt.Fprintf(&tbl, "steadiness of %s over %d runs of %gs:\n", workload, n, seconds)
	fmt.Fprintf(&tbl, "  %-18s %-6s %12s %12s %12s %8s %7s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		xs := values[m.Name]
		if len(xs) == 0 {
			fmt.Fprintf(&tbl, "  %-18s missing from the runs\n", m.Name)
			continue
		}
		q1, med, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict := "steady (spread < bound/3)"
		switch {
		case m.Name == "setup_s":
			verdict = "spread not judged, only the median"
		case spread > m.Bound:
			verdict = "UNSTEADY (spread > bound)"
		case spread > m.Bound/3:
			verdict = "within bound, above bound/3"
		}
		fmt.Fprintf(&tbl, "  %-18s %-6s %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s\n", m.Name, m.Unit, med, q1, q3, 100*spread, 100*m.Bound, verdict)
	}
	_, err = stdout.Write(tbl.Bytes())
	return err
}
