package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scidata/errprop/internal/gateway"
	"github.com/scidata/errprop/internal/serve"
)

// servOp is one request of a serving workload's seeded pool, with the
// outputs the in-process reference computed for it.
type servOp struct {
	body    []byte
	digest  uint64
	samples int
	want    [][]float64 // one row of outputs per sample
}

// servingWL is one HTTP serving workload.
type servingWL struct {
	name       string
	model      string
	path       string // request path and query
	ctype      string
	ops        []servOp
	argv       []string // errpropd flags besides -addr and -portfile
	gateway    bool     // argv boots a gateway over spawned backends
	maxBatch   int      // the backends' micro-batch limit
	quantBound float64  // the model's analysed quantization bound; every response must carry it
	// host serves the same model in-process with the same configuration,
	// each module's public Handler wrapped by the tracer.
	host func(tr *tracer) (*hosted, error)
	// replay times single layers by calling the modules directly, at the
	// served mean batch; see layerReplays.
	replay func(e *env, batch int) (*layerReplays, error)
}

// layerReplays holds the per-operation costs a serving workload's
// replays measured.
type layerReplays struct {
	jsonDecodeUS float64 // encoding/json decode of one request body
	jsonEncodeUS float64 // encoding/json encode of one response
	blobDecodeMS float64 // compress.Decode of one request blob
	blobMBps     float64
	blobRatio    float64
	forwardMS    float64 // Engine.Forward at the served batch
	forwardBatch int
	metrics      map[string]Metric // model-loading replays and the like
}

// clientConns is how many closed-loop clients and connections drive a
// serving workload: one per core, at most two.
func clientConns() int { return max(1, min(2, runtime.NumCPU())) }

func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// outcome is one request of a closed loop.
type outcome struct {
	op     int
	at     time.Duration // completion, since the loop started
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// send posts one pool request and reads the whole response.
func (wl *servingWL) send(c *http.Client, url string, op *servOp) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(op.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", wl.ctype)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// closedLoop runs one client per entry of clients against url for dur.
// Each client sends its next request only when the previous one has
// completed; requests walk the pool in order from the shared counter.
// While tr is recording, every request is also an "op" span.
func (wl *servingWL) closedLoop(clients []*http.Client, url string, start time.Time, dur time.Duration, tr *tracer, next *atomic.Int64) []outcome {
	end := start.Add(dur)
	return wl.loopUntil(clients, url, start, func() bool { return !time.Now().Before(end) }, tr, next)
}

// loopUntil is closedLoop with a stop condition: each client stops
// sending once done reports true.
func (wl *servingWL) loopUntil(clients []*http.Client, url string, start time.Time, done func() bool, tr *tracer, next *atomic.Int64) []outcome {
	per := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			outs := make([]outcome, 0, 4096)
			for !done() {
				k := int(next.Add(1)-1) % len(wl.ops)
				op := &wl.ops[k]
				var t0 int64
				if tr != nil {
					t0 = tr.now()
				}
				s := time.Now()
				status, body, err := wl.send(c, url, op)
				done := time.Now()
				if tr != nil && tr.on.Load() {
					tr.record(span{Name: "op", Start: t0, End: tr.now(), digest: op.digest})
				}
				outs = append(outs, outcome{op: k, at: done.Sub(start), lat: done.Sub(s), status: status, body: body, err: err})
			}
			per[i] = outs
		}(i, c)
	}
	wg.Wait()
	var all []outcome
	for _, o := range per {
		all = append(all, o...)
	}
	return all
}

// judge classifies one outcome into t and reports whether it was a
// correct answer. A 200 is correct only if every output is bit-exact
// with the reference and the reported quantization bound equals the
// analysed one.
func (e *env) judge(wl *servingWL, o outcome, t *tally) bool {
	t.attempted++
	switch {
	case o.err != nil:
		t.failed++
		return false
	case o.status == http.StatusServiceUnavailable:
		t.refused++
		return false
	case o.status != http.StatusOK:
		t.failed++
		return false
	}
	body := o.body
	if e.hooks.corruptResponse != nil {
		body = e.hooks.corruptResponse(body)
	}
	op := &wl.ops[o.op]
	if !checkPredict(body, op, wl.model, wl.quantBound) {
		t.wrong++
		return false
	}
	t.samples += int64(op.samples)
	return true
}

func checkPredict(body []byte, op *servOp, model string, quantBound float64) bool {
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	if resp.Model != model || resp.Samples != op.samples || len(resp.Outputs) != len(op.want) ||
		resp.Bound == nil || resp.Bound.QuantBound != quantBound {
		return false
	}
	for i, row := range op.want {
		if len(resp.Outputs[i]) != len(row) {
			return false
		}
		for j, v := range row {
			if math.Float64bits(resp.Outputs[i][j]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// loadStats summarizes one measured closed-loop run, cut into windows.
type loadStats struct {
	tally
	win           time.Duration
	windowSamples []int64     // correct samples completed in each full window
	windowLat     [][]float64 // latencies (ms) of the correct requests completed in each full window
	all           []float64   // every correct request's latency (ms)
	respBytes     float64     // mean response body size
}

// statWindow is the length of the windows a measured run is cut into:
// one second, or a tenth of a shorter run.
func statWindow(elapsed time.Duration) time.Duration {
	if elapsed >= 10*time.Second {
		return time.Second
	}
	return max(elapsed/10, 100*time.Millisecond)
}

// summarize judges every outcome and sorts the correct ones into the
// run's full windows.
func (e *env) summarize(wl *servingWL, outs []outcome, elapsed time.Duration) loadStats {
	win := statWindow(elapsed)
	return e.summarizeWindows(wl, outs, win, max(1, int(elapsed/win)))
}

// summarizeWindows is summarize over nwin windows of length win.
func (e *env) summarizeWindows(wl *servingWL, outs []outcome, win time.Duration, nwin int) loadStats {
	st := loadStats{win: win}
	st.windowLat = make([][]float64, nwin)
	st.windowSamples = make([]int64, nwin)
	var bytesSum float64
	for _, o := range outs {
		if !e.judge(wl, o, &st.tally) {
			continue
		}
		l := ms(o.lat)
		st.all = append(st.all, l)
		bytesSum += float64(len(o.body))
		if w := int(o.at / st.win); w < nwin {
			st.windowLat[w] = append(st.windowLat[w], l)
			st.windowSamples[w] += int64(wl.ops[o.op].samples)
		}
	}
	if len(st.all) > 0 {
		st.respBytes = bytesSum / float64(len(st.all))
	}
	return st
}

func (st loadStats) allWindows() []int {
	sel := make([]int, len(st.windowSamples))
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// windowMedians returns, over the selected windows, the median window
// rate (samples per second), the medians of the per-window latency p50s
// and p90s, and, when cpu holds the serving processes' CPU time at each
// window start, the median CPU per sample. Medians over windows keep a
// burst of interference from other tenants of the machine from moving
// the result.
func (st loadStats) windowMedians(sel []int, cpu []time.Duration) (rate, p50, p90, cpuPerSample float64) {
	var rates, p50s, p90s, cpus []float64
	for _, w := range sel {
		rates = append(rates, float64(st.windowSamples[w])/st.win.Seconds())
		if ls := st.windowLat[w]; len(ls) >= 20 {
			p50s = append(p50s, median(ls))
			p90s = append(p90s, quantile(ls, 0.9))
		}
		if w+1 < len(cpu) && st.windowSamples[w] > 0 {
			cpus = append(cpus, float64((cpu[w+1]-cpu[w]).Microseconds())/float64(st.windowSamples[w]))
		}
	}
	if len(p50s) == 0 {
		p50s, p90s = []float64{median(st.all)}, []float64{quantile(st.all, 0.9)}
	}
	return median(rates), median(p50s), median(p90s), median(cpus)
}

// rate is the median window rate over the whole run.
func (st loadStats) rate() float64 {
	r, _, _, _ := st.windowMedians(st.allWindows(), nil)
	return r
}

// windowReading is one sample taken at a window boundary: the serving
// processes' CPU time and the machine's CPU accounting.
type windowReading struct {
	cpu     time.Duration
	machine cpuTimes
}

// measureCalm runs the closed loop from now on, cut into windows of
// win, until need windows were calm (see calmSteal) or need windows
// plus e.size.calmWait have passed. At every window boundary it reads
// the summed CPU time of pids and the machine's /proc/stat. It returns
// every outcome, with times since the first boundary, and the readings.
func (e *env) measureCalm(wl *servingWL, clients []*http.Client, url string, pids []int, win time.Duration, need int, next *atomic.Int64) ([]outcome, []windowReading) {
	var stop atomic.Bool
	var readings []windowReading
	start := time.Now()
	limit := start.Add(time.Duration(need)*win + e.size.calmWait)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer stop.Store(true)
		calm := 0
		for k := 0; ; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * win)))
			c, err := cpuOf(pids)
			if err != nil {
				return // a process is gone; the windows read so far still count
			}
			readings = append(readings, windowReading{cpu: c, machine: readCPUTimes()})
			if k > 0 && stealBetween(readings[k-1].machine, readings[k].machine) <= calmSteal {
				calm++
			}
			if calm >= need || !time.Now().Before(limit) {
				return
			}
		}
	}()
	outs := wl.loopUntil(clients, url, start, stop.Load, nil, next)
	<-done
	return outs, readings
}

// windowSteal returns each window's steal share from boundary readings.
func windowSteal(readings []windowReading) []float64 {
	var out []float64
	for k := 0; k+1 < len(readings); k++ {
		out = append(out, stealBetween(readings[k].machine, readings[k+1].machine))
	}
	return out
}

// bootTimes is one cold boot of a serving workload.
type bootTimes struct {
	setup      time.Duration // exec to the first answer, through the gateway when there is one
	serveBoot  time.Duration // exec to the (first) serving process's portfile
	serveReady time.Duration // serving portfile to ready: /healthz for a gateway backend, first 200 when direct
	gwReady    time.Duration // gateway portfile to gateway /healthz ready
	steal      float64       // share of machine CPU time the hypervisor stole during the boot
}

type readyBody struct {
	Ready bool `json:"ready"`
}

// boot starts errpropd and waits, polling every millisecond, until it
// answers a pool request. The probe requests are operations like any
// other: their outcomes go into t.
func (e *env) boot(wl *servingWL, t *tally) (*daemon, bootTimes, error) {
	ct0 := readCPUTimes()
	d, err := e.startDaemon("boot", wl.argv)
	if err != nil {
		return nil, bootTimes{}, err
	}
	bt, err := e.awaitBoot(wl, d, t)
	if err != nil {
		_ = d.stop()
		return nil, bootTimes{}, err
	}
	bt.steal = stealSince(ct0)
	return d, bt, nil
}

func (e *env) awaitBoot(wl *servingWL, d *daemon, t *tally) (bootTimes, error) {
	var bt bootTimes
	probe := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(60 * time.Second)
	waitFor := func(what string, check func() (bool, error)) (time.Time, error) {
		for {
			ok, err := check()
			if err != nil {
				return time.Time{}, err
			}
			if ok {
				return time.Now(), nil
			}
			if d.exited() {
				return time.Time{}, fmt.Errorf("errpropd exited while waiting for %s:\n%s", what, d.logTail())
			}
			if time.Now().After(deadline) {
				return time.Time{}, fmt.Errorf("errpropd: no %s within 60s:\n%s", what, d.logTail())
			}
			time.Sleep(time.Millisecond)
		}
	}
	readPort := func(path string, dst *string) func() (bool, error) {
		return func() (bool, error) {
			raw, err := os.ReadFile(path)
			if err != nil || len(raw) == 0 {
				return false, nil
			}
			*dst = string(raw)
			return true, nil
		}
	}
	healthy := func(addr *string) func() (bool, error) {
		return func() (bool, error) {
			resp, err := probe.Get("http://" + *addr + "/healthz")
			if err != nil {
				return false, nil
			}
			var h readyBody
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			return err == nil && h.Ready, nil
		}
	}
	answered := func() (bool, error) {
		url := "http://" + d.addr + wl.path
		s := time.Now()
		status, body, err := wl.send(probe, url, &wl.ops[0])
		if err != nil || status == http.StatusServiceUnavailable {
			return false, nil // not listening or not routable yet
		}
		// The server is up once it answers; a wrong answer counts as one.
		e.judge(wl, outcome{op: 0, lat: time.Since(s), status: status, body: body}, t)
		return true, nil
	}

	var portAt time.Time
	if wl.gateway {
		var backendAddr string
		glob := filepath.Join(d.dir, "tmp", "errpropd-gw-*", "backend-0.port")
		b0, err := waitFor("backend portfile", func() (bool, error) {
			m, _ := filepath.Glob(glob)
			if len(m) == 0 {
				return false, nil
			}
			return readPort(m[0], &backendAddr)()
		})
		if err != nil {
			return bt, err
		}
		b0ready, err := waitFor("backend readiness", healthy(&backendAddr))
		if err != nil {
			return bt, err
		}
		bt.serveBoot = b0.Sub(d.started)
		bt.serveReady = b0ready.Sub(b0)
		if portAt, err = waitFor("gateway portfile", readPort(d.portfile, &d.addr)); err != nil {
			return bt, err
		}
		gwReady, err := waitFor("gateway readiness", healthy(&d.addr))
		if err != nil {
			return bt, err
		}
		bt.gwReady = gwReady.Sub(portAt)
	} else {
		var err error
		if portAt, err = waitFor("portfile", readPort(d.portfile, &d.addr)); err != nil {
			return bt, err
		}
		bt.serveBoot = portAt.Sub(d.started)
	}
	ok, err := waitFor("first answer", answered)
	if err != nil {
		return bt, err
	}
	bt.setup = ok.Sub(d.started)
	if !wl.gateway {
		bt.serveReady = ok.Sub(portAt)
	}
	return bt, nil
}

// bootSeries boots the workload e.size.boots times, stopping every
// instance but the last, which it returns for the load phase.
func (e *env) bootSeries(wl *servingWL, t *tally) (*daemon, []bootTimes, error) {
	var boots []bootTimes
	for i := 0; i < e.size.boots; i++ {
		d, bt, err := e.boot(wl, t)
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, bt)
		if i == e.size.boots-1 {
			return d, boots, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, fmt.Errorf("no boots configured")
}

// bootMedian is the median, in seconds, of one boot phase over the calm
// boots (see calmSteal), or over the calmer half of them when fewer
// than half were calm.
func bootMedian(boots []bootTimes, f func(bootTimes) time.Duration) float64 {
	steal := make([]float64, len(boots))
	for i, b := range boots {
		steal[i] = b.steal
	}
	sel, _ := pickCalm(steal, func(sel []int) bool { return len(sel) >= (len(boots)+1)/2 })
	var xs []float64
	for _, i := range sel {
		xs = append(xs, f(boots[i]).Seconds())
	}
	return median(xs)
}

// timedServing is the end-to-end run of a serving workload: one boot,
// a warm-up, and the measured closed loop over calm windows; then
// several cold boots for setup_s, after the loop so that they, too, come
// after any wait for a calm machine.
func (e *env) timedServing(wl *servingWL) (*Report, error) {
	var t tally
	d, _, err := e.boot(wl, &t)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	url := "http://" + d.addr + wl.path
	clients := newClients(clientConns())
	defer closeClients(clients)
	var next atomic.Int64
	for _, o := range wl.closedLoop(clients, url, time.Now(), e.size.warmup, nil, &next) {
		e.judge(wl, o, &t)
	}
	pids := d.pids()
	win := statWindow(e.seconds)
	need := max(1, int(e.seconds/win))
	start := time.Now()
	outs, readings := e.measureCalm(wl, clients, url, pids, win, need, &next)
	elapsed := time.Since(start)
	rss, err := peakRSSOf(pids)
	if err != nil {
		return nil, err
	}
	closeClients(clients)
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	st := e.summarizeWindows(wl, outs, win, max(1, len(readings)-1))
	t.add(st.tally)
	steal := windowSteal(readings)
	sel, calmEnough := pickCalm(steal, func(sel []int) bool { return len(sel) >= need })
	cpu := make([]time.Duration, len(readings))
	for i, r := range readings {
		cpu[i] = r.cpu
	}
	rate, p50, p90, cpuPerSample := st.windowMedians(sel, cpu)
	e.logf("window: %d requests over %d connections in %.2fs, %d correct samples, %d refused, %d failed, %d wrong; error_ratio %.6f",
		st.attempted, len(clients), elapsed.Seconds(), st.samples, st.refused, st.failed, st.wrong, 1-st.okRatio())
	e.logf("samples per %s window: %d", st.win, st.windowSamples)
	e.logCalm("window", steal, sel, calmEnough)

	last, boots, err := e.bootSeries(wl, &t)
	if err != nil {
		return nil, err
	}
	if err := last.stop(); err != nil {
		return nil, err
	}
	setups := make([]time.Duration, len(boots))
	bootSteal := make([]float64, len(boots))
	for i, b := range boots {
		setups[i], bootSteal[i] = b.setup, b.steal
	}
	e.logf("setup: %d cold boots, exec to first 200 (ms): %.1f, with hypervisor steal (%%): %.1f; setup_s is the median over the calm ones",
		len(boots), durationsMS(setups), scale(bootSteal, 100))
	return t.report(map[string]Metric{
		"setup_s":           {bootMedian(boots, func(b bootTimes) time.Duration { return b.setup }), "s"},
		"samples_per_s":     {rate, "1/s"},
		"latency_p50_ms":    {p50, "ms"},
		"latency_p90_ms":    {p90, "ms"},
		"cpu_us_per_sample": {cpuPerSample, "us"},
		"peak_rss_mb":       {rss, "MB"},
		"ok_ratio":          {st.okRatio(), "ratio"},
	}), nil
}

// hosted is a serving workload run in-process for the traced run.
type hosted struct {
	url   string // client entry point, path and query included
	close func()
}

// listenAndServe serves h on a fresh loopback port with the same
// http.Server settings errpropd uses.
func listenAndServe(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
		close(done)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a drain that overruns is closed by the deadline; nothing to report
		<-done
	}
	return ln.Addr().String(), stop, nil
}

// scrape GETs a /metrics body into dst.
func scrape(addr string, dst any) error {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(dst)
}

// fleetCounters is the serving-side counter state the traced run
// differences across its measured window.
type fleetCounters struct {
	serve    []serve.Snapshot
	gateway  gateway.Snapshot
	backends []string
}

func scrapeFleet(wl *servingWL, d *daemon, backends []string) (fleetCounters, error) {
	var fc fleetCounters
	if wl.gateway {
		if err := scrape(d.addr, &fc.gateway); err != nil {
			return fc, err
		}
		if backends == nil {
			for _, b := range fc.gateway.Backends {
				backends = append(backends, b.Addr)
			}
		}
	} else {
		backends = []string{d.addr}
	}
	fc.backends = backends
	for _, addr := range backends {
		var s serve.Snapshot
		if err := scrape(addr, &s); err != nil {
			return fc, err
		}
		fc.serve = append(fc.serve, s)
	}
	return fc, nil
}

// tracedServing is the per-layer run of a serving workload, in three
// parts. (A) The errpropd processes are booted and loaded as in the
// timed run, untraced, to read boot phases, per-process CPU and the
// servers' own /metrics counters. (B) The same modules are hosted
// in-process with the same configuration and each public Handler is
// wrapped in the benchmark's middleware; one half of the window runs
// with recording off and one with it on, which prices the tracing.
// (C) Single layers are replayed by calling the modules directly.
func (e *env) tracedServing(wl *servingWL) (*Report, error) {
	var t tally
	m := map[string]Metric{}
	half := e.seconds / 2

	// (A) processes, untraced.
	d, boots, err := e.bootSeries(wl, &t)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	url := "http://" + d.addr + wl.path
	clients := newClients(clientConns())
	var next atomic.Int64
	for _, o := range wl.closedLoop(clients, url, time.Now(), e.size.warmup, nil, &next) {
		e.judge(wl, o, &t)
	}
	mainPID := d.cmd.Process.Pid
	children := childPIDs(mainPID)
	before, err := scrapeFleet(wl, d, nil)
	if err != nil {
		return nil, err
	}
	mainCPU0, err := procCPU(mainPID)
	if err != nil {
		return nil, err
	}
	childCPU0, err := cpuOf(children)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	outs := wl.closedLoop(clients, url, start, half, nil, &next)
	elapsed := time.Since(start)
	self1 := selfCPU()
	mainCPU1, err := procCPU(mainPID)
	if err != nil {
		return nil, err
	}
	childCPU1, err := cpuOf(children)
	if err != nil {
		return nil, err
	}
	after, err := scrapeFleet(wl, d, before.backends)
	if err != nil {
		return nil, err
	}
	closeClients(clients)
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	procStats := e.summarize(wl, outs, elapsed)
	t.add(procStats.tally)
	perSample := func(c time.Duration) float64 {
		if procStats.samples == 0 {
			return 0
		}
		return float64(c.Microseconds()) / float64(procStats.samples)
	}
	serveCPU, gwCPU := mainCPU1-mainCPU0, time.Duration(0)
	if wl.gateway {
		serveCPU, gwCPU = childCPU1-childCPU0, mainCPU1-mainCPU0
	}
	var batches, execSamples, requests, rejected int64
	for i := range after.serve {
		batches += after.serve[i].Batches - before.serve[i].Batches
		execSamples += after.serve[i].Samples - before.serve[i].Samples
		requests += after.serve[i].Requests - before.serve[i].Requests
		rejected += after.serve[i].Rejected - before.serve[i].Rejected + after.serve[i].TimedOut - before.serve[i].TimedOut
	}
	batchMean := 0.0
	if batches > 0 {
		batchMean = float64(execSamples) / float64(batches)
	}
	rejectedRatio := 0.0
	if requests > 0 {
		rejectedRatio = float64(rejected) / float64(requests)
	}
	m["serve.batch_size_mean"] = Metric{batchMean, "count"}
	m["serve.batch_fill_ratio"] = Metric{batchMean / float64(wl.maxBatch), "ratio"}
	m["serve.rejected_ratio"] = Metric{rejectedRatio, "ratio"}
	m["serve.cpu_us_per_sample"] = Metric{perSample(serveCPU), "us"}
	m["serve.boot_s"] = Metric{bootMedian(boots, func(b bootTimes) time.Duration { return b.serveBoot }), "s"}
	m["serve.ready_s"] = Metric{bootMedian(boots, func(b bootTimes) time.Duration { return b.serveReady }), "s"}
	m["gateway.cpu_us_per_sample"] = Metric{perSample(gwCPU), "us"}
	m["gateway.ready_s"] = Metric{0, "s"}
	m["gateway.attempts_per_ok"] = Metric{0, "ratio"}
	m["gateway.busiest_backend_share"] = Metric{0, "ratio"}
	if wl.gateway {
		m["gateway.ready_s"] = Metric{bootMedian(boots, func(b bootTimes) time.Duration { return b.gwReady }), "s"}
		var total, busiest int64
		for i, b := range after.gateway.Backends {
			if i >= len(before.gateway.Backends) {
				break
			}
			n := b.Requests - before.gateway.Backends[i].Requests
			total += n
			busiest = max(busiest, n)
		}
		if ok := after.gateway.OK - before.gateway.OK; ok > 0 {
			m["gateway.attempts_per_ok"] = Metric{float64(total) / float64(ok), "ratio"}
		}
		if total > 0 {
			m["gateway.busiest_backend_share"] = Metric{float64(busiest) / float64(total), "ratio"}
		}
	}
	m["loadgen.cpu_us_per_sample"] = Metric{perSample(self1 - self0), "us"}
	m["wire.response_bytes"] = Metric{procStats.respBytes, "bytes"}
	var reqBytes float64
	for _, op := range wl.ops {
		reqBytes += float64(len(op.body))
	}
	m["wire.request_bytes"] = Metric{reqBytes / float64(len(wl.ops)), "bytes"}
	e.logf("processes: %.0f samples/s untraced, mean served batch %.2f, serve CPU %.1f us/sample, gateway CPU %.1f us/sample",
		procStats.rate(), batchMean, perSample(serveCPU), perSample(gwCPU))

	// (B) in-process, untraced then traced.
	tr := newTracer()
	h, err := wl.host(tr)
	if err != nil {
		return nil, err
	}
	clients = newClients(clientConns())
	for _, o := range wl.closedLoop(clients, h.url, time.Now(), e.size.warmup, tr, &next) {
		e.judge(wl, o, &t)
	}
	quarter := e.seconds / 4
	s0 := time.Now()
	plain := e.summarize(wl, wl.closedLoop(clients, h.url, time.Now(), quarter, tr, &next), time.Since(s0))
	tr.on.Store(true)
	s1 := time.Now()
	traced := e.summarize(wl, wl.closedLoop(clients, h.url, time.Now(), quarter, tr, &next), time.Since(s1))
	tr.on.Store(false)
	closeClients(clients)
	h.close()
	t.add(plain.tally)
	t.add(traced.tally)
	overhead := 0.0
	if traced.rate() > 0 {
		overhead = plain.rate()/traced.rate() - 1
	}
	m["trace.overhead_ratio"] = Metric{overhead, "ratio"}

	trees := tr.assemble()
	if len(trees) == 0 {
		return nil, fmt.Errorf("traced run matched no request spans")
	}
	var opMS, transportMS, gwMS, gwSelfMS, serveMS, serveTotalMS []float64
	for _, tree := range trees {
		opMS = append(opMS, ms(tree.op.dur()))
		outer := tree.serve
		if tree.gateway != nil {
			outer = []span{*tree.gateway}
			gwMS = append(gwMS, ms(tree.gateway.dur()))
			gwSelfMS = append(gwSelfMS, ms(selfTime(*tree.gateway, tree.serve)))
		}
		transportMS = append(transportMS, ms(selfTime(tree.op, outer)))
		var total time.Duration
		for _, s := range tree.serve {
			serveMS = append(serveMS, ms(s.dur()))
			total += s.dur()
		}
		serveTotalMS = append(serveTotalMS, ms(total))
	}
	m["serve.handler_ms"] = Metric{median(serveMS), "ms"}
	m["http.transport_ms"] = Metric{median(transportMS), "ms"}
	m["gateway.handler_ms"] = Metric{median(gwMS), "ms"}
	m["gateway.self_ms"] = Metric{median(gwSelfMS), "ms"}

	// (C) replays.
	rp, err := wl.replay(e, max(1, int(math.Round(batchMean))))
	if err != nil {
		return nil, err
	}
	m["wire.json_decode_us"] = Metric{rp.jsonDecodeUS, "us"}
	m["wire.json_encode_us"] = Metric{rp.jsonEncodeUS, "us"}
	m["compress.decode_ms"] = Metric{rp.blobDecodeMS, "ms"}
	m["compress.decode_mb_per_s"] = Metric{rp.blobMBps, "MB/s"}
	m["compress.ratio"] = Metric{rp.blobRatio, "ratio"}
	m["nn.forward_ms"] = Metric{rp.forwardMS, "ms"}
	m["nn.forward_us_per_sample"] = Metric{1e3 * rp.forwardMS / float64(rp.forwardBatch), "us"}
	for k, v := range rp.metrics {
		m[k] = v
	}
	explained := rp.jsonDecodeUS/1e3 + rp.jsonEncodeUS/1e3 + rp.blobDecodeMS + rp.forwardMS
	m["serve.queue_batch_ms"] = Metric{median(serveMS) - explained, "ms"}
	remainder := mean(serveTotalMS) - explained
	m["trace.unexplained_ms"] = Metric{remainder, "ms"}
	path, err := e.writeSpans(wl.name, tr)
	if err != nil {
		return nil, err
	}
	e.logf("traced: %d of %d operations matched to handler spans; spans written to %s", len(trees), traced.attempted, path)
	e.logf("tracing overhead: %.0f samples/s untraced vs %.0f traced in-process (%+.1f%%)", plain.rate(), traced.rate(), 100*overhead)
	rows := []layerRow{{"http.transport_ms", "client round trip minus the outermost handler span", mean(transportMS)}}
	if wl.gateway {
		rows = append(rows, layerRow{"gateway.self_ms", "gateway handler span minus the backend spans inside it", mean(gwSelfMS)})
	}
	rows = append(rows,
		layerRow{"wire.json_decode_us", "replay: encoding/json decode of the request body", rp.jsonDecodeUS / 1e3},
		layerRow{"compress.decode_ms", "replay: compress.Decode of the request blob", rp.blobDecodeMS},
		layerRow{"nn.forward_ms", fmt.Sprintf("replay: Engine.Forward at the served mean batch %d", rp.forwardBatch), rp.forwardMS},
		layerRow{"wire.json_encode_us", "replay: encoding/json encode of the response", rp.jsonEncodeUS / 1e3},
	)
	e.printSelfTimes(mean(opMS), rows, remainder)
	e.logf("  (the remainder is the backend handler time the replays do not cover: queue wait, batch assembly and handler bookkeeping; serve.queue_batch_ms is its p50 form)")
	return t.report(completeLayers(m)), nil
}
