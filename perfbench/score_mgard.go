package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/scidata/errprop/internal/artifact"
	"github.com/scidata/errprop/internal/compress"
	"github.com/scidata/errprop/internal/dataset"
	"github.com/scidata/errprop/internal/integrity"
	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/score"
	"github.com/scidata/errprop/internal/tensor"
)

// mgardTol is the absolute L-infinity tolerance the scoring dataset is
// stored at.
const mgardTol = 1e-4

// scoreBatch is the forward batch bulk scoring runs at (score.Config's
// default).
const scoreBatch = 256

// score-mgard: bulk scoring of a seeded H2-surrogate dataset stored as
// MGARD chunks, through score.ScoreArtifactFile with the default worker
// count, with a 9-64-64-9 tanh PSN MLP at fp16 loaded from an .aot
// artifact. There is no HTTP, and codec decode is about half the work:
// the paper's Fig. 1 split of a QoI tolerance between the decompression
// and the execution phase is this workload's traffic shape. Chunks come
// from the page cache, so score.read_ms is a memory copy, not a storage
// measurement.
func runScoreMGARD(e *env, trace bool) (*Report, error) {
	fx, err := e.scoreFixture()
	if err != nil {
		return nil, err
	}
	if trace {
		return e.tracedScore(fx)
	}
	return e.timedScore(fx)
}

// scoreFixture is the dataset, the artifact and the single-worker
// reference every job is checked against.
type scoreFixture struct {
	dir       string
	manifest  string
	aot       string
	man       *score.Manifest
	refChunks [][]byte // JSON of each reference ChunkResult, in commit order
	refAgg    []byte   // JSON of the reference aggregate
	samples   int64
}

func (e *env) scoreFixture() (*scoreFixture, error) {
	fx := &scoreFixture{dir: filepath.Join(e.work, "dataset")}
	ds := dataset.H2Combustion(e.size.scoreGrid, int64(e.seed))
	man, err := score.WriteDataset(fx.dir, ds.FieldData(), ds.InDim, score.DatasetConfig{
		Codec: "mgard", Mode: compress.AbsLinf, Tol: mgardTol, ChunkSamples: e.size.scoreChunk,
	})
	if err != nil {
		return nil, err
	}
	fx.man = man
	fx.manifest = filepath.Join(fx.dir, score.ManifestName)
	raw, err := os.ReadFile(fx.manifest)
	if err != nil {
		return nil, err
	}
	// The manifest pins every chunk's size and checksum, so its digest
	// covers the whole dataset.
	e.recordDigest("dataset.manifest", raw)
	net, err := nn.MLPSpec("score", []int{9, 64, 64, 9}, nn.ActTanh, true).Build(int64(e.seed))
	if err != nil {
		return nil, err
	}
	aot, art, err := e.compileArtifact("score", net)
	if err != nil {
		return nil, err
	}
	fx.aot = aot
	ref, err := score.ScoreArtifact(art, man, score.Config{Workers: 1, Dir: fx.dir})
	if err != nil {
		return nil, fmt.Errorf("single-worker reference: %w", err)
	}
	for i := range ref.Chunks {
		b, err := json.Marshal(&ref.Chunks[i])
		if err != nil {
			return nil, err
		}
		fx.refChunks = append(fx.refChunks, b)
	}
	if fx.refAgg, err = json.Marshal(ref.Agg); err != nil {
		return nil, err
	}
	fx.samples = ref.Agg.Samples
	e.logf("dataset: %d samples x %d features in %d MGARD chunks, %.1fx compression", fx.samples, man.Features, len(man.Chunks),
		float64(ref.Agg.RawBytes)/float64(ref.Agg.StoredBytes))
	return fx, nil
}

// job is one scoring job: read the artifact, score the whole dataset.
type job struct {
	wall    time.Duration
	first   time.Duration   // job start to the first committed chunk
	commits []time.Duration // every commit, since job start
	cpu     time.Duration
	rss     int64   // peak RSS of the process during the job
	steal   float64 // share of machine CPU time the hypervisor stole during the job
	chunks  []score.ChunkResult
	agg     []byte
	err     error
}

func (e *env) runJob(fx *scoreFixture) job {
	j := job{chunks: make([]score.ChunkResult, 0, len(fx.man.Chunks)), commits: make([]time.Duration, 0, len(fx.man.Chunks))}
	_ = resetSelfPeakRSS() // timedScore has checked that the kernel supports it
	ct0 := readCPUTimes()
	cpu0 := selfCPU()
	start := time.Now()
	art, err := artifact.ReadFile(fx.aot)
	if err != nil {
		j.err = err
		return j
	}
	res, err := score.ScoreArtifactFile(art, fx.manifest, score.Config{
		DiscardChunkResults: true,
		OnChunk: func(cr *score.ChunkResult) error {
			j.commits = append(j.commits, time.Since(start))
			j.chunks = append(j.chunks, *cr)
			return nil
		},
	})
	j.wall = time.Since(start)
	j.cpu = selfCPU() - cpu0
	j.rss, _ = peakRSS(os.Getpid()) // /proc/self/status is always readable
	j.steal = stealSince(ct0)
	if err != nil {
		j.err = err
		return j
	}
	if len(j.commits) > 0 {
		j.first = j.commits[0]
	}
	j.agg, j.err = json.Marshal(res.Agg)
	return j
}

// judgeJob counts one job into t: every chunk result and the aggregate
// must equal the single-worker reference bit for bit.
func (e *env) judgeJob(fx *scoreFixture, j *job, t *tally) bool {
	t.attempted++
	if j.err != nil {
		t.failed++
		return false
	}
	ok := len(j.chunks) == len(fx.refChunks) && bytes.Equal(j.agg, fx.refAgg)
	for i := range j.chunks {
		if !ok {
			break
		}
		cr := &j.chunks[i]
		if e.hooks.corruptChunk != nil {
			e.hooks.corruptChunk(cr.Index, cr.Sum)
		}
		b, err := json.Marshal(cr)
		ok = err == nil && bytes.Equal(b, fx.refChunks[i])
	}
	if !ok {
		t.wrong++
		return false
	}
	t.samples += fx.samples
	return true
}

// jobStats summarizes the correct jobs of a series.
type jobStats struct {
	walls, firsts []time.Duration
	cpuPerSample  []float64 // us, per job
	rssMB         []float64 // per job
	steal         []float64 // per job
	wall          time.Duration
	samples       int64
	commitGaps    []float64 // ms between consecutive commits
}

// jobSeries runs jobs until dur has passed and at least minJobs ran.
func (e *env) jobSeries(fx *scoreFixture, dur time.Duration, minJobs int, t *tally, tr *tracer) jobStats {
	return e.jobsUntil(fx, func(_ *jobStats, ran int, elapsed time.Duration) bool {
		return ran >= minJobs && elapsed >= dur
	}, t, tr)
}

// jobsUntil runs jobs until done, asked after each job with the correct
// jobs so far, the number of jobs run and the time since the first
// started, reports true.
func (e *env) jobsUntil(fx *scoreFixture, done func(st *jobStats, ran int, elapsed time.Duration) bool, t *tally, tr *tracer) jobStats {
	var st jobStats
	start := time.Now()
	for n := 1; n == 1 || !done(&st, n-1, time.Since(start)); n++ {
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		j := e.runJob(fx)
		if tr != nil {
			id := int64(n)
			tr.record(span{Op: id, Name: "op", Start: t0, End: t0 + int64(j.wall)})
			for _, c := range j.commits {
				tr.record(span{Op: id, Name: "score.commit", Parent: "op", Start: t0 + int64(c), End: t0 + int64(c)})
			}
		}
		if !e.judgeJob(fx, &j, t) {
			continue
		}
		st.walls = append(st.walls, j.wall)
		st.firsts = append(st.firsts, j.first)
		st.cpuPerSample = append(st.cpuPerSample, float64(j.cpu.Microseconds())/float64(fx.samples))
		st.rssMB = append(st.rssMB, float64(j.rss)/(1<<20))
		st.steal = append(st.steal, j.steal)
		st.wall += j.wall
		st.samples += fx.samples
		for i := 1; i < len(j.commits); i++ {
			st.commitGaps = append(st.commitGaps, ms(j.commits[i]-j.commits[i-1]))
		}
	}
	return st
}

func (st jobStats) samplesPerSec() float64 {
	if st.wall <= 0 {
		return 0
	}
	return float64(st.samples) / st.wall.Seconds()
}

// timedScore is the end-to-end run of score-mgard: one warm-up job, then
// jobs back to back until the calm ones (see calmSteal) fill the
// measured window. Each metric is taken over those calm jobs, or over
// the calmest ones if the machine never calmed down: setup_s is the
// median time from job start to the first committed chunk,
// samples_per_s the median of dataset samples over job wall time,
// latency the median and p90 of job wall time, cpu_us_per_sample and
// peak_rss_mb the medians of each job's own CPU and peak RSS.
func (e *env) timedScore(fx *scoreFixture) (*Report, error) {
	var t tally
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetSelfPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	warm := e.runJob(fx)
	e.judgeJob(fx, &warm, &t)
	// Enough jobs: at least minJobs, together at least the window long.
	enough := func(walls []time.Duration, sel []int) bool {
		var sum time.Duration
		for _, i := range sel {
			sum += walls[i]
		}
		return len(sel) >= e.size.minJobs && sum >= e.seconds
	}
	st := e.jobsUntil(fx, func(st *jobStats, ran int, elapsed time.Duration) bool {
		_, calmEnough := pickCalm(st.steal, func(sel []int) bool { return enough(st.walls, sel) })
		return calmEnough || (ran >= e.size.minJobs && elapsed >= e.seconds+e.size.calmWait)
	}, &t, nil)
	calm, calmEnough := pickCalm(st.steal, func(sel []int) bool { return enough(st.walls, sel) })
	e.logf("window: %d jobs of %d samples, %d wrong, %d failed; error_ratio %.6f", t.attempted-1, fx.samples, t.wrong, t.failed, 1-t.okRatio())
	e.logf("job wall times (ms): %.0f", durationsMS(st.walls))
	e.logCalm("job", st.steal, calm, calmEnough)
	pick := func(xs []float64) []float64 {
		out := make([]float64, 0, len(calm))
		for _, i := range calm {
			out = append(out, xs[i])
		}
		return out
	}
	walls := pick(durationsMS(st.walls))
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(fx.samples) / (w / 1e3)
	}
	return t.report(map[string]Metric{
		"setup_s":           {median(pick(durationsS(st.firsts))), "s"},
		"samples_per_s":     {median(rates), "1/s"},
		"latency_p50_ms":    {median(walls), "ms"},
		"latency_p90_ms":    {quantile(walls, 0.9), "ms"},
		"cpu_us_per_sample": {median(pick(st.cpuPerSample)), "us"},
		"peak_rss_mb":       {median(pick(st.rssMB)), "MB"},
		"ok_ratio":          {t.okRatio(), "ratio"},
	}), nil
}

// tracedScore is the per-layer run of score-mgard: half the window of
// plain jobs and half of traced ones (job spans and commit events), then
// a single-goroutine replay of every chunk's stages.
func (e *env) tracedScore(fx *scoreFixture) (*Report, error) {
	var t tally
	m := map[string]Metric{}
	warm := e.runJob(fx)
	e.judgeJob(fx, &warm, &t)
	plain := e.jobSeries(fx, e.seconds/2, 2, &t, nil)
	tr := newTracer()
	traced := e.jobSeries(fx, e.seconds/2, 2, &t, tr)
	overhead := 0.0
	if traced.samplesPerSec() > 0 {
		overhead = plain.samplesPerSec()/traced.samplesPerSec() - 1
	}
	m["trace.overhead_ratio"] = Metric{overhead, "ratio"}
	m["score.commit_interval_ms"] = Metric{median(traced.commitGaps), "ms"}

	// Replay every chunk's stages on one goroutine.
	art, err := artifact.ReadFile(fx.aot)
	if err != nil {
		return nil, err
	}
	eng, err := art.Program.Bind(art.Net, scoreBatch, 1)
	if err != nil {
		return nil, err
	}
	var reads, verifies, decodes, forwards []float64
	var busy, decodeTotal time.Duration
	var rawBytes, storedBytes float64
	in := tensor.NewMatrix(fx.man.Features, scoreBatch)
	vs := time.Now()
	for i, c := range fx.man.Chunks {
		t0 := time.Now()
		raw, err := os.ReadFile(filepath.Join(fx.dir, c.File))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		// What DecodeChunk adds to compress.Decode is the chunk's size and
		// CRC32C check, microseconds against a decode of tens of
		// milliseconds: the difference of two timings cannot resolve it,
		// so the checksum is timed on its own, over several passes.
		const passes = 16
		for k := 0; k < passes; k++ {
			if integrity.Checksum(raw) != c.Checksum {
				return nil, fmt.Errorf("chunk %s: checksum mismatch", c.File)
			}
		}
		t2 := time.Now()
		data, _, err := compress.Decode(raw)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		forwardChunk(eng, in, data, fx.man.Features, c.Samples)
		t4 := time.Now()
		read, verify, codec, fwd := t1.Sub(t0), t2.Sub(t1)/passes, t3.Sub(t2), t4.Sub(t3)
		reads = append(reads, ms(read))
		verifies = append(verifies, ms(verify))
		decodes = append(decodes, ms(codec))
		forwards = append(forwards, ms(fwd))
		busy += read + verify + codec + fwd
		decodeTotal += codec
		rawBytes += float64(len(data) * 8)
		storedBytes += float64(len(raw))
		at := tr.now()
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"replay.read", read}, {"replay.verify", verify}, {"replay.decode", codec}, {"replay.forward", fwd}} {
			tr.record(span{Op: int64(i), Name: st.name, Start: at, End: at + int64(st.d)})
			at += int64(st.d)
		}
	}
	replayWall := time.Since(vs)
	perBatch := float64(len(fx.man.Chunks)) / float64(batchesIn(fx.man))
	m["score.read_ms"] = Metric{median(reads), "ms"}
	m["score.verify_ms"] = Metric{median(verifies), "ms"}
	m["score.forward_ms"] = Metric{median(forwards), "ms"}
	m["compress.decode_ms"] = Metric{median(decodes), "ms"}
	m["compress.decode_mb_per_s"] = Metric{rawBytes / decodeTotal.Seconds() / 1e6, "MB/s"}
	m["compress.ratio"] = Metric{rawBytes / storedBytes, "ratio"}
	fwdPerBatch := median(forwards) * perBatch
	m["nn.forward_ms"] = Metric{fwdPerBatch, "ms"}
	m["nn.forward_us_per_sample"] = Metric{1e3 * fwdPerBatch / scoreBatch, "us"}
	am, err := artifactReplays(fx.aot, scoreBatch)
	if err != nil {
		return nil, err
	}
	for k, v := range am {
		m[k] = v
	}

	workers := float64(runtime.GOMAXPROCS(0))
	jobMS := median(durationsMS(traced.walls))
	m["score.worker_busy_ratio"] = Metric{ms(busy) / (jobMS * workers), "ratio"}
	// The loop's own work per job is checking results against the
	// reference: time it on a job that reproduces the reference.
	ref := job{agg: fx.refAgg}
	for _, b := range fx.refChunks {
		var cr score.ChunkResult
		if err := json.Unmarshal(b, &cr); err != nil {
			return nil, err
		}
		ref.chunks = append(ref.chunks, cr)
	}
	var ct tally
	check := perCall(func(int) { e.judgeJob(fx, &ref, &ct) })
	m["loadgen.cpu_us_per_sample"] = Metric{us(check) / float64(fx.samples), "us"}

	decodeMS := am["artifact.decode_ms"].Value
	bindMS := am["artifact.bind_ms"].Value * workers
	stages := ms(busy) / workers
	remainder := jobMS - decodeMS - bindMS - stages
	m["trace.unexplained_ms"] = Metric{remainder, "ms"}

	path, err := e.writeSpans("score-mgard", tr)
	if err != nil {
		return nil, err
	}
	e.logf("traced: %d plain jobs at %.0f samples/s, %d traced jobs at %.0f samples/s (%+.1f%%); chunk replay took %.2fs; spans written to %s",
		len(plain.walls), plain.samplesPerSec(), len(traced.walls), traced.samplesPerSec(), 100*overhead, replayWall.Seconds(), path)
	e.printSelfTimes(jobMS, []layerRow{
		{"artifact.decode_ms", "replay: artifact.ReadFile with verification, once per job", decodeMS},
		{"artifact.bind_ms", fmt.Sprintf("replay: Program.Bind, once per worker (%d)", int(workers)), bindMS},
		{"score.read_ms", "replay: os.ReadFile of every chunk, shared by the workers", sum(reads) / workers},
		{"score.verify_ms", "replay: the chunk CRC32C check score.DecodeChunk adds to compress.Decode, shared by the workers", sum(verifies) / workers},
		{"compress.decode_ms", "replay: compress.Decode of every chunk, shared by the workers", sum(decodes) / workers},
		{"score.forward_ms", "replay: Engine.Forward over every chunk at batch 256, shared by the workers", sum(forwards) / workers},
	}, remainder)
	e.logf("  (operation = one scoring job; the remainder is pipeline wait, commit and scheduling time the replays do not cover)")
	return t.report(completeLayers(m)), nil
}

// forwardChunk runs a feature-major chunk through eng in scoreBatch
// columns, as the scoring workers do.
func forwardChunk(eng *nn.Engine, in *tensor.Matrix, data []float64, features, samples int) {
	for lo := 0; lo < samples; lo += scoreBatch {
		hi := min(lo+scoreBatch, samples)
		cols := hi - lo
		in = tensor.EnsureMatrix(in, features, cols)
		for f := 0; f < features; f++ {
			copy(in.Data[f*cols:(f+1)*cols], data[f*samples+lo:f*samples+hi])
		}
		eng.Forward(in)
	}
}

// batchesIn counts the forward batches scoring the manifest takes.
func batchesIn(man *score.Manifest) int {
	n := 0
	for _, c := range man.Chunks {
		n += (c.Samples + scoreBatch - 1) / scoreBatch
	}
	return n
}
