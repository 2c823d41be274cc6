package serve

import (
	"runtime"

	"github.com/scidata/errprop/internal/nn"
	"github.com/scidata/errprop/internal/tensor"
)

// segment is the samples [lo, hi) of one request riding in a batch. A
// request larger than the room left in a batch is split into segments
// across consecutive batches.
type segment struct {
	r      *request
	lo, hi int
}

// batch is what the batcher hands a worker: request segments totalling
// n samples, n <= MaxBatch.
type batch struct {
	segs []segment
	n    int
}

// add moves as much of seg into b as fits under maxBatch and returns the
// remainder (a zero segment when all of it fit).
func (b *batch) add(seg segment, maxBatch int) segment {
	take := min(seg.hi-seg.lo, maxBatch-b.n)
	b.segs = append(b.segs, segment{seg.r, seg.lo, seg.lo + take})
	b.n += take
	if seg.lo+take == seg.hi {
		return segment{}
	}
	return segment{seg.r, seg.lo + take, seg.hi}
}

// batchLoop is the model's work-conserving micro-batcher: it never
// waits on a clock for a batch to fill. Holding samples, it absorbs
// every request already queued (up to maxBatch samples), yields the
// processor once so that handlers already runnable can enqueue theirs,
// and then offers the batch to the worker pool in a select that keeps
// absorbing arrivals while no worker is free. On an idle server the
// yield returns at once and a lone request runs immediately; requests
// coalesce only when the server is saturated — every worker busy, or
// the CPUs busy with request handling — which is where a wider forward
// pass pays. (Without the yield, a pool that shares its CPUs with the
// HTTP stack nearly always finds a worker free and serves batches of
// about one sample under any load.) The hand-off channel is unbuffered,
// so a saturated pool stalls the batcher, the admission queue fills, and
// enqueue starts returning ErrBusy: backpressure reaches the client as
// 503 instead of unbounded memory growth. On drain (queue closed) the
// loop hands off everything still queued and then closes the work
// channel.
func (m *model) batchLoop(maxBatch int) {
	defer func() {
		close(m.work)
		m.wg.Done()
	}()
	var (
		b       batch
		carry   segment // the part of a split request that did not fit in b
		yielded bool    // b has had its one yield before being offered
	)
	queue := m.queue
	for {
		if carry.r != nil && b.n < maxBatch {
			carry = b.add(carry, maxBatch)
		}
		in := queue
		if b.n == maxBatch || carry.r != nil {
			in = nil // full: only a free worker can make progress
		}
		var (
			r  *request
			ok bool
		)
		if b.n == 0 {
			if in == nil {
				return
			}
			r, ok = <-in
		} else {
			select {
			case r, ok = <-in: // already queued: absorbing it costs no wait
			default:
				if in != nil && !yielded {
					yielded = true
					runtime.Gosched()
					continue
				}
				select {
				case m.work <- b:
					b, yielded = batch{}, false
					continue
				case r, ok = <-in:
				}
			}
		}
		if !ok {
			queue = nil
			continue
		}
		carry = b.add(segment{r, 0, len(r.x)}, maxBatch)
	}
}

// workLoop runs batches on this worker's private compiled inference
// engine until the batcher closes the work channel (drain). The input
// matrix is worker-owned and reused across batches (the pack loop
// overwrites every entry), so the steady-state forward pass allocates
// only the per-segment result slices.
func (m *model) workLoop(eng *nn.Engine) {
	defer m.wg.Done()
	var in *tensor.Matrix
	for b := range m.work {
		// Taken by a worker: these samples no longer count as queued.
		m.depth.Add(-int64(b.n))
		if gate := m.srv.gate; gate != nil {
			gate(b.n)
		}
		in = m.runBatch(eng, in, b)
	}
}

// runBatch executes one micro-batch: segments of expired requests are
// skipped (their waiters already gave up), the rest are packed into the
// worker's reusable (features x batch) matrix for a single engine
// forward pass, and each result column is copied out to its request
// (the engine owns the output matrix only until its next Forward).
// Engine columns are independent, so a sample's output does not depend
// on which batch, or which position in it, the sample rode in.
func (m *model) runBatch(eng *nn.Engine, in *tensor.Matrix, b batch) *tensor.Matrix {
	live := b.segs[:0]
	k := 0
	for _, s := range b.segs {
		if s.r.ctx.Err() != nil {
			s.r.expired.Store(true)
			s.r.finish(s.hi - s.lo)
			continue
		}
		live = append(live, s)
		k += s.hi - s.lo
	}
	if k == 0 {
		return in
	}
	in = tensor.EnsureMatrix(in, m.inDim, k)
	col := 0
	for _, s := range live {
		for _, x := range s.r.x[s.lo:s.hi] {
			for f := 0; f < m.inDim; f++ {
				in.Data[f*k+col] = x[f]
			}
			col++
		}
	}
	y := eng.Forward(in)
	rows := y.Rows
	col = 0
	for _, s := range live {
		flat := make([]float64, rows*(s.hi-s.lo))
		for i := s.lo; i < s.hi; i++ {
			out := flat[:rows:rows]
			flat = flat[rows:]
			for f := 0; f < rows; f++ {
				out[f] = y.Data[f*k+col]
			}
			s.r.out[i] = out
			col++
		}
		s.r.finish(s.hi - s.lo)
	}
	m.srv.metrics.batches.Add(1)
	m.srv.metrics.samples.Add(int64(k))
	m.srv.metrics.batchSize.observe(float64(k))
	return in
}
