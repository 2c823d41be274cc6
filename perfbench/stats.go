package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), as Python's statistics.median does. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, which the steadiness criterion is stated
// in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// perCall returns the median over five rounds of the mean duration of
// one call of f; each round repeats f, with a rising call index, for at
// least 50 ms.
func perCall(f func(i int)) time.Duration {
	rounds := make([]float64, 0, 5)
	i := 0
	for r := 0; r < 5; r++ {
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < 50*time.Millisecond {
			f(i)
			i++
			n++
		}
		rounds = append(rounds, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(rounds))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// The reference machine's host goes through phases, lasting
// minutes, in which the hypervisor steals a fifth to a third of the
// guest's CPU time in every second alike. No window of such a phase is
// calm, and a millisecond-scale request's latency p90 doubles in it. A
// timed run therefore keeps its load running until it has measured
// enough calm windows (or jobs): those in which the hypervisor stole at
// most calmSteal of the machine's CPU time. It waits at most
// sizes.calmWait beyond the measured time, and takes the calmest
// windows it saw when the machine never calmed down.
const calmSteal = 0.05

// pickCalm returns the indices, in order, of the windows the metrics are
// taken over: every calm one if they are enough, else the calmest ones,
// added in order of steal until they are enough (or all of them). It
// also reports whether the calm ones were enough. It looks only at
// steal, never at the measured values, so slowness that steal does not
// explain, such as a regression, still counts in full.
func pickCalm(steal []float64, enough func(sel []int) bool) ([]int, bool) {
	var calm []int
	for i, s := range steal {
		if s <= calmSteal {
			calm = append(calm, i)
		}
	}
	if enough(calm) {
		return calm, true
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	var sel []int
	for _, i := range idx {
		sel = append(sel, i)
		if enough(sel) {
			break
		}
	}
	sort.Ints(sel)
	return sel, false
}
