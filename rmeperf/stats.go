package main

import (
	"math"
	"slices"
)

// dist is a sorted sample set of one timing (any unit).
type dist struct{ s []float64 }

func newDistInt(xs []int64) dist {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = float64(x)
	}
	slices.Sort(s)
	return dist{s}
}

func (d dist) n() int { return len(d.s) }

// q returns the nearest-rank quantile p in [0,1]: the smallest sample with
// at least a fraction p of the samples at or below it. Zero when empty.
func (d dist) q(p float64) float64 {
	n := len(d.s)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return d.s[i]
}

// smooth returns the mean of the samples within ±0.05% of rank around the
// nearest-rank quantile p (at least the quantile itself). Integer-ns
// samples make plain quantiles repeat exactly from run to run; the window
// mean keeps the reported figure's digits measured.
func (d dist) smooth(p float64) float64 {
	n := len(d.s)
	if n == 0 {
		return 0
	}
	c := int(math.Ceil(p*float64(n))) - 1
	w := n / 2000
	lo, hi := max(c-w, 0), min(c+w, n-1)
	sum := 0.0
	for _, v := range d.s[lo : hi+1] {
		sum += v
	}
	return sum / float64(hi-lo+1)
}

// beyond counts the samples strictly above the nearest-rank quantile p.
func beyond(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return n - r
}

// tailPercentiles is the ladder tail reports choose from.
var tailPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tail returns the highest ladder percentile that has at least ten samples
// beyond it, and its value; ok is false when even the median has fewer.
func (d dist) tail() (p, v float64, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		p := tailPercentiles[i]
		if beyond(d.n(), p) >= 10 {
			return p, d.q(p), true
		}
	}
	return 0, 0, false
}

// median of xs (mean of the middle pair for even counts); zero when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reservoir keeps a uniform sample of at most cap(buf) values out of every
// value offered (Algorithm R), so a run of any length has an unbiased
// latency sample in bounded, preallocated memory.
type reservoir struct {
	buf  []int64
	seen uint64
	rng  uint64
}

func newReservoir(capacity int, seed uint64) *reservoir {
	return &reservoir{buf: make([]int64, 0, capacity), rng: seed | 1}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	if j := r.rng % r.seen; j < uint64(len(r.buf)) {
		r.buf[j] = v
	}
}

// merged returns every reservoir's samples. Workers of one phase run the
// same passage mix, so their samples are pooled without reweighting.
func merged(rs []*reservoir) []int64 {
	var out []int64
	for _, r := range rs {
		out = append(out, r.buf...)
	}
	return out
}
