package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailSamples is the number of samples beyond the p-quantile of n samples;
// a percentile is reported only with at least ten beyond it.
func tailSamples(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the steadiness report reads the same as an external check.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windows collects throughput per unit of repeated work, a corpus pass
// of the batch workload. The reported rate is the median over units,
// which a short disturbance on a shared host moves less than the mean
// does.
type windows struct {
	mu         sync.Mutex
	work       map[int]float64
	start, end map[int]time.Time
}

func newWindows() *windows {
	return &windows{work: map[int]float64{}, start: map[int]time.Time{}, end: map[int]time.Time{}}
}

// add books work done in unit k between start and end.
func (w *windows) add(k int, work float64, start, end time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.work[k] += work
	if s, ok := w.start[k]; !ok || start.Before(s) {
		w.start[k] = start
	}
	if end.After(w.end[k]) {
		w.end[k] = end
	}
}

// median returns the median rate over units 0..complete-1, or over every
// unit when none is complete.
func (w *windows) median(complete int) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var rates []float64
	for k, work := range w.work {
		if k < complete || complete == 0 {
			rates = append(rates, work/w.end[k].Sub(w.start[k]).Seconds())
		}
	}
	return percentile(rates, 0.5)
}
