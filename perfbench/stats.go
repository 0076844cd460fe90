package main

import (
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile. A
// p90 therefore needs at least 100 samples and a p99 at least 1000.
const minBeyond = 10

// percentile returns the q-th percentile (0 < q < 100) of xs by nearest
// rank. It refuses unless at least minBeyond samples lie beyond the rank,
// so a tail figure is never read off a handful of samples.
func percentile(xs []float64, q int) (float64, error) {
	if q <= 0 || q >= 100 {
		return 0, fmt.Errorf("percentile: q=%d outside (0, 100)", q)
	}
	n := len(xs)
	rank := (q*n + 99) / 100 // ceil(q*n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile: p%d of %d samples leaves %d beyond it, need %d", q, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median returns the middle of xs (the mean of the two middle values for an
// even count). Unlike percentile it suits small repeat sets such as the
// set-up repetitions; it panics on an empty slice, which only a bug produces.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// interquartileMean returns the mean of the middle half of xs: the values
// from the first to the third quartile by rank. Like the median it ignores
// the slow steps a shared runner's interference produces, but it averages
// over half the samples rather than reading one.
func interquartileMean(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	return sum(sorted[n/4:n-n/4]) / float64(n-2*(n/4))
}

// sum adds xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// durationHist is a log-linear histogram of durations in nanoseconds: exact
// below 128 ns, then 64 buckets per octave, so any reported percentile is
// within 1/64 of the true value. It allocates once and records without
// allocating, which keeps per-pick recording cheap.
type durationHist struct {
	counts []uint64
	n      uint64
}

const histSub = 64 // buckets per octave

func newDurationHist() *durationHist {
	return &durationHist{counts: make([]uint64, 2*histSub+64*histSub)}
}

// histIndex maps v to its bucket.
func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 7 // v>>shift lies in [64, 128)
	return 2*histSub + (shift-1)*histSub + int(v>>uint(shift)) - histSub
}

// histMid returns the midpoint of bucket i.
func histMid(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	shift := (i-2*histSub)/histSub + 1
	m := uint64((i-2*histSub)%histSub + histSub)
	lo, hi := m<<uint(shift), (m+1)<<uint(shift)
	return float64(lo+hi) / 2
}

func (h *durationHist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

// percentileNs returns the q-th percentile in nanoseconds under the same
// rule as percentile: at least minBeyond samples above the rank.
func (h *durationHist) percentileNs(q int) (float64, error) {
	n := int(h.n)
	rank := (q*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile: p%d of %d samples leaves %d beyond it, need %d", q, n, n-rank, minBeyond)
	}
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return histMid(i), nil
		}
	}
	panic("durationHist: rank beyond count")
}
