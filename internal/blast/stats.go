package blast

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// MB is 10^6 bytes, as in the paper and internal/bench.
const MB = 1e6

// percentile returns the p-th percentile (0 < p <= 1) of sorted by the
// nearest-rank rule, so the value is always one that was measured.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// Quartiles cuts xs the way Python's statistics.quantiles(xs, n=4) does
// (the "exclusive" method), so -repeat prints the same spread the
// benchmark driver computes. xs needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the middle value of xs (mean of the middle two for an
// even count), 0 for none.
func Median(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	_, q2, _ := Quartiles(xs)
	return q2
}

// cov is the coefficient of variation (population standard deviation
// over mean) of xs.
func cov(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a fixed-size log-linear histogram of durations (16 buckets
// per power of two, so a quantile is read to within ~4 %). The store
// decorator records into it from server goroutines: it never allocates,
// so tracing adds no garbage to the heap it is measuring.
type hist struct {
	buckets [64 * histSub]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Int64
}

const histSub = 16

func (h *hist) add(d time.Duration) {
	ns := uint64(max(d, 1))
	h.buckets[histBucket(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(ns))
}

func histBucket(ns uint64) int {
	exp := bits.Len64(ns) - 1 // floor(log2 ns)
	if exp < 4 {
		return int(ns) // below 16 ns every value has its own bucket
	}
	sub := (ns >> (exp - 4)) & (histSub - 1)
	return exp*histSub + int(sub)
}

// quantileUs returns the lower edge of the bucket holding the q-th
// quantile, in microseconds.
func (h *hist) quantileUs(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < 16 {
				return float64(i) / 1e3
			}
			exp, sub := i/histSub, i%histSub
			return float64((uint64(histSub)+uint64(sub))<<(exp-4)) / 1e3
		}
	}
	return 0
}
