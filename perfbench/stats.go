package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail value read off fewer samples than this is one outlier, not a tail.
const minBeyond = 10

// tail returns the nearest-rank q-quantile of samples, lowered until at
// least minBeyond samples rank above it, and the quantile actually used.
// With too few samples for any such rank it returns the smallest value.
// samples must be sorted ascending and non-empty.
func tail(samples []float64, q float64) (v, used float64) {
	n := len(samples)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k > n-minBeyond {
		k = n - minBeyond
	}
	if k < 1 {
		k = 1
	}
	return samples[k-1], float64(k) / float64(n)
}

// median returns the middle of sorted samples (mean of the two middles
// for an even count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// iqm is the interquartile mean of sorted samples: the mean of the middle
// half. Unlike the median it moves smoothly when the samples fall in two
// clusters and their shares shift, and unlike the mean it ignores tails.
func iqm(sorted []float64) float64 {
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	if hi <= lo {
		return median(sorted)
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// sliceMin is the fewest samples a slice of a run may hold: enough for a
// p99 with minBeyond samples beyond it.
const sliceMin = 100 * minBeyond

// sliced cuts samples, in the order the operations ran, into up to ten
// consecutive slices of at least sliceMin samples (one slice when there
// are fewer), applies stat to each slice sorted, and returns the median.
// A burst of host noise that hits one slice then cannot move the result;
// a change that slows every operation moves every slice.
func sliced(samples []float64, stat func(sorted []float64) float64) float64 {
	k := sliceCount(len(samples))
	var per []float64
	for i := 0; i < k; i++ {
		lo, hi := i*len(samples)/k, (i+1)*len(samples)/k
		if hi > lo {
			per = append(per, stat(sorted(samples[lo:hi])))
		}
	}
	return median(sorted(per))
}

func sliceCount(n int) int { return min(10, max(1, n/sliceMin)) }

func p99(sorted []float64) float64 {
	v, _ := tail(sorted, 0.99)
	return v
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate per second over d: exponential gaps, so bursts and lulls occur as
// they do with independent users.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
