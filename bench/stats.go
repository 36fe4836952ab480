package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spread this benchmark reports for itself is the one
// an outside check computes from the same values. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// value with at least p% of the values at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n values.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean something.
const minBeyond = 10

// tailPercentile picks the percentile a tail latency over n samples is
// reported at: the highest rung of tailLadder, no higher than want, that
// leaves at least minBeyond samples beyond it. Below every rung it falls
// back to the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && n-rankOf(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// poissonArrivals returns the due times of a Poisson arrival process at
// rate per second over [0, d), conditioned on its expected count: exactly
// round(rate·d) arrivals at independent uniform times, sorted. Fixing the
// count keeps the offered load, and so throughput, the same from seed to
// seed; the gaps are still those of a Poisson process.
func poissonArrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// shuffled returns n labels in an order drawn from rng, label j appearing
// round(n·weights[j]/Σweights) times; the first label, which should be the
// heaviest, absorbs any rounding shortfall or excess. Fixing the counts
// keeps the mix of a schedule the same from seed to seed.
func shuffled(rng *rand.Rand, n int, weights []float64) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, 0, n)
	for j := len(weights) - 1; j > 0; j-- {
		for c := int(math.Round(float64(n) * weights[j] / sum)); c > 0 && len(out) < n; c-- {
			out = append(out, j)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^s from its own seeded
// generator, so a seed fixes the sequence.
type zipf struct{ z *rand.Zipf }

// newZipf needs s > 1 (the math/rand sampler's domain) and n ≥ 1.
func newZipf(seed int64, s float64, n int) zipf {
	return zipf{rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// selfTime is a span's own time: its duration minus the part of it that
// the union of its children's intervals covers. Children may overlap each
// other and may stick out of the parent; only the covered part of the
// parent's interval is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = math.MinInt64
	for _, v := range ivs {
		if v.lo > end {
			covered += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(parent.End - parent.Start - covered)
}
