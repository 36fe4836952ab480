package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// Values from Python: statistics.quantiles(range(1, 11), n=4) and
	// statistics.quantiles([1, 2], n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		p    float64
	}{
		{1000, 99, 99}, // exactly 10 beyond p99
		{999, 99, 95},  // 9 beyond p99
		{200, 99, 95},  // 10 beyond p95
		{199, 95, 90},
		{100, 95, 90},
		{40, 90, 75},
		{39, 90, 50},
		{5, 99, 50},
		{100000, 90, 90}, // never above the workload's own choice
	} {
		if got := tailPercentile(tc.n, tc.want); got != tc.p {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", tc.n, tc.want, got, tc.p)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	const d = 10 * time.Second
	a, b, c := poissonArrivals(7, 500, d), poissonArrivals(7, 500, d), poissonArrivals(8, 500, d)
	if len(a) != 5000 || len(c) != 5000 {
		t.Fatalf("%d and %d arrivals at 500/s over 10 s, want 5000", len(a), len(c))
	}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: %v vs %v for the same seed", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= d || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, a[i], d)
		}
		differs = differs || a[i] != c[i]
	}
	if !differs {
		t.Error("another seed gave the same schedule")
	}
	// Poisson gaps: exponential with mean 1/rate, so about e^-1 of them
	// exceed the mean.
	long := 0
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > 2*time.Millisecond {
			long++
		}
	}
	if f := float64(long) / float64(len(a)-1); f < 0.33 || f > 0.40 {
		t.Errorf("%.3f of the gaps exceed the mean gap, want about 0.37", f)
	}
}

func TestZipfDeterministic(t *testing.T) {
	a, b := newZipf(3, 1.1, 1024), newZipf(3, 1.1, 1024)
	counts := make([]int, 1024)
	for i := 0; i < 20000; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("draw %d: %d vs %d for the same seed", i, x, y)
		}
		if x < 0 || x >= 1024 {
			t.Fatalf("draw %d out of range: %d", i, x)
		}
		counts[x]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[100] {
		t.Errorf("not Zipf-skewed: rank 0, 1, 100 drawn %d, %d, %d times", counts[0], counts[1], counts[100])
	}
}

func TestShuffledCounts(t *testing.T) {
	weights := []float64{0.6, 0.3, 0.1}
	a := shuffled(rand.New(rand.NewSource(5)), 1001, weights)
	b := shuffled(rand.New(rand.NewSource(5)), 1001, weights)
	c := shuffled(rand.New(rand.NewSource(6)), 1001, weights)
	count := func(xs []int) [3]int {
		var n [3]int
		for _, x := range xs {
			n[x]++
		}
		return n
	}
	if want := [3]int{601, 300, 100}; count(a) != want || count(c) != want {
		t.Errorf("counts %v and %v, want %v for every seed", count(a), count(c), want)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("label %d: %d vs %d for the same seed", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("another seed gave the same order")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested", []span{{Start: 10, End: 80}, {Start: 20, End: 30}}, 30},
		{"sticking out", []span{{Start: -20, End: 10}, {Start: 90, End: 150}}, 80},
		{"outside", []span{{Start: 200, End: 300}}, 100},
		{"covering", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}
