// Package estimate turns raw sample tallies into graphlet count estimates
// and provides the accuracy metrics of the paper's evaluation (Section 5):
// the ℓ1 error of the reconstructed graphlet frequency distribution, the
// per-graphlet count error err_H = (ĉ_H − c_H)/c_H, and the number of
// graphlets estimated within a relative-error band.
package estimate

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graphlet"
	"repro/internal/treelet"
)

// Counts maps canonical graphlet codes to (estimated or exact) numbers of
// induced occurrences.
type Counts map[graphlet.Code]float64

// Sigma memoizes spanning-tree counts σ_i per canonical graphlet code
// (computed via Kirchhoff; motivo likewise caches σ to disk, Section 3.3).
// It is safe for concurrent use: a long-lived query engine shares one σ
// cache across all in-flight queries, and σ is a pure function of the code
// so cache hits and misses return identical values.
type Sigma struct {
	K     int
	mu    sync.Mutex
	cache map[graphlet.Code]int64
}

// NewSigma creates a σ cache for k-node graphlets.
func NewSigma(k int) *Sigma {
	return &Sigma{K: k, cache: make(map[graphlet.Code]int64)}
}

// Of returns σ_i for the graphlet.
func (s *Sigma) Of(c graphlet.Code) int64 {
	s.mu.Lock()
	if v, ok := s.cache[c]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := graphlet.SpanningTreeCount(s.K, c)
	s.mu.Lock()
	s.cache[c] = v
	s.mu.Unlock()
	return v
}

// SigmaShapes memoizes σ_ij tables (spanning trees of H_i by unrooted
// treelet shape T_j) per canonical graphlet code, for AGS. Like Sigma it is
// safe for concurrent use, so one cache can back every query of an engine;
// the returned rows are treated as immutable by all callers.
type SigmaShapes struct {
	K     int
	Cat   *treelet.Catalog
	mu    sync.Mutex
	cache map[graphlet.Code]map[treelet.Treelet]int64
}

// NewSigmaShapes creates a σ_ij cache.
func NewSigmaShapes(k int, cat *treelet.Catalog) *SigmaShapes {
	return &SigmaShapes{K: k, Cat: cat, cache: make(map[graphlet.Code]map[treelet.Treelet]int64)}
}

// Of returns the σ_ij row of the graphlet. Callers must not mutate the row.
func (s *SigmaShapes) Of(c graphlet.Code) map[treelet.Treelet]int64 {
	s.mu.Lock()
	if v, ok := s.cache[c]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	v := graphlet.SpanningTreeShapes(s.K, c, s.Cat)
	s.mu.Lock()
	s.cache[c] = v
	s.mu.Unlock()
	return v
}

// Naive converts naive-sampling tallies into induced-count estimates
// (Section 2.2): with x_i occurrences of H_i among S samples, t colorful
// k-treelets in the urn and σ_i spanning trees per copy,
// ĉ_i = (t/σ_i)(x_i/S) estimates the colorful copies and dividing by the
// colorful probability p_k gives the estimate of all copies.
//
// A tallied code with σ_i = 0 means the tally does not describe a connected
// k-graphlet — a corrupt or mismatched table — and dividing by it would
// poison every downstream Frequencies call with Inf/NaN, so it is reported
// as an error instead.
func Naive(tallies map[graphlet.Code]int64, samples int64, t float64, sig *Sigma, pColorful float64) (Counts, error) {
	out := make(Counts, len(tallies))
	if samples == 0 {
		return out, nil
	}
	for code, x := range tallies {
		sigma := float64(sig.Of(code))
		if sigma == 0 {
			return nil, fmt.Errorf("estimate: tallied code %v has zero spanning trees (corrupt or mismatched table)", code)
		}
		colorful := t / sigma * float64(x) / float64(samples)
		out[code] = colorful / pColorful
	}
	return out, nil
}

// Frequencies normalizes counts into a frequency vector. The total is
// accumulated in sorted-code order, not map order: float summation is not
// associative, so map-order accumulation made the last ulp of every
// frequency wobble between byte-identical runs — invisible to accuracy,
// fatal to the bit-identity guarantees the engine and smart-star tests
// assert.
func Frequencies(c Counts) Counts {
	codes := make([]graphlet.Code, 0, len(c))
	for k := range c {
		codes = append(codes, k)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i].Less(codes[j]) })
	var total float64
	for _, k := range codes {
		total += c[k]
	}
	out := make(Counts, len(c))
	if total == 0 {
		return out
	}
	for k, v := range c {
		out[k] = v / total
	}
	return out
}

// Ranked returns the codes of c ordered by estimate, largest first, ties
// by ascending code: the order every listing of estimates is in.
func Ranked(c Counts) []graphlet.Code {
	codes := make([]graphlet.Code, 0, len(c))
	for code := range c {
		codes = append(codes, code)
	}
	sort.Slice(codes, func(i, j int) bool {
		a, b := codes[i], codes[j]
		if c[a] != c[b] {
			return c[a] > c[b]
		}
		return a.Less(b)
	})
	return codes
}

// L1 returns the ℓ1 distance between the frequency vectors of est and
// truth: Σ_i |f̂_i − f_i| over the union of supports.
func L1(est, truth Counts) float64 {
	fe, ft := Frequencies(est), Frequencies(truth)
	seen := make(map[graphlet.Code]bool)
	var sum float64
	for k, v := range fe {
		sum += math.Abs(v - ft[k])
		seen[k] = true
	}
	for k, v := range ft {
		if !seen[k] {
			sum += v
		}
	}
	return sum
}

// L2Norm returns the ℓ2 norm of the frequency vector of truth — the
// skewness diagnostic of Section 5.3 (AGS wins when it is close to 1).
func L2Norm(truth Counts) float64 {
	f := Frequencies(truth)
	var s float64
	for _, v := range f {
		s += v * v
	}
	return math.Sqrt(s)
}

// ErrH returns the per-graphlet count error (ĉ_H − c_H)/c_H (Eq. 4) for
// every graphlet in the ground truth; a missed graphlet has error −1.
func ErrH(est, truth Counts) map[graphlet.Code]float64 {
	out := make(map[graphlet.Code]float64, len(truth))
	for code, c := range truth {
		if c == 0 {
			continue
		}
		out[code] = (est[code] - c) / c
	}
	return out
}

// AccurateWithin returns how many ground-truth graphlets are estimated
// within relative error eps, and the ground-truth support size (the two
// panels of Figure 9).
func AccurateWithin(est, truth Counts, eps float64) (within, total int) {
	for _, e := range ErrH(est, truth) {
		total++
		if math.Abs(e) <= eps {
			within++
		}
	}
	return within, total
}

// RarestFound returns the smallest ground-truth frequency among graphlets
// tallied at least minSamples times (Figure 10); ok is false when nothing
// qualifies.
func RarestFound(tallies map[graphlet.Code]int64, truth Counts, minSamples int64) (freq float64, ok bool) {
	f := Frequencies(truth)
	best := math.Inf(1)
	for code, n := range tallies {
		if n < minSamples {
			continue
		}
		if fr, present := f[code]; present && fr < best {
			best = fr
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return best, true
}
