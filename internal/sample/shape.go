package sample

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/alias"
	"repro/internal/graphlet"
	"repro/internal/table"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// ShapeUrn is the sample(T) primitive of Section 4: it draws uniform
// colorful copies of a single unrooted k-treelet shape T. Building one
// requires a pass over the size-k records to weight root nodes by their
// occurrences of T (the paper notes the alias sampler must be rebuilt from
// scratch whenever AGS switches shape — this constructor is that rebuild).
type ShapeUrn struct {
	Shape treelet.Treelet

	urn       *Urn
	rootings  []treelet.Treelet
	roots     []int32
	rootAlias *alias.Table
	total     u128.Uint128

	// Rooted-form choice scratch, reused across the draws of a batch.
	cumBuf  []float64
	treeBuf []treelet.Treelet
}

// NewShapeUrn restricts the urn to the unrooted shape T.
func (u *Urn) NewShapeUrn(shape treelet.Treelet) (*ShapeUrn, error) {
	sus, err := u.NewShapeUrns([]treelet.Treelet{shape})
	if err != nil {
		return nil, err
	}
	return sus[0], nil
}

// NewShapeUrns builds shape urns for every given shape in one weighting
// pass: each root record is walked once, accumulating the per-shape root
// weights for all shapes simultaneously, and the pass fans out over
// GOMAXPROCS goroutines. The result is identical to building each urn with
// NewShapeUrn — per-root weights are exact u128 sums (regrouping cannot
// change them) and roots assemble in node order — but AGS's prepare step,
// which needs every shape of the catalog, pays one table pass instead of
// one per shape. This is the parallel "rebuild the alias sampler" of
// Section 4, hoisted to engine open.
func (u *Urn) NewShapeUrns(shapes []treelet.Treelet) ([]*ShapeUrn, error) {
	sus := make([]*ShapeUrn, len(shapes))
	rootedTo := make(map[treelet.Treelet]int)
	for i, shape := range shapes {
		rootings := u.Cat.Rootings(shape)
		if len(rootings) == 0 {
			return nil, fmt.Errorf("sample: %v is not an unrooted k-treelet shape of the catalog", shape)
		}
		sus[i] = &ShapeUrn{Shape: shape, urn: u, rootings: rootings}
		for _, t := range rootings {
			rootedTo[t] = i
		}
	}

	// Per-chunk accumulation in root order; chunks concatenate in order, so
	// the assembled weights match a sequential pass exactly.
	type shapeAcc struct {
		roots   [][]int32
		weights [][]float64
		totals  []u128.Uint128
	}
	workers := parallelWorkers(len(u.roots))
	accs := make([]shapeAcc, workers)
	chunk := (len(u.roots) + workers - 1) / workers
	if chunk == 0 {
		chunk = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(u.roots))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := &accs[w]
			acc.roots = make([][]int32, len(shapes))
			acc.weights = make([][]float64, len(shapes))
			acc.totals = make([]u128.Uint128, len(shapes))
			cache := table.NewSynthCache() // synthesis cache is goroutine-local
			perShape := make([]u128.Uint128, len(shapes))
			for _, v := range u.roots[lo:hi] {
				for i := range perShape {
					perShape[i] = u128.Zero
				}
				u.Tab.Rec(u.K, v).WithCache(cache).Each(func(k treelet.Colored, cnt u128.Uint128) bool {
					if i, ok := rootedTo[k.Tree()]; ok {
						perShape[i] = perShape[i].Add(cnt)
					}
					return true
				})
				for i, wt := range perShape {
					if !wt.IsZero() {
						acc.roots[i] = append(acc.roots[i], v)
						acc.weights[i] = append(acc.weights[i], wt.Float64())
						acc.totals[i] = acc.totals[i].Add(wt)
					}
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()

	for i, s := range sus {
		var weights []float64
		for w := range accs {
			s.roots = append(s.roots, accs[w].roots[i]...)
			weights = append(weights, accs[w].weights[i]...)
			s.total = s.total.Add(accs[w].totals[i])
		}
		s.rootAlias = alias.New(weights)
	}
	return sus, nil
}

// Total returns r_T: the number of colorful copies of the shape in the urn
// (distinct copies; corrected for the k-fold rooting when 0-rooting is
// off).
func (s *ShapeUrn) Total() u128.Uint128 {
	if s.urn.Tab.ZeroRooted {
		return s.total
	}
	q, _ := s.total.QuoRem64(uint64(s.urn.K))
	return q
}

// Empty reports whether the shape has no colorful occurrence.
func (s *ShapeUrn) Empty() bool { return s.rootAlias == nil }

// Sample draws one uniform colorful copy of the shape and returns the
// canonical induced graphlet and the nodes. The node slice is reused
// across calls; copy it to retain.
func (s *ShapeUrn) Sample(rng *rand.Rand) (graphlet.Code, []int32) {
	if s.Empty() {
		panic("sample: shape urn is empty")
	}
	return s.sampleOne(rng)
}

// SampleBatch draws up to n uniform copies of the shape, calling fn after
// every draw with the canonical induced code and the sampled nodes (the
// node slice is reused across draws; copy it to retain). It stops early
// when fn returns false and returns the number of draws made — AGS uses
// the early exit to cut a batch short the moment it switches shape, so no
// draw ever comes from a stale urn. Draw sequences are bit-identical to
// repeated Sample calls at equal RNG state; see Urn.SampleBatch.
func (s *ShapeUrn) SampleBatch(rng *rand.Rand, n int, fn func(graphlet.Code, []int32) bool) int {
	if s.Empty() {
		panic("sample: shape urn is empty")
	}
	for i := 0; i < n; i++ {
		code, nodes := s.sampleOne(rng)
		if !fn(code, nodes) {
			return i + 1
		}
	}
	return n
}

// sampleOne is one sample(T) draw: root by the per-shape alias, rooted
// form of the shape proportionally to its count at the root, colored
// treelet within that rooted form, recursive materialization.
func (s *ShapeUrn) sampleOne(rng *rand.Rand) (graphlet.Code, []int32) {
	u := s.urn
	v := s.roots[s.rootAlias.Next(rng)]
	d := u.rootRec(v)
	var rec table.View
	if d == nil {
		rec = u.view(u.K, v)
	}
	shapeTotal := func(t treelet.Treelet) u128.Uint128 {
		if d != nil {
			return d.ShapeTotal(t)
		}
		return rec.ShapeTotal(t)
	}
	s.cumBuf, s.treeBuf = s.cumBuf[:0], s.treeBuf[:0]
	total := 0.0
	for _, t := range s.rootings {
		w := shapeTotal(t)
		if w.IsZero() {
			continue
		}
		total += w.Float64()
		s.cumBuf = append(s.cumBuf, total)
		s.treeBuf = append(s.treeBuf, t)
	}
	t := s.treeBuf[searchFloat(s.cumBuf, rng.Float64()*total)]
	var tc treelet.Colored
	if d != nil {
		tc = d.SampleShape(rng, t)
	} else {
		tc = rec.SampleShape(rng, t)
	}
	return u.materialize(v, tc, rng)
}
