package sample

import (
	"repro/internal/table"
	"repro/internal/treelet"
)

// Clone returns an independent Urn over the same (immutable) graph, table
// and catalog: fresh neighbor buffers and synthesis memo, shared alias
// table (it is read-only after construction) and shared decoded-record,
// sweep and canonical-form caches (concurrency-safe; their entries are
// pure functions of the table, so sharing only amortizes, never perturbs).
// Only for k > 6 does a clone keep its own canonical-form memo, created on
// its first draw and freed with it. Use one clone per goroutine — the
// paper's sampling phase is embarrassingly parallel ("samples are by
// definition independent and are taken by different threads", Section
// 3.3).
func (u *Urn) Clone() *Urn {
	return &Urn{
		G: u.G, Col: u.Col, Tab: u.Tab, Cat: u.Cat, K: u.K,
		BufferThreshold: u.BufferThreshold,
		BufferSize:      u.BufferSize,
		roots:           u.roots,
		rootAlias:       u.rootAlias,
		total:           u.total,
		synthCache:      table.NewSynthCache(),
		decode:          u.decode, // concurrency-safe, shared across clones
		sweeps:          u.sweeps,
		canon:           u.canon,
	}
}

// CloneOnto returns a ShapeUrn that shares s's immutable root-alias state
// (roots, alias table, rootings, total) but materializes copies through u,
// so neighbor buffers stay goroutine-local and draws read u's shared
// caches. u must be a Clone of the Urn the shape urn was built from (same
// graph, table and catalog); the per-shape alias state is valid only
// against that table.
func (s *ShapeUrn) CloneOnto(u *Urn) *ShapeUrn {
	return &ShapeUrn{
		Shape:     s.Shape,
		urn:       u,
		rootings:  s.rootings,
		roots:     s.roots,
		rootAlias: s.rootAlias,
		total:     s.total,
	}
}

// Clone returns an independent ShapeUrn backed by a fresh clone of its
// parent Urn. Unlike NewShapeUrn it costs O(1): the expensive per-shape
// root weighting is shared, only the mutable sampling state is new. Use
// one clone per goroutine — epoch-based parallel AGS hands every worker
// its own clone of each shape urn.
func (s *ShapeUrn) Clone() *ShapeUrn { return s.CloneOnto(s.urn.Clone()) }

// ShapeWeights exposes per-shape totals r_j as float64 for diagnostics and
// experiments (keyed by unrooted canonical shape).
func (u *Urn) ShapeWeights() map[treelet.Treelet]float64 {
	totals := u.Tab.ShapeTotals(u.Cat)
	out := make(map[treelet.Treelet]float64, len(totals))
	for s, t := range totals {
		f := t.Float64()
		if !u.Tab.ZeroRooted {
			f /= float64(u.K)
		}
		out[s] = f
	}
	return out
}
