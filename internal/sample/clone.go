package sample

// Clones and the state they share. Everything a draw writes lives on the
// Urn clone; what clones share is either immutable (graph, table, alias
// tables, shape urns) or a concurrency-safe cache of pure functions of the
// table: two memos, one of decoded root records and one of sweeps. The
// canonical-form table is the process's, shared by every urn.

import "repro/internal/table"

// Clone returns an independent Urn over the same (immutable) graph, table
// and catalog: fresh neighbor buffers, synthesis memo and sweep scratch,
// shared alias table and shared decoded-record, sweep and canonical-form
// caches (their entries are pure functions of the table, so sharing only
// amortizes, never perturbs). Only for k > 6 does a clone keep its own
// canonical-form memo, created on its first draw and freed with it. Use
// one clone per goroutine — the paper's sampling phase is embarrassingly
// parallel ("samples are by definition independent and are taken by
// different threads", Section 3.3) — and draw shape urns through it.
func (u *Urn) Clone() *Urn {
	return &Urn{
		G: u.G, Col: u.Col, Tab: u.Tab, Cat: u.Cat, K: u.K,
		BufferThreshold: u.BufferThreshold,
		BufferSize:      u.BufferSize,
		roots:           u.roots,
		rootAlias:       u.rootAlias,
		total:           u.total,
		synthCache:      table.NewSynthCache(),
		decode:          u.decode,
		sweeps:          u.sweeps,
		canon:           u.canon,
	}
}
