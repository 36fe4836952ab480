package sample

// Clones and the state they share. Everything a draw writes lives on the
// Urn clone; what clones share is either immutable (graph, table, alias
// tables, shape urns) or a concurrency-safe cache of pure functions of the
// table: the canonical-form table and two memos, one of decoded root
// records and one of sweeps.

import (
	"sync"
	"sync/atomic"

	"repro/internal/table"
)

// memo is a concurrency-safe cache from uint64 keys to immutable values
// that are pure functions of the table, under a size budget. Concurrent
// misses may compute the same value twice; the first published value wins
// (the values are identical, so callers cannot tell). The put that spends
// the budget sets frozen under the lock; the map never changes after that,
// so reads that see frozen skip the lock. A budget ≤ 0 admits nothing.
type memo[T any] struct {
	frozen atomic.Bool
	mu     sync.RWMutex
	m      map[uint64]*T
	spent  int
	budget int
}

func newMemo[T any](budget int) *memo[T] {
	c := &memo[T]{m: make(map[uint64]*T), budget: budget}
	c.frozen.Store(budget <= 0)
	return c
}

// get returns the value under key, or nil, and whether the memo still
// admits puts — so a caller pays for computing a value only if it may be
// kept.
func (c *memo[T]) get(key uint64) (v *T, admits bool) {
	if c.frozen.Load() {
		return c.m[key], false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[key], c.spent < c.budget
}

// put publishes v, which costs size against the budget, under key and
// returns the value the memo holds there: an earlier put's if one won,
// else v. Once the budget is spent it keeps nothing and returns v.
func (c *memo[T]) put(key uint64, v *T, size int) *T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.m[key]; ok {
		return prior
	}
	if c.spent >= c.budget {
		return v
	}
	c.m[key] = v
	c.spent += size
	if c.spent >= c.budget {
		c.frozen.Store(true)
	}
	return v
}

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
