// Package memo provides the one cache type behind motivo's shared caches:
// the sampler's decoded-root and sweep caches and the build's
// decoded-record cache. Each holds values that are pure functions of
// immutable data, so every reader may share them.
package memo

import (
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe cache from uint64 keys to immutable values
// under a size budget. Concurrent misses may compute the same value twice;
// the first published value wins (the values are identical, so callers
// cannot tell). The put that spends the budget freezes the memo under the
// lock; the map never changes after that, so reads that see it frozen skip
// the lock. A budget ≤ 0 admits nothing.
type Memo[T any] struct {
	frozen atomic.Bool
	mu     sync.RWMutex
	m      map[uint64]*T
	spent  int
	budget int
}

// New returns an empty memo that admits values until their sizes sum to
// budget.
func New[T any](budget int) *Memo[T] {
	c := &Memo[T]{m: make(map[uint64]*T), budget: budget}
	c.frozen.Store(budget <= 0)
	return c
}

// Get returns the value under key, or nil, and whether the memo still
// admits puts — so a caller pays for computing a value only if it may be
// kept.
func (c *Memo[T]) Get(key uint64) (v *T, admits bool) {
	if c.frozen.Load() {
		return c.m[key], false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[key], c.spent < c.budget
}

// Put publishes v, which costs size against the budget, under key and
// returns the value the memo holds there: an earlier put's if one won,
// else v. Once the budget is spent it keeps nothing and returns v.
func (c *Memo[T]) Put(key uint64, v *T, size int) *T {
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

// Frozen reports whether the budget is spent, so the memo admits nothing
// more.
func (c *Memo[T]) Frozen() bool { return c.frozen.Load() }

// Len returns the number of resident values.
func (c *Memo[T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Spent returns the sizes of the resident values, summed.
func (c *Memo[T]) Spent() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.spent
}

// Range calls fn for every resident value, in no particular order, until
// fn returns false. It holds the read lock throughout, so fn must not call
// Put.
func (c *Memo[T]) Range(fn func(key uint64, v *T) bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for key, v := range c.m {
		if !fn(key, v) {
			return
		}
	}
}
