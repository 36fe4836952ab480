package graphlet

import (
	"sync"
	"sync/atomic"
)

// DenseCanonK is the largest k whose raw codes get a process-wide dense
// canonical table: 2^(k(k-1)/2) slots of 4 bytes is 128 KiB at k = 6 and
// would be 8 MiB at k = 7.
const DenseCanonK = 6

// canonFilled marks a filled CanonTable slot; canonical codes of
// k ≤ DenseCanonK fit in the low 15 bits, so 0 can mean "not yet filled".
const canonFilled = 1 << 31

// CanonTable memoizes Canonical for every raw code of one k ≤ DenseCanonK:
// one lazily filled slot per raw code. A canonical form is a pure
// function of the raw code, so concurrent fills store the same value and
// the table needs no lock.
type CanonTable struct {
	k     int
	slots []atomic.Uint32
}

// canonTables holds the process's one table per k ≤ DenseCanonK.
var canonTables [DenseCanonK + 1]struct {
	once sync.Once
	tab  *CanonTable
}

// SharedCanonTable returns the process's canonical table for k-node raw
// codes, made on first use, or nil when k > DenseCanonK. Every engine of
// the process shares it, so a raw code named once is named for all of
// them, and for any engine built or reopened later.
func SharedCanonTable(k int) *CanonTable {
	if k < 1 || k > DenseCanonK {
		return nil
	}
	c := &canonTables[k]
	c.once.Do(func() { c.tab = newCanonTable(k) })
	return c.tab
}

func newCanonTable(k int) *CanonTable {
	return &CanonTable{k: k, slots: make([]atomic.Uint32, 1<<(k*(k-1)/2))}
}

// Of returns the canonical form of the raw k-node code raw, computing it
// on first use.
func (t *CanonTable) Of(raw uint64) Code {
	slot := &t.slots[raw]
	if c := slot.Load(); c != 0 {
		return Code{Lo: uint64(c &^ canonFilled)}
	}
	canon := Canonical(t.k, Code{Lo: raw})
	slot.Store(uint32(canon.Lo) | canonFilled)
	return canon
}
