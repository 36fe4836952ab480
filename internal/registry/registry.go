// Package registry is the multi-tenant serving core: a named collection
// of query engines behind one process, so a single `motivo serve` can
// hold many graphs and absorb repeated queries cheaply.
//
// Three mechanisms make that affordable at production scale:
//
//   - LRU eviction under a memory budget: resident engines are accounted
//     by the heap part of their table payload (EngineStats.HeapBytes);
//     when the sum exceeds Config.MemBudget the least-recently-queried
//     engines are dropped, and a later query transparently reopens them
//     from the persisted table. Memory-mapped tables are page-cache
//     residency the kernel already reclaims under pressure, so their
//     bytes are tracked separately (Stats.MappedBytes) and do not consume
//     budget — evicting a mapped engine frees almost nothing, and
//     reopening one costs O(ms), which makes a mapped fleet dramatically
//     denser per host.
//   - Singleflight opens: concurrent Gets of an evicted (or still
//     loading) name share one table load instead of each paying it.
//   - A seeded-result cache: an explicitly seeded query is deterministic,
//     so an identical (graph, Query) pair short-circuits the entire
//     sampling run and returns the previously computed result.
//
// All methods are safe for concurrent use.
package registry

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Config bounds a Registry.
type Config struct {
	// MemBudget caps the total resident heap table payload in bytes;
	// engines beyond it are LRU-evicted. 0 means unlimited. A single
	// engine larger than the whole budget stays resident while in use (it
	// could not be served otherwise) but evicts everything else. Mapped
	// table bytes are page-cache residency and do not count against the
	// budget.
	MemBudget int64
	// CacheSize is the seeded-result cache capacity in entries (an
	// identical (graph, Query) with an explicit seed → the cached result);
	// 0 disables the cache.
	CacheSize int
	// MapTable selects how table files are opened (passed through to
	// core.OpenMode). With the MapAuto zero value, MvT4 tables are
	// memory-mapped: their bytes are page-cache residency (reported in
	// Stats.MappedBytes), charge almost nothing against MemBudget, and
	// evicting or reopening them is O(ms) — many more graphs fit one host.
	// Everything else heap-loads.
	MapTable core.MapMode
}

// UnknownGraphError reports a name no graph was registered under. The
// serving layer maps it to 404 + code "unknown_graph".
type UnknownGraphError struct{ Name string }

func (e *UnknownGraphError) Error() string {
	return fmt.Sprintf("registry: unknown graph %q", e.Name)
}

// Registry is a named collection of engines with LRU eviction, dedup'd
// opens and a seeded-result cache.
type Registry struct {
	budget  int64
	mapMode core.MapMode
	cache   *resultCache

	mu     sync.Mutex
	graphs map[string]*graphEntry
	// lru orders the resident entries, most recently used first; resident
	// is the sum of their heap table payloads (what MemBudget caps) and
	// mappedRes the sum of their mapped bytes (page-cache residency,
	// reported but never budgeted).
	lru       []*graphEntry
	resident  int64
	mappedRes int64

	queries     atomic.Int64 // queries served (fresh + cached)
	samples     atomic.Int64 // samples actually drawn (cache hits draw none)
	evictions   atomic.Int64 // engines dropped (budget pressure or Evict)
	sigQueries  atomic.Int64 // signatures queries served
	precQueries atomic.Int64 // run-to-precision queries served
	precMet     atomic.Int64 // ...of which certified the requested (ε, δ)
}

// graphEntry is one registered graph: the immutable source (host graph +
// table path) plus the resident engine, if any. All mutable fields are
// guarded by Registry.mu except the atomic query counter.
type graphEntry struct {
	name      string
	g         *graph.Graph
	tablePath string

	eng     *core.Engine  // nil while evicted
	opening chan struct{} // non-nil while an open is in flight
	openEng *core.Engine  // the in-flight open's outcome, valid once opening is closed
	openErr error

	k           int
	tableBytes  int64 // total payload; heapBytes + mappedBytes splits it
	heapBytes   int64
	mappedBytes int64
	openTime    time.Duration // last open's duration
	opens       int64         // first open + every reload after eviction
	queries     atomic.Int64
}

// New creates an empty registry under cfg's budget.
func New(cfg Config) *Registry {
	r := &Registry{budget: cfg.MemBudget, mapMode: cfg.MapTable, graphs: make(map[string]*graphEntry)}
	if cfg.CacheSize > 0 {
		r.cache = newResultCache(cfg.CacheSize)
	}
	return r
}

// Open registers g under name and eagerly opens its engine, so a missing
// or corrupt table fails at registration time rather than on the first
// query. Names must be unique.
func (r *Registry) Open(name string, g *graph.Graph, tablePath string) (*core.Engine, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: graph name must be non-empty")
	}
	r.mu.Lock()
	if _, ok := r.graphs[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: graph %q already registered", name)
	}
	// The opening channel is installed before the lock drops so a Get
	// racing with registration waits on this load instead of starting a
	// second one.
	e := &graphEntry{name: name, g: g, tablePath: tablePath, opening: make(chan struct{})}
	r.graphs[name] = e
	r.mu.Unlock()
	eng, err := r.open(e)
	if err != nil {
		// Registration is load-or-nothing: a name whose table never opened
		// is not kept around to 500 on every later query.
		r.mu.Lock()
		delete(r.graphs, name)
		r.mu.Unlock()
		return nil, err
	}
	return eng, nil
}

// Get returns the named engine, reopening it from the persisted table if
// it was evicted. Concurrent Gets of the same non-resident name share one
// open (singleflight); ctx bounds only the wait, not the load itself,
// which completes for the benefit of the other waiters.
func (r *Registry) Get(ctx context.Context, name string) (*core.Engine, error) {
	r.mu.Lock()
	e, ok := r.graphs[name]
	if !ok {
		r.mu.Unlock()
		return nil, &UnknownGraphError{name}
	}
	if e.eng != nil {
		r.touchLocked(e)
		eng := e.eng
		r.mu.Unlock()
		return eng, nil
	}
	if wait := e.opening; wait != nil {
		r.mu.Unlock()
		select {
		case <-wait:
			// The opener published its outcome before closing the channel.
			// Returning its engine directly (rather than re-checking
			// residency) is correct even if the entry was already evicted
			// again: engines are immutable memory, usable until GC'd.
			return e.openEng, e.openErr
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e.opening = make(chan struct{})
	r.mu.Unlock()
	return r.open(e)
}

// open loads e's table (the caller must have set e.opening under the lock,
// or hold the only reference as Open does), installs the engine, and
// applies the memory budget.
func (r *Registry) open(e *graphEntry) (*core.Engine, error) {
	start := time.Now()
	eng, err := core.OpenMode(e.g, e.tablePath, r.mapMode)
	elapsed := time.Since(start)

	r.mu.Lock()
	e.openEng, e.openErr = eng, err
	if e.opening != nil {
		close(e.opening)
		e.opening = nil
	}
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	st := eng.Stats()
	e.eng = eng
	e.k = st.K
	e.tableBytes = st.TableBytes
	e.heapBytes = st.HeapBytes
	e.mappedBytes = st.MappedBytes
	e.openTime = elapsed
	e.opens++
	r.lru = append([]*graphEntry{e}, r.lru...)
	r.resident += e.heapBytes
	r.mappedRes += e.mappedBytes
	r.enforceBudgetLocked(e)
	r.mu.Unlock()
	return eng, nil
}

// touchLocked moves e to the front of the LRU order.
func (r *Registry) touchLocked(e *graphEntry) {
	for i, o := range r.lru {
		if o == e {
			copy(r.lru[1:i+1], r.lru[:i])
			r.lru[0] = e
			return
		}
	}
}

// enforceBudgetLocked evicts least-recently-used engines until the
// resident payload fits the budget. keep (the engine just loaded for a
// live caller) is never evicted — a lone engine above the whole budget
// stays resident, it just evicts everyone else.
func (r *Registry) enforceBudgetLocked(keep *graphEntry) {
	if r.budget <= 0 {
		return
	}
	for r.resident > r.budget {
		victim := -1
		for i := len(r.lru) - 1; i >= 0; i-- {
			if r.lru[i] != keep {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		r.evictLocked(r.lru[victim])
	}
}

// evictLocked drops e's resident engine. It only releases the reference —
// never the engine's resources: outstanding Get callers may still be
// querying it (see the comment in Get), so a mapped table's mapping is
// released by its finalizer once the engine is truly unreachable.
func (r *Registry) evictLocked(e *graphEntry) {
	for i, o := range r.lru {
		if o == e {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
			break
		}
	}
	r.resident -= e.heapBytes
	r.mappedRes -= e.mappedBytes
	e.eng = nil
	r.evictions.Add(1)
}

// Evict drops the named engine's resident state; the registration stays,
// so a later Get reopens it. It reports whether an engine was resident.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if !ok || e.eng == nil {
		return false
	}
	r.evictLocked(e)
	return true
}

// Count resolves the named engine and serves one query. When cacheable is
// true (the caller saw an explicit seed) an identical previously answered
// (graph, Query) returns the cached result without sampling; hit reports
// which path answered.
func (r *Registry) Count(ctx context.Context, name string, q core.Query, cacheable bool) (res *core.QueryResult, hit bool, err error) {
	if err := q.Validate(); err != nil {
		return nil, false, err
	}
	key := cacheKey{graph: name, query: q}
	if cacheable && r.cache != nil {
		if cached, ok := r.cache.get(key); ok {
			// A hit draws nothing but re-serves its certificate.
			r.served(name, 0, cached.Achieved)
			return cached, true, nil
		}
	}
	eng, err := r.Get(ctx, name)
	if err != nil {
		return nil, false, err
	}
	qres, err := eng.Count(ctx, q)
	if err != nil {
		return nil, false, err
	}
	r.served(name, qres.Samples, qres.Achieved)
	if cacheable && r.cache != nil {
		r.cache.put(key, qres)
	}
	return qres, false, nil
}

// served advances the traffic counters for one answered query — count or
// signatures, fresh or cached: the registry-wide and per-graph query
// counts, the samples it drew, and the run-to-precision counters when it
// carries a certificate (nil for fixed-budget queries).
func (r *Registry) served(name string, samples int, cert *core.Certificate) {
	r.queries.Add(1)
	r.samples.Add(int64(samples))
	if cert != nil {
		r.precQueries.Add(1)
		if cert.Met {
			r.precMet.Add(1)
		}
	}
	if e := r.entry(name); e != nil {
		e.queries.Add(1)
	}
}

// Signatures resolves the named engine and serves one per-node signatures
// query (core.Engine.Signatures). Signature results are not cached: their
// bodies are per-node and typically orders of magnitude larger than count
// responses, and the fixed stream decomposition already makes them
// reproducible per seed on the client side.
func (r *Registry) Signatures(ctx context.Context, name string, q core.Query, nodes []int32) (*core.SignaturesResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	eng, err := r.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	res, err := eng.Signatures(ctx, q, nodes)
	if err != nil {
		return nil, err
	}
	r.sigQueries.Add(1)
	r.served(name, res.Samples, res.Achieved)
	return res, nil
}

// Meta returns the graphlet size and packed table payload size of the
// named graph's table. Both are known from registration time (Open loads
// eagerly) and do not require — or cause — the engine to be resident, so
// cache hits can be rendered without reopening an evicted engine.
func (r *Registry) Meta(name string) (k int, tableBytes int64, err error) {
	e := r.entry(name)
	if e == nil {
		return 0, 0, &UnknownGraphError{name}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return e.k, e.tableBytes, nil
}

func (r *Registry) entry(name string) *graphEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.graphs[name]
}

// Info describes one registered graph.
type Info struct {
	// Name is the registration name.
	Name string
	// Resident reports whether the engine is currently loaded.
	Resident bool
	// K is the graphlet size of the graph's table.
	K int
	// Nodes and Edges describe the host graph.
	Nodes int
	Edges int64
	// TableBytes is the packed table payload (last known when evicted);
	// MappedBytes is the part served off a read-only file mapping (0 for
	// heap-loaded tables — the mapped-vs-heap signal per graph).
	TableBytes  int64
	MappedBytes int64
	// OpenTime is the duration of the most recent table open.
	OpenTime time.Duration
	// Opens counts table loads: the first open plus every reload after an
	// eviction.
	Opens int64
	// Queries counts queries served for this graph (fresh + cached).
	Queries int64
}

// List describes every registered graph, sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, Info{
			Name:        e.name,
			Resident:    e.eng != nil,
			K:           e.k,
			Nodes:       e.g.NumNodes(),
			Edges:       e.g.NumEdges(),
			TableBytes:  e.tableBytes,
			MappedBytes: e.mappedBytes,
			OpenTime:    e.openTime,
			Opens:       e.opens,
			Queries:     e.queries.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats aggregates the registry's traffic, cache and eviction counters.
type Stats struct {
	// Graphs is the number of registered names; Resident how many of them
	// hold a loaded engine; ResidentBytes their summed heap table payload
	// (what MemBudget caps); MappedBytes their summed memory-mapped table
	// bytes (page-cache residency, never budgeted); MemBudget the
	// configured cap (0 = unlimited).
	Graphs        int
	Resident      int
	ResidentBytes int64
	MappedBytes   int64
	MemBudget     int64
	// Queries counts queries served (fresh + cached); Samples the samples
	// actually drawn (cache hits draw none).
	Queries int64
	Samples int64
	// SignatureQueries counts per-node signatures queries (also included
	// in Queries); PrecisionQueries counts run-to-precision queries, and
	// PrecisionMet how many of them certified the requested (ε, δ) before
	// their sample cap.
	SignatureQueries int64
	PrecisionQueries int64
	PrecisionMet     int64
	// CacheHits/CacheMisses count seeded-result cache lookups;
	// CacheEntries/CacheCap its current and maximum size. Unseeded queries
	// touch none of these.
	CacheHits    int64
	CacheMisses  int64
	CacheEntries int
	CacheCap     int
	// Evictions counts engines dropped, by budget pressure or Evict.
	Evictions int64
}

// Stats reports the registry-wide counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		Graphs:        len(r.graphs),
		Resident:      len(r.lru),
		ResidentBytes: r.resident,
		MappedBytes:   r.mappedRes,
		MemBudget:     r.budget,
	}
	r.mu.Unlock()
	st.Queries = r.queries.Load()
	st.Samples = r.samples.Load()
	st.SignatureQueries = r.sigQueries.Load()
	st.PrecisionQueries = r.precQueries.Load()
	st.PrecisionMet = r.precMet.Load()
	st.Evictions = r.evictions.Load()
	if r.cache != nil {
		st.CacheHits = r.cache.hits.Load()
		st.CacheMisses = r.cache.misses.Load()
		st.CacheEntries = r.cache.len()
		st.CacheCap = r.cache.cap
	}
	return st
}
