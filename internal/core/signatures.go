package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/treelet"
)

// SignatureStreams is the fixed number of deterministic sampling streams a
// signatures query decomposes into, independent of SampleWorkers. Pinning
// the decomposition is what makes per-node vectors bit-identical for a
// fixed seed at any physical worker count; 8 streams keep up to 8 cores
// busy without inflating the per-stream accumulator count.
const SignatureStreams = 8

// NodeSignature is one node's graphlet degree vector (GDV): how many of
// the query's sampled graphlet occurrences touched the node, per motif.
type NodeSignature struct {
	// Node is the vertex id in the host graph.
	Node int32
	// Total is the number of sampled occurrences touching the node — the
	// sum of Counts.
	Total int64
	// Counts is the per-motif incidence tally, aligned index-for-index
	// with SignaturesResult.Motifs.
	Counts []int64
}

// SignaturesResult is the outcome of one per-node signatures query.
//
// Summing Counts over all nodes (a nil node filter) recovers exactly
// k × Tallies[motif] for every motif: each sampled occurrence touches k
// distinct vertices and contributes one tally.
type SignaturesResult struct {
	// Motifs lists the tallied canonical codes in sorted order; every
	// NodeSignature.Counts vector is aligned with it.
	Motifs []graphlet.Code
	// Nodes holds the signatures in ascending node order: all touched
	// nodes when the query's node filter was empty, otherwise exactly the
	// requested nodes (untouched ones carry zero vectors).
	Nodes []NodeSignature
	// Tallies is the raw per-motif occurrence count over all draws.
	Tallies map[graphlet.Code]int64
	// Samples is the number of draws made; Covered the number of
	// AGS-covered graphlets (0 under the naive strategy).
	Samples int
	Covered int
	// Achieved is the precision certificate of a run-to-precision query
	// (nil for fixed-budget queries).
	Achieved *Certificate
	// SampleTime is the wall-clock sampling duration.
	SampleTime time.Duration
	// BuildTime, OpenTime and TableBytes are filled by the one-shot
	// SignaturesContext path (zero for Engine.Signatures, which amortizes
	// those costs across queries).
	BuildTime  time.Duration
	OpenTime   time.Duration
	TableBytes int64
}

// sigAccumulator collects per-stream incidence so no locking or
// cross-stream ordering is needed; streams are merged in index order with
// commutative integer adds, keeping the result independent of scheduling.
type sigAccumulator struct {
	filter  map[int32]struct{}
	streams []sigStream
}

// sigStream is one stream's tally: its motifs numbered in order of first
// sight, and one flat map from node<<32 | motif column to the number of
// sampled occurrences of that motif touching that node.
type sigStream struct {
	cols   map[graphlet.Code]uint32
	motifs []graphlet.Code
	counts map[uint64]int64
}

func newSigAccumulator(nodes []int32, streams int) *sigAccumulator {
	a := &sigAccumulator{streams: make([]sigStream, streams)}
	if len(nodes) > 0 {
		a.filter = make(map[int32]struct{}, len(nodes))
		for _, v := range nodes {
			a.filter[v] = struct{}{}
		}
	}
	return a
}

// observe folds one draw into the stream's accumulator. Safe for
// concurrent calls with distinct stream indexes.
func (a *sigAccumulator) observe(stream int, code graphlet.Code, nodes []int32) {
	s := &a.streams[stream]
	col, ok := s.cols[code]
	if !ok {
		if s.cols == nil {
			s.cols = make(map[graphlet.Code]uint32)
			s.counts = make(map[uint64]int64)
		}
		col = uint32(len(s.motifs))
		s.cols[code] = col
		s.motifs = append(s.motifs, code)
	}
	for _, v := range nodes {
		if a.filter != nil {
			if _, ok := a.filter[v]; !ok {
				continue
			}
		}
		s.counts[uint64(v)<<32|uint64(col)]++
	}
}

// assemble merges the streams and renders the sorted, vector-aligned
// result, cutting every node's vector out of one arena. requested is the
// original node filter (nil = all touched nodes).
func (a *sigAccumulator) assemble(res *SignaturesResult, requested []int32) {
	res.Motifs = make([]graphlet.Code, 0, len(res.Tallies))
	for c := range res.Tallies {
		res.Motifs = append(res.Motifs, c)
	}
	sort.Slice(res.Motifs, func(i, j int) bool { return res.Motifs[i].Less(res.Motifs[j]) })

	// row maps each reported node to its index in ascending node order.
	row := make(map[int32]int)
	var ids []int32
	addNode := func(v int32) {
		if _, seen := row[v]; !seen {
			row[v] = 0
			ids = append(ids, v)
		}
	}
	if requested != nil {
		for _, v := range requested {
			addNode(v)
		}
	} else {
		for i := range a.streams {
			for key := range a.streams[i].counts {
				addNode(int32(key >> 32))
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	m := len(res.Motifs)
	arena := make([]int64, len(ids)*m)
	res.Nodes = make([]NodeSignature, len(ids))
	for i, v := range ids {
		row[v] = i
		res.Nodes[i] = NodeSignature{Node: v, Counts: arena[i*m : (i+1)*m : (i+1)*m]}
	}
	var motifOf []int // stream column → index in res.Motifs
	for i := range a.streams {
		s := &a.streams[i]
		motifOf = motifOf[:0]
		for _, c := range s.motifs {
			motifOf = append(motifOf, sort.Search(m, func(j int) bool { return !res.Motifs[j].Less(c) }))
		}
		for key, n := range s.counts {
			sig := &res.Nodes[row[int32(key>>32)]]
			sig.Counts[motifOf[uint32(key)]] += n
			sig.Total += n
		}
	}
}

// Signatures serves one per-node graphlet signature query: the same
// sampling run as Count (draw — same strategies, budgets and precision
// mode), with every draw's vertex incidence streamed into per-node
// motif-count vectors instead of an estimate. nodes, when non-empty,
// restricts the vectors to those vertices (the sampling itself is
// unchanged); an empty or nil slice returns every node touched by at least
// one sample.
//
// Signatures pins its stream decomposition to SignatureStreams, so for a
// fixed seed the vectors are bit-identical at any SampleWorkers count —
// unlike Count, whose draw sequence follows the worker count.
func (e *Engine) Signatures(ctx context.Context, q Query, nodes []int32) (*SignaturesResult, error) {
	if len(nodes) == 0 {
		nodes = nil // empty and nil both mean "all touched nodes"
	}
	for _, v := range nodes {
		if v < 0 || int(v) >= e.g.NumNodes() {
			return nil, queryErrorf("core: node %d out of range [0, %d)", v, e.g.NumNodes())
		}
	}
	acc := newSigAccumulator(nodes, SignatureStreams)
	run, tallies, err := e.draw(ctx, q, SignatureStreams, acc.observe)
	if err != nil {
		return nil, err
	}
	res := &SignaturesResult{
		Tallies:    tallies,
		Samples:    run.Samples,
		Covered:    run.Covered,
		Achieved:   run.Achieved,
		SampleTime: run.SampleTime,
	}
	acc.assemble(res, nodes)
	return res, nil
}

// Signatures is the one-shot form of Engine.Signatures, mirroring Count:
// acquire the engine for run 0 of the config (Config.engine builds or
// opens its table), then serve a single signatures query through it.
func Signatures(g *graph.Graph, cfg Config, nodes []int32) (*SignaturesResult, error) {
	return SignaturesContext(context.Background(), g, cfg, nodes)
}

// SignaturesContext is Signatures honoring a context.
func SignaturesContext(ctx context.Context, g *graph.Graph, cfg Config, nodes []int32) (*SignaturesResult, error) {
	if err := cfg.validateRun(); err != nil {
		return nil, err
	}
	if cfg.Colorings > 1 {
		return nil, fmt.Errorf("core: signatures require Colorings == 1 (incidence tallies are per-coloring), got %d", cfg.Colorings)
	}
	eng, stats, err := cfg.engine(ctx, g, 0, treelet.NewCatalog(cfg.K), estimate.NewSigma(cfg.K))
	if err != nil {
		return nil, err
	}
	res, err := eng.Signatures(ctx, cfg.query(cfg.Seed), nodes)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		res.BuildTime = stats.Duration
	}
	st := eng.Stats()
	res.OpenTime, res.TableBytes = st.OpenTime, st.TableBytes
	return res, nil
}
