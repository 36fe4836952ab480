// Package serve exposes an engine registry over HTTP — the multi-tenant
// serving layer of the build-once / query-many workflow. One process
// holds many named graphs; engines are opened once, LRU-evicted under a
// memory budget and transparently reopened; repeated explicitly-seeded
// queries are answered from the registry's result cache without sampling.
// Concurrent requests are race-safe because each query samples from its
// own urn clone, and a client disconnect cancels the request's sampling
// loop through the request context.
//
// Versioned API:
//
//	POST /v1/graphs/{name}/count   one query against a named graph
//	POST /v1/batch                 a query list off one engine resolution
//	GET  /v1/graphs                every registered graph + residency
//	GET  /metrics                  Prometheus text format
//
// Legacy single-graph API, aliased onto the default graph so pre-v1
// clients keep working:
//
//	POST /count   {"strategy":"ags","samples":50000,"seed":7,"top":10}
//	GET  /stats   engine + traffic statistics (open time, queries, …)
//	GET  /healthz liveness probe
//
// Admission control: Config.MaxInflight bounds concurrent sampling
// requests; beyond it the server answers 429 with a Retry-After header
// instead of queueing unbounded sampling work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphlet"
	"repro/internal/registry"
)

// Config parameterizes New.
type Config struct {
	// Registry is the engine registry to serve (required).
	Registry *registry.Registry
	// DefaultGraph is the registered name the legacy /count and /stats
	// endpoints alias onto. Empty means the first registered name in List
	// order.
	DefaultGraph string
	// MaxInflight caps concurrent sampling requests (a batch counts as
	// one); beyond it requests answer 429 + Retry-After. 0 = unlimited.
	MaxInflight int
	// ErrorLog receives response-encoding failures and other server-side
	// faults; nil means log.Default().
	ErrorLog *log.Logger
}

// batchConcurrency bounds how many of a batch's entries sample at once;
// each concurrent entry gets its own urn clone off the shared engine.
const batchConcurrency = 4

// maxBatchEntries bounds a batch's query list; beyond it the request is a
// 400, not a way to queue unbounded work behind one admission slot.
const maxBatchEntries = 256

// Server is an http.Handler serving count queries from a registry.
type Server struct {
	reg          *registry.Registry
	defaultGraph string
	mux          *http.ServeMux
	started      time.Time
	log          *log.Logger

	// inflight is the admission semaphore (nil = unlimited); rejected
	// counts the requests turned away at the limit.
	inflight chan struct{}
	rejected atomic.Int64
}

// New wraps a registry into the HTTP API.
func New(cfg Config) *Server {
	s := &Server{
		reg:          cfg.Registry,
		defaultGraph: cfg.DefaultGraph,
		mux:          http.NewServeMux(),
		started:      time.Now(),
		log:          cfg.ErrorLog,
	}
	if s.log == nil {
		s.log = log.Default()
	}
	if s.defaultGraph == "" {
		if names := s.reg.List(); len(names) > 0 {
			s.defaultGraph = names[0].Name
		}
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	// v1 routes are registered without method patterns on purpose: the
	// mux's automatic 405 writes a plain-text body, and every v1 error —
	// including wrong methods — must be a JSON errorResponse with a code.
	s.mux.HandleFunc("/v1/graphs/{name}/count", s.handleV1Count)
	s.mux.HandleFunc("/v1/graphs/{name}/signatures", s.handleV1Signatures)
	s.mux.HandleFunc("/v1/graphs", s.handleV1Graphs)
	s.mux.HandleFunc("/v1/batch", s.handleV1Batch)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/count", s.handleCount)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON writes v as an indented JSON response. Encode errors past the
// committed header can't change the status anymore, but they are logged —
// a response dying halfway is an operational signal, not noise to drop.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Printf("serve: encoding %d response: %v", status, err)
	}
}

// writeV1JSON is writeJSON for the versioned API: seeded responses are
// reproducible but cache semantics belong to the server's own result
// cache, so intermediaries are told never to store them.
func (s *Server) writeV1JSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Cache-Control", "no-store")
	s.writeJSON(w, status, v)
}

func (s *Server) v1Error(w http.ResponseWriter, status int, code, msg string) {
	s.writeV1JSON(w, status, errorResponse{Error: msg, Code: code})
}

// v1Fail answers a failed query with the status errorStatus assigns it,
// unless the client is already gone and there is nobody to answer.
func (s *Server) v1Fail(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		return
	}
	status, code := errorStatus(err)
	s.v1Error(w, status, code, err.Error())
}

// admit acquires an admission slot (always succeeds when unlimited).
func (s *Server) admit() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		s.rejected.Add(1)
		return false
	}
}

func (s *Server) release() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// overloaded answers a request turned away by admission control.
func (s *Server) overloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	s.v1Error(w, http.StatusTooManyRequests, codeOverloaded,
		"server is at its in-flight sampling limit; retry shortly")
}

// maxCountBody bounds the /count request body: queries are a handful of
// scalar fields; a megabyte bounds any honest request and stops hostile
// bodies from buffering into server memory. Batch bodies scale it by the
// entry limit's order of magnitude.
const maxCountBody = 1 << 20
const maxBatchBody = 4 << 20

// queryFromRequest validates and defaults one wire-level query into an
// engine query — the single translation used by /count, /v1 count and
// every batch entry. The request's own fields are left as sent, so the
// caller can still see whether the seed was explicit (req.Seed != 0).
func queryFromRequest(req *CountRequest) (core.Query, error) {
	precision := req.Epsilon != 0 || req.Delta != 0 || req.TargetMotif != "" || req.MaxSamples != 0
	strategy := core.Naive
	if precision {
		// Run-to-precision is an AGS guarantee; default the strategy rather
		// than making every precision client spell it out.
		strategy = core.AGS
	}
	if req.Strategy != "" {
		var err error
		if strategy, err = core.ParseStrategy(req.Strategy); err != nil {
			return core.Query{}, err
		}
	}
	if req.Top < 0 {
		return core.Query{}, fmt.Errorf("top must be ≥ 0, got %d", req.Top)
	}
	q := core.Query{
		Strategy:       strategy,
		Samples:        req.Samples,
		CoverThreshold: req.CoverThreshold,
		Seed:           req.Seed,
		SampleWorkers:  req.SampleWorkers,
		Epsilon:        req.Epsilon,
		Delta:          req.Delta,
		MaxSamples:     req.MaxSamples,
	}
	if req.TargetMotif != "" {
		target, err := graphlet.ParseCode(req.TargetMotif)
		if err != nil {
			return core.Query{}, err
		}
		q.TargetMotif = target
	}
	if precision {
		if q.Delta == 0 {
			q.Delta = 0.05
		}
	} else if q.Samples == 0 {
		q.Samples = 100000
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	// One validation path for every entry point (satellite of the paper's
	// serving story): the engine's own Query.Validate.
	if err := q.Validate(); err != nil {
		return core.Query{}, err
	}
	return q, nil
}

// decodeBody decodes a request body holding one JSON object into v — the
// one strict decoder behind count, signatures and batch bodies: unknown
// fields and trailing data are errors, and an empty body leaves v at its
// zero value (every field of every request is optional).
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		// One JSON value is the whole request; trailing data is a malformed
		// request, not something to silently ignore.
		return fmt.Errorf("bad request body: trailing data after the request object")
	}
	return nil
}

// decodeCountRequest parses and validates a count body into an engine
// query. It is total: any input bytes produce either a valid query or a
// descriptive error, never a panic — the property FuzzCountRequest checks.
// An empty body is the all-defaults query.
func decodeCountRequest(body io.Reader) (core.Query, *CountRequest, error) {
	var req CountRequest
	if err := decodeBody(body, &req); err != nil {
		return core.Query{}, nil, err
	}
	q, err := queryFromRequest(&req)
	if err != nil {
		return core.Query{}, nil, err
	}
	return q, &req, nil
}

// errorStatus is the one classifier of serving errors, by type rather than
// by endpoint: a query the engine rejected (core.QueryError — a bad
// budget, target motif or node id) is the client's fault, an unregistered
// graph is not found, a canceled or expired request is unavailable, and
// anything else — a table that failed to reopen, a corrupt record — is an
// internal fault.
func errorStatus(err error) (int, string) {
	var bad *core.QueryError
	var unknown *registry.UnknownGraphError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest, codeBadRequest
	case errors.As(err, &unknown):
		return http.StatusNotFound, codeUnknownGraph
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, codeCanceled
	}
	return http.StatusInternalServerError, codeInternal
}

// countOn resolves one decoded query against a named graph and renders the
// response; errors are classified by errorStatus.
func (s *Server) countOn(ctx context.Context, name string, q core.Query, req *CountRequest) (*CountResponse, bool, error) {
	// An explicit seed makes the run deterministic and therefore cacheable;
	// seed 0/unset means "default seed" and always samples afresh.
	seeded := req.Seed != 0
	qres, hit, err := s.reg.Count(ctx, name, q, seeded)
	if err != nil {
		return nil, false, err
	}
	// K comes from the registry's metadata, not the engine: a cache hit
	// must not force an evicted engine back into memory just to render.
	k, _, err := s.reg.Meta(name)
	if err != nil {
		return nil, false, err
	}
	return renderCountResponse(k, q.Strategy, req.Top, qres), hit, nil
}

// renderCountResponse renders a query result with estimates in
// deterministic largest-first order, so a cached result re-renders to the
// exact bytes its cold run produced. Sorting and truncation run on the raw
// codes first; the Describe/format work happens only for the entries
// actually served.
func renderCountResponse(k int, strategy core.Strategy, top int, qres *core.QueryResult) *CountResponse {
	type rawEstimate struct {
		code  graphlet.Code
		count float64
	}
	raw := make([]rawEstimate, 0, len(qres.Counts))
	for code, c := range qres.Counts {
		raw = append(raw, rawEstimate{code, c})
	}
	sort.Slice(raw, func(i, j int) bool {
		if raw[i].count != raw[j].count {
			return raw[i].count > raw[j].count
		}
		return raw[i].code.Less(raw[j].code)
	})
	if top > 0 && top < len(raw) {
		raw = raw[:top]
	}
	resp := &CountResponse{
		K:            k,
		Strategy:     strategy.String(),
		Samples:      qres.Samples,
		Covered:      qres.Covered,
		SampleTimeMs: float64(qres.SampleTime.Microseconds()) / 1000,
		Achieved:     renderAchieved(qres.Achieved),
		Counts:       make([]CountEstimate, 0, len(raw)),
	}
	for _, e := range raw {
		resp.Counts = append(resp.Counts, CountEstimate{
			Code:        e.code.String(),
			Description: graphlet.Describe(k, e.code),
			Count:       e.count,
			Frequency:   qres.Frequencies[e.code],
		})
	}
	return resp
}

// renderAchieved maps an engine certificate onto the wire. A +Inf achieved
// eps (nothing certifiable) has no JSON encoding, so it renders as an
// absent eps field rather than a sentinel number.
func renderAchieved(c *core.Certificate) *AchievedInfo {
	if c == nil {
		return nil
	}
	info := &AchievedInfo{Delta: c.Delta, Samples: c.Samples, Met: c.Met}
	if !math.IsInf(c.Eps, 1) {
		eps := c.Eps
		info.Eps = &eps
	}
	return info
}

// handleV1Count serves POST /v1/graphs/{name}/count.
func (s *Server) handleV1Count(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.v1Error(w, http.StatusMethodNotAllowed, codeBadRequest, "POST a JSON query to this endpoint")
		return
	}
	name := r.PathValue("name")
	query, req, err := decodeCountRequest(http.MaxBytesReader(w, r.Body, maxCountBody))
	if err != nil {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if !s.admit() {
		s.overloaded(w)
		return
	}
	defer s.release()
	resp, hit, err := s.countOn(r.Context(), name, query, req)
	if err != nil {
		s.v1Fail(w, r, err)
		return
	}
	resp.Graph = name
	// The cache disposition rides in a header so hit and miss bodies stay
	// byte-identical (the acceptance property of the result cache).
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	s.writeV1JSON(w, http.StatusOK, resp)
}

// defaultTopNodes bounds a whole-graph signatures response when the client
// didn't say how many nodes it wants: every touched node would scale the
// body with the graph, not the query.
const defaultTopNodes = 50

// handleV1Signatures serves POST /v1/graphs/{name}/signatures: one
// sampling run whose per-draw vertex incidence is folded into per-node
// graphlet degree vectors. The sampling fields behave exactly like a count
// query's; results are never cached (bodies are per-node and large, and
// the engine's fixed stream decomposition already makes seeded runs
// reproducible at any worker count).
func (s *Server) handleV1Signatures(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.v1Error(w, http.StatusMethodNotAllowed, codeBadRequest, "POST a JSON query to this endpoint")
		return
	}
	name := r.PathValue("name")
	var req SignaturesRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxCountBody), &req); err != nil {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if req.TopNodes < 0 {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest, fmt.Sprintf("topNodes must be ≥ 0, got %d", req.TopNodes))
		return
	}
	// The sampling fields translate through the same single path as every
	// count entry point, so defaults and validation cannot drift.
	creq := CountRequest{
		Strategy:       req.Strategy,
		Samples:        req.Samples,
		Seed:           req.Seed,
		CoverThreshold: req.CoverThreshold,
		SampleWorkers:  req.SampleWorkers,
		Epsilon:        req.Epsilon,
		Delta:          req.Delta,
		TargetMotif:    req.TargetMotif,
		MaxSamples:     req.MaxSamples,
	}
	q, err := queryFromRequest(&creq)
	if err != nil {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if !s.admit() {
		s.overloaded(w)
		return
	}
	defer s.release()
	sres, err := s.reg.Signatures(r.Context(), name, q, req.Nodes)
	if err != nil {
		s.v1Fail(w, r, err)
		return
	}
	k, _, err := s.reg.Meta(name)
	if err != nil {
		s.v1Fail(w, r, err)
		return
	}
	s.writeV1JSON(w, http.StatusOK, renderSignaturesResponse(name, k, q.Strategy, &req, sres))
}

// renderSignaturesResponse orders nodes by descending incidence total (ties
// by ascending id) and truncates to the requested top-m before the
// Describe/format work runs.
func renderSignaturesResponse(name string, k int, strategy core.Strategy, req *SignaturesRequest, sres *core.SignaturesResult) *SignaturesResponse {
	nodes := make([]core.NodeSignature, len(sres.Nodes))
	copy(nodes, sres.Nodes)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Total != nodes[j].Total {
			return nodes[i].Total > nodes[j].Total
		}
		return nodes[i].Node < nodes[j].Node
	})
	top := req.TopNodes
	if top == 0 && len(req.Nodes) == 0 {
		top = defaultTopNodes
	}
	if top > 0 && top < len(nodes) {
		nodes = nodes[:top]
	}
	resp := &SignaturesResponse{
		Graph:        name,
		K:            k,
		Strategy:     strategy.String(),
		Samples:      sres.Samples,
		Covered:      sres.Covered,
		SampleTimeMs: float64(sres.SampleTime.Microseconds()) / 1000,
		Achieved:     renderAchieved(sres.Achieved),
		Motifs:       make([]SignatureMotif, 0, len(sres.Motifs)),
		Nodes:        make([]SignatureNode, 0, len(nodes)),
	}
	for _, c := range sres.Motifs {
		resp.Motifs = append(resp.Motifs, SignatureMotif{Code: c.String(), Description: graphlet.Describe(k, c)})
	}
	for _, n := range nodes {
		resp.Nodes = append(resp.Nodes, SignatureNode{Node: n.Node, Total: n.Total, Vector: n.Counts})
	}
	return resp
}

// handleV1Graphs serves GET /v1/graphs.
func (s *Server) handleV1Graphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.v1Error(w, http.StatusMethodNotAllowed, codeBadRequest, "GET /v1/graphs")
		return
	}
	infos := s.reg.List()
	resp := GraphsResponse{Graphs: make([]GraphInfo, 0, len(infos))}
	for _, in := range infos {
		resp.Graphs = append(resp.Graphs, GraphInfo{
			Name:        in.Name,
			Resident:    in.Resident,
			K:           in.K,
			Nodes:       in.Nodes,
			Edges:       in.Edges,
			TableBytes:  in.TableBytes,
			MappedBytes: in.MappedBytes,
			OpenMs:      float64(in.OpenTime.Microseconds()) / 1000,
			Opens:       in.Opens,
			Queries:     in.Queries,
		})
	}
	s.writeV1JSON(w, http.StatusOK, resp)
}

// handleV1Batch serves POST /v1/batch: the whole list runs against one
// named graph, resolved (and, if evicted, reopened) exactly once; entries
// sample concurrently up to batchConcurrency, each on its own urn clone.
// A bad entry answers inside its own slot; it does not fail the batch.
func (s *Server) handleV1Batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.v1Error(w, http.StatusMethodNotAllowed, codeBadRequest, "POST a JSON batch to /v1/batch")
		return
	}
	var breq BatchRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxBatchBody), &breq); err != nil {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if len(breq.Queries) == 0 {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest, "batch needs a non-empty queries list")
		return
	}
	if len(breq.Queries) > maxBatchEntries {
		s.v1Error(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("batch is limited to %d queries, got %d", maxBatchEntries, len(breq.Queries)))
		return
	}
	name := breq.Graph
	if name == "" {
		name = s.defaultGraph
	}
	if !s.admit() {
		s.overloaded(w)
		return
	}
	defer s.release()
	// One engine resolution for the whole batch: the expensive part of
	// serving an evicted graph (table open + urn build) happens here once;
	// per-entry Counts then find the engine resident.
	if _, err := s.reg.Get(r.Context(), name); err != nil {
		s.v1Fail(w, r, err)
		return
	}
	results := make([]BatchResult, len(breq.Queries))
	sem := make(chan struct{}, batchConcurrency)
	done := make(chan int)
	for i := range breq.Queries {
		go func(i int) {
			defer func() { done <- i }()
			sem <- struct{}{}
			defer func() { <-sem }()
			req := &breq.Queries[i]
			q, err := queryFromRequest(req)
			if err != nil {
				results[i] = BatchResult{Error: err.Error(), Code: codeBadRequest}
				return
			}
			resp, _, err := s.countOn(r.Context(), name, q, req)
			if err != nil {
				_, code := errorStatus(err)
				results[i] = BatchResult{Error: err.Error(), Code: code}
				return
			}
			results[i] = BatchResult{Count: resp}
		}(i)
	}
	for range breq.Queries {
		<-done
	}
	if r.Context().Err() != nil {
		return // client gone mid-batch; drop the partial answer
	}
	s.writeV1JSON(w, http.StatusOK, BatchResponse{Graph: name, Results: results})
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format — counters for queries, samples, the result cache, evictions and
// admission control, plus per-graph open cost and traffic.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET /metrics", http.StatusMethodNotAllowed)
		return
	}
	st := s.reg.Stats()
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("motivo_queries_total", "Count and signature queries served (fresh and cached).", st.Queries)
	counter("motivo_samples_total", "Samples drawn across all queries (cache hits draw none).", st.Samples)
	counter("motivo_signature_queries_total", "Per-node signature queries served.", st.SignatureQueries)
	counter("motivo_precision_queries_total", "Run-to-precision queries served.", st.PrecisionQueries)
	counter("motivo_precision_met_total", "Run-to-precision queries whose certificate met the requested epsilon.", st.PrecisionMet)
	counter("motivo_result_cache_hits_total", "Seeded-result cache hits.", st.CacheHits)
	counter("motivo_result_cache_misses_total", "Seeded-result cache misses.", st.CacheMisses)
	gauge("motivo_result_cache_entries", "Seeded-result cache entries resident.", float64(st.CacheEntries))
	counter("motivo_engine_evictions_total", "Engines evicted under the memory budget or by request.", st.Evictions)
	counter("motivo_rejected_total", "Requests rejected by admission control (429).", s.rejected.Load())
	gauge("motivo_graphs_registered", "Graphs registered.", float64(st.Graphs))
	gauge("motivo_graphs_resident", "Graphs with a loaded engine.", float64(st.Resident))
	gauge("motivo_resident_table_bytes", "Summed heap table payload of resident engines (what the memory budget caps).", float64(st.ResidentBytes))
	gauge("motivo_mapped_table_bytes", "Summed memory-mapped table bytes of resident engines (page-cache residency, not budgeted).", float64(st.MappedBytes))
	gauge("motivo_mem_budget_bytes", "Configured resident-table budget (0 = unlimited).", float64(st.MemBudget))
	gauge("motivo_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())

	infos := s.reg.List()
	fmt.Fprintf(&b, "# HELP motivo_graph_open_seconds Duration of the graph's most recent table open.\n# TYPE motivo_graph_open_seconds gauge\n")
	for _, in := range infos {
		fmt.Fprintf(&b, "motivo_graph_open_seconds{graph=%q} %g\n", in.Name, in.OpenTime.Seconds())
	}
	fmt.Fprintf(&b, "# HELP motivo_graph_opens_total Table loads (first open plus reloads after eviction).\n# TYPE motivo_graph_opens_total counter\n")
	for _, in := range infos {
		fmt.Fprintf(&b, "motivo_graph_opens_total{graph=%q} %d\n", in.Name, in.Opens)
	}
	fmt.Fprintf(&b, "# HELP motivo_graph_queries_total Queries served per graph.\n# TYPE motivo_graph_queries_total counter\n")
	for _, in := range infos {
		fmt.Fprintf(&b, "motivo_graph_queries_total{graph=%q} %d\n", in.Name, in.Queries)
	}
	fmt.Fprintf(&b, "# HELP motivo_graph_table_bytes Packed table payload per graph (last known when evicted).\n# TYPE motivo_graph_table_bytes gauge\n")
	for _, in := range infos {
		fmt.Fprintf(&b, "motivo_graph_table_bytes{graph=%q} %d\n", in.Name, in.TableBytes)
	}
	fmt.Fprintf(&b, "# HELP motivo_graph_resident Whether the graph's engine is loaded.\n# TYPE motivo_graph_resident gauge\n")
	for _, in := range infos {
		resident := 0
		if in.Resident {
			resident = 1
		}
		fmt.Fprintf(&b, "motivo_graph_resident{graph=%q} %d\n", in.Name, resident)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := io.WriteString(w, b.String()); err != nil {
		s.log.Printf("serve: writing /metrics: %v", err)
	}
}

// handleCount serves the legacy POST /count as a thin alias onto the
// default graph: same decoding, same registry path (including the result
// cache and admission control), historical response shape.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST a JSON query to /count", Code: codeBadRequest})
		return
	}
	query, req, err := decodeCountRequest(http.MaxBytesReader(w, r.Body, maxCountBody))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Code: codeBadRequest})
		return
	}
	if !s.admit() {
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: "server is at its in-flight sampling limit; retry shortly", Code: codeOverloaded})
		return
	}
	defer s.release()
	resp, _, err := s.countOn(r.Context(), s.defaultGraph, query, req)
	if err != nil {
		if r.Context().Err() != nil {
			return // the client is gone; there is nobody to answer
		}
		status, code := errorStatus(err)
		s.writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleStats serves the legacy GET /stats: the default graph's engine
// statistics plus server-wide traffic counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET /stats", Code: codeBadRequest})
		return
	}
	eng, err := s.reg.Get(r.Context(), s.defaultGraph)
	if err != nil {
		status, code := errorStatus(err)
		s.writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
		return
	}
	est := eng.Stats()
	rst := s.reg.Stats()
	s.writeJSON(w, http.StatusOK, Stats{
		K:            est.K,
		Nodes:        est.Nodes,
		Edges:        est.Edges,
		TableBytes:   est.TableBytes,
		OpenMs:       float64(est.OpenTime.Microseconds()) / 1000,
		UptimeSec:    time.Since(s.started).Seconds(),
		Queries:      rst.Queries,
		TotalSamples: rst.Samples,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
