package serve

// Wire types of the HTTP API, shared by the /v1 handlers and the legacy
// single-graph aliases. Everything in this file is a JSON contract:
// field additions must be backward compatible (omitempty on anything the
// legacy endpoints don't set) and nothing here may depend on handler
// internals.

// CountRequest is the JSON body of POST /count and
// POST /v1/graphs/{name}/count, and the element type of a batch's query
// list. Every field is optional: the zero value runs 100k naive samples
// at seed 1, the defaults of the library's Query.
type CountRequest struct {
	// Strategy is "naive" (default) or "ags".
	Strategy string `json:"strategy"`
	// Samples is the sampling budget. Default 100000.
	Samples int `json:"samples"`
	// Seed makes the query reproducible. Default 1. A query whose seed is
	// set explicitly (non-zero) is eligible for the server's seeded-result
	// cache; omitting it (or sending 0) bypasses the cache.
	Seed int64 `json:"seed"`
	// CoverThreshold is AGS's c̄. Default 1000.
	CoverThreshold int `json:"coverThreshold"`
	// SampleWorkers parallelizes the query across urn clones.
	SampleWorkers int `json:"sampleWorkers"`
	// Top truncates the response to the N largest estimates (0 = all).
	Top int `json:"top"`

	// Epsilon and Delta switch the query into run-to-precision mode: the
	// server samples until the estimate is certified within relative error
	// epsilon at confidence 1-delta (Theorem 3 of the paper), instead of
	// drawing a fixed budget. Mutually exclusive with Samples; requires the
	// "ags" strategy (the default when a precision field is set). Delta
	// defaults to 0.05 when only epsilon is sent.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// TargetMotif names the single canonical graphlet code (e.g. "g3b") the
	// certificate must cover; empty certifies every tallied motif.
	TargetMotif string `json:"targetMotif"`
	// MaxSamples caps a run-to-precision query's draws (0 = the engine's
	// default cap). The response's achieved.met reports whether the target
	// precision was reached within the cap.
	MaxSamples int `json:"maxSamples"`
}

// AchievedInfo is the precision certificate of a run-to-precision query.
type AchievedInfo struct {
	// Eps is the certified relative error at confidence 1-delta; absent
	// when nothing was certifiable (the bound was vacuous at the cap).
	Eps *float64 `json:"eps,omitempty"`
	// Delta is the requested confidence parameter the certificate is at.
	Delta float64 `json:"delta"`
	// Samples is the number of draws the run actually made.
	Samples int `json:"samples"`
	// Met reports whether the certified eps reached the requested epsilon.
	Met bool `json:"met"`
}

// CountEstimate is one graphlet's estimate in a CountResponse.
type CountEstimate struct {
	// Code is the canonical graphlet code; Description a human-readable
	// rendering ("5-clique", "4-star", …).
	Code        string  `json:"code"`
	Description string  `json:"description"`
	Count       float64 `json:"count"`
	Frequency   float64 `json:"frequency"`
}

// CountResponse is the JSON body answering a count query. Graph is set by
// the /v1 handlers only; the legacy /count endpoint (which serves exactly
// one graph) omits it, keeping its historical body byte-stable.
type CountResponse struct {
	Graph        string          `json:"graph,omitempty"`
	K            int             `json:"k"`
	Strategy     string          `json:"strategy"`
	Samples      int             `json:"samples"`
	Covered      int             `json:"covered"`
	SampleTimeMs float64         `json:"sampleTimeMs"`
	Achieved     *AchievedInfo   `json:"achieved,omitempty"`
	Counts       []CountEstimate `json:"counts"`
}

// SignaturesRequest is the JSON body of POST /v1/graphs/{name}/signatures.
// The sampling fields mean exactly what they do on a count query (including
// the run-to-precision fields); Nodes and TopNodes shape the per-node
// output only.
type SignaturesRequest struct {
	Strategy       string  `json:"strategy"`
	Samples        int     `json:"samples"`
	Seed           int64   `json:"seed"`
	CoverThreshold int     `json:"coverThreshold"`
	SampleWorkers  int     `json:"sampleWorkers"`
	Epsilon        float64 `json:"epsilon"`
	Delta          float64 `json:"delta"`
	TargetMotif    string  `json:"targetMotif"`
	MaxSamples     int     `json:"maxSamples"`
	// Nodes restricts the signatures to these vertex ids; empty means every
	// node touched by at least one sample.
	Nodes []int32 `json:"nodes"`
	// TopNodes truncates the response to the N nodes with the largest
	// incidence totals. 0 defaults to 50 when Nodes is empty (whole-graph
	// responses would otherwise scale with the graph) and to "all" when an
	// explicit node list was sent.
	TopNodes int `json:"topNodes"`
}

// SignatureMotif is one tallied motif in a SignaturesResponse; every node
// vector aligns index-for-index with the motifs list.
type SignatureMotif struct {
	Code        string `json:"code"`
	Description string `json:"description"`
}

// SignatureNode is one node's graphlet degree vector.
type SignatureNode struct {
	Node int32 `json:"node"`
	// Total is the number of sampled occurrences touching the node.
	Total int64 `json:"total"`
	// Vector is the per-motif incidence tally, aligned with motifs.
	Vector []int64 `json:"vector"`
}

// SignaturesResponse answers POST /v1/graphs/{name}/signatures. Nodes are
// ordered by descending total (ties by ascending id), after TopNodes
// truncation.
type SignaturesResponse struct {
	Graph        string           `json:"graph"`
	K            int              `json:"k"`
	Strategy     string           `json:"strategy"`
	Samples      int              `json:"samples"`
	Covered      int              `json:"covered"`
	SampleTimeMs float64          `json:"sampleTimeMs"`
	Achieved     *AchievedInfo    `json:"achieved,omitempty"`
	Motifs       []SignatureMotif `json:"motifs"`
	Nodes        []SignatureNode  `json:"nodes"`
}

// BatchRequest is the JSON body of POST /v1/batch: a list of queries
// answered off one engine resolution of a single named graph.
type BatchRequest struct {
	// Graph names the registered graph every query in the batch runs
	// against. Empty means the server's default graph.
	Graph string `json:"graph"`
	// Queries is the per-entry query list (same schema as /count bodies).
	Queries []CountRequest `json:"queries"`
}

// BatchResult is one entry's outcome in a BatchResponse: exactly one of
// Count or Error is set. A bad entry fails alone — it does not fail the
// batch.
type BatchResult struct {
	Count *CountResponse `json:"count,omitempty"`
	Error string         `json:"error,omitempty"`
	// Code is the machine-readable error code (see errorResponse).
	Code string `json:"code,omitempty"`
}

// BatchResponse answers POST /v1/batch; Results aligns index-for-index
// with the request's Queries.
type BatchResponse struct {
	Graph   string        `json:"graph"`
	Results []BatchResult `json:"results"`
}

// GraphInfo is one registered graph in a GraphsResponse.
type GraphInfo struct {
	Name string `json:"name"`
	// Resident reports whether the graph's engine is currently loaded
	// (false after an LRU eviction; the next query reloads it).
	Resident bool  `json:"resident"`
	K        int   `json:"k"`
	Nodes    int   `json:"nodes"`
	Edges    int64 `json:"edges"`
	// TableBytes is the graph's packed table payload; MappedBytes the part
	// served off a read-only file mapping (0 when the table was loaded
	// onto the heap).
	TableBytes  int64   `json:"tableBytes"`
	MappedBytes int64   `json:"mappedBytes"`
	OpenMs      float64 `json:"openMs"`
	Opens       int64   `json:"opens"`
	Queries     int64   `json:"queries"`
}

// GraphsResponse is the JSON body answering GET /v1/graphs.
type GraphsResponse struct {
	Graphs []GraphInfo `json:"graphs"`
}

// Stats is the JSON body answering the legacy GET /stats: the default
// graph's engine statistics plus server-wide traffic counters.
type Stats struct {
	K          int   `json:"k"`
	Nodes      int   `json:"nodes"`
	Edges      int64 `json:"edges"`
	TableBytes int64 `json:"tableBytes"`
	// OpenMs is the one-time table open + urn construction cost the engine
	// amortizes over every query it serves.
	OpenMs       float64 `json:"openMs"`
	UptimeSec    float64 `json:"uptimeSec"`
	Queries      int64   `json:"queries"`
	TotalSamples int64   `json:"totalSamples"`
}

// Machine-readable error codes carried by every /v1 error response.
const (
	// codeBadRequest: the request body or parameters are malformed, or the
	// engine rejected the query (core.QueryError).
	codeBadRequest = "bad_request"
	// codeUnknownGraph: the named graph is not registered.
	codeUnknownGraph = "unknown_graph"
	// codeOverloaded: the server is at its in-flight sampling limit; retry
	// after the Retry-After header.
	codeOverloaded = "overloaded"
	// codeCanceled: the query was canceled before completing.
	codeCanceled = "canceled"
	// codeInternal: an unexpected server-side failure, such as a table
	// that failed to reopen.
	codeInternal = "internal"
)

// errorResponse is the JSON body of every error answer. Error is the
// human-readable message; Code the stable machine-readable class (always
// set on /v1 responses).
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
