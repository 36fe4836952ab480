package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestV1Signatures: the endpoint answers per-node graphlet degree vectors,
// and — because the engine pins its stream decomposition — the decoded
// nodes and motifs are identical at any sampleWorkers count for one seed.
func TestV1Signatures(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	var base SignaturesResponse
	for i, body := range []string{
		`{"strategy":"ags","samples":3000,"seed":17,"sampleWorkers":1}`,
		`{"strategy":"ags","samples":3000,"seed":17,"sampleWorkers":4}`,
	} {
		var resp SignaturesResponse
		w := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/signatures", body, &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("POST signatures = %d: %s", w.Code, w.Body.String())
		}
		if resp.Graph != "alpha" || resp.K != 4 || resp.Samples != 3000 {
			t.Fatalf("response header fields: %+v", resp)
		}
		if len(resp.Motifs) == 0 || len(resp.Nodes) == 0 {
			t.Fatal("empty signatures response")
		}
		if len(resp.Nodes) > defaultTopNodes {
			t.Fatalf("unfiltered response returned %d nodes, default cap is %d", len(resp.Nodes), defaultTopNodes)
		}
		for _, n := range resp.Nodes {
			if len(n.Vector) != len(resp.Motifs) {
				t.Fatalf("node %d vector length %d, want %d motifs", n.Node, len(n.Vector), len(resp.Motifs))
			}
		}
		// Descending-total order (ties by ascending id).
		for j := 1; j < len(resp.Nodes); j++ {
			a, b := resp.Nodes[j-1], resp.Nodes[j]
			if a.Total < b.Total || (a.Total == b.Total && a.Node > b.Node) {
				t.Fatalf("nodes out of order at %d: %+v then %+v", j, a, b)
			}
		}
		if i == 0 {
			base = resp
			continue
		}
		if !reflect.DeepEqual(base.Nodes, resp.Nodes) || !reflect.DeepEqual(base.Motifs, resp.Motifs) {
			t.Fatal("signatures differ across sampleWorkers at the same seed")
		}
	}
}

// TestV1SignaturesNodeSelection: an explicit node list restricts the
// vectors and defeats the default top-node cap; topNodes truncates.
func TestV1SignaturesNodeSelection(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	var resp SignaturesResponse
	w := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/signatures",
		`{"samples":2000,"seed":5,"nodes":[0,1,2]}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("POST = %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Nodes) != 3 {
		t.Fatalf("explicit nodes: got %d, want 3", len(resp.Nodes))
	}
	var topped SignaturesResponse
	w = doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/signatures",
		`{"samples":2000,"seed":5,"topNodes":2}`, &topped)
	if w.Code != http.StatusOK {
		t.Fatalf("POST = %d: %s", w.Code, w.Body.String())
	}
	if len(topped.Nodes) != 2 {
		t.Fatalf("topNodes=2: got %d nodes", len(topped.Nodes))
	}
}

// TestV1SignaturesErrors: bad inputs answer structured v1 errors.
func TestV1SignaturesErrors(t *testing.T) {
	srv, reg := testV1Server(t, Config{})
	for _, tc := range []struct {
		name, target, body string
		status             int
		code               string
	}{
		{"unknown graph", "/v1/graphs/nope/signatures", `{"samples":10,"seed":1}`, http.StatusNotFound, codeUnknownGraph},
		{"bad node id", "/v1/graphs/alpha/signatures", `{"samples":10,"seed":1,"nodes":[99999]}`, http.StatusBadRequest, codeBadRequest},
		{"bad target code", "/v1/graphs/alpha/signatures", `{"epsilon":0.5,"targetMotif":"xyz"}`, http.StatusBadRequest, codeBadRequest},
		{"negative topNodes", "/v1/graphs/alpha/signatures", `{"samples":10,"topNodes":-1}`, http.StatusBadRequest, codeBadRequest},
		{"samples+epsilon", "/v1/graphs/alpha/signatures", `{"samples":10,"epsilon":0.5}`, http.StatusBadRequest, codeBadRequest},
		{"unknown field", "/v1/graphs/alpha/signatures", `{"bogus":1}`, http.StatusBadRequest, codeBadRequest},
	} {
		var er errorResponse
		w := doJSON(t, srv, http.MethodPost, tc.target, tc.body, nil)
		if w.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body.String())
			continue
		}
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Code != tc.code {
			t.Errorf("%s: code = %q (err %v), want %q", tc.name, er.Code, err, tc.code)
		}
	}
	w := doJSON(t, srv, http.MethodGet, "/v1/graphs/alpha/signatures", "", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d, want 405", w.Code)
	}

	// A graph whose table cannot be reopened is a server fault, not a bad
	// query: register one, evict it, and delete its table file.
	g := gen.ErdosRenyi(40, 100, 13)
	path := filepath.Join(t.TempDir(), "gone.tbl")
	if _, _, err := core.BuildTable(g, core.Config{K: 3, Seed: 17}, path); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("gone", g, path); err != nil {
		t.Fatal(err)
	}
	if !reg.Evict("gone") {
		t.Fatal("gone was not resident")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	w = doJSON(t, srv, http.MethodPost, "/v1/graphs/gone/signatures", `{"samples":10,"seed":1}`, nil)
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusInternalServerError || er.Code != codeInternal {
		t.Fatalf("failed reopen: status %d code %q, want 500 %q (%s)", w.Code, er.Code, codeInternal, w.Body.String())
	}
}

// TestV1PrecisionCount: a precision count query defaults to AGS, answers
// with a certificate, and the precision metrics counters advance.
func TestV1PrecisionCount(t *testing.T) {
	srv, _ := testV1Server(t, Config{})
	var resp CountResponse
	w := doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/count",
		`{"epsilon":0.5,"delta":0.2,"maxSamples":4000,"seed":3}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("POST precision count = %d: %s", w.Code, w.Body.String())
	}
	if resp.Strategy != "ags" {
		t.Fatalf("precision query strategy = %q, want ags by default", resp.Strategy)
	}
	if resp.Achieved == nil {
		t.Fatal("precision response has no certificate")
	}
	if resp.Achieved.Delta != 0.2 || resp.Achieved.Samples != resp.Samples {
		t.Fatalf("certificate inconsistent: %+v vs samples %d", resp.Achieved, resp.Samples)
	}
	if resp.Samples > 4000 {
		t.Fatalf("samples %d exceed the cap", resp.Samples)
	}

	var sig SignaturesResponse
	w = doJSON(t, srv, http.MethodPost, "/v1/graphs/alpha/signatures",
		`{"epsilon":0.5,"delta":0.2,"maxSamples":4000,"seed":3}`, &sig)
	if w.Code != http.StatusOK {
		t.Fatalf("POST precision signatures = %d: %s", w.Code, w.Body.String())
	}
	if sig.Achieved == nil {
		t.Fatal("precision signatures response has no certificate")
	}

	metrics := doJSON(t, srv, http.MethodGet, "/metrics", "", nil).Body.String()
	for _, want := range []string{
		"motivo_signature_queries_total 1",
		"motivo_precision_queries_total 2",
		"motivo_precision_met_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
