package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/serve"
)

// server is an in-process motivo HTTP server on a loopback port plus the
// keep-alive client the benchmark drives it with.
type server struct {
	reg    *registry.Registry
	http   *http.Server
	url    string
	client *http.Client
	served chan struct{}
	tr     atomic.Pointer[tracer] // records handler spans while set
}

// startServer serves reg on 127.0.0.1 with a client limited to conns
// connections.
func startServer(reg *registry.Registry, conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		reg:    reg,
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	// MaxInflight sits above the client's connection count, so admission
	// control never rejects this load; a 429 counts as a failure.
	h := serve.New(serve.Config{Registry: reg, MaxInflight: 4 * conns, ErrorLog: log.New(os.Stderr, "serve: ", 0)})
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.tr.Load().serveHTTP(h, w, r)
	})}
	go func() {
		defer close(s.served)
		if err := s.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("bench: server: %v", err)
		}
	}()
	return s, nil
}

func (s *server) close() {
	s.http.Close()
	<-s.served
	s.client.CloseIdleConnections()
}

// do sends one request and returns the body of a 200 answer; any other
// status is an error.
func (s *server) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	r, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	tagRequest(ctx, r)
	resp, err := s.client.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// counters reads the server's Prometheus counters that carry no labels.
func (s *server) counters(ctx context.Context) (map[string]float64, error) {
	b, err := s.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// replay is one request of a run, in the form every layer of the ladder
// can replay it: the HTTP path and body, and the engine query it means.
type replay struct {
	kind  string
	graph string // registry name
	path  string
	body  []byte
	q     core.Query
	// signatures queries return per-node vectors for the top nodes.
	signatures bool
	topNodes   int
}

// countReplay describes one count request. An unseeded request (seeded
// false) runs at the server's default seed 1, outside the result cache.
func countReplay(kind, graph string, q core.Query, seeded bool) replay {
	req := serve.CountRequest{
		Strategy:      q.Strategy.String(),
		Samples:       q.Samples,
		SampleWorkers: q.SampleWorkers,
		Epsilon:       q.Epsilon,
		Delta:         q.Delta,
		MaxSamples:    q.MaxSamples,
	}
	if seeded {
		req.Seed = q.Seed
	} else {
		q.Seed = 1
	}
	return replay{kind: kind, graph: graph, path: "/v1/graphs/" + graph + "/count", body: mustJSON(req), q: q}
}

// signaturesReplay describes one per-node signatures request.
func signaturesReplay(kind, graph string, q core.Query, topNodes int) replay {
	req := serve.SignaturesRequest{
		Strategy:      q.Strategy.String(),
		Samples:       q.Samples,
		Seed:          q.Seed,
		SampleWorkers: q.SampleWorkers,
		TopNodes:      topNodes,
	}
	return replay{kind: kind, graph: graph, path: "/v1/graphs/" + graph + "/signatures", body: mustJSON(req), q: q, signatures: true, topNodes: topNodes}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own plain request structs are marshaled
	}
	return b
}

// checkCount compares a served count answer with the engine's own result
// for the same query: the same motifs with bit-identical counts, samples,
// coverage and certificate. The sampling time is allowed to differ.
func checkCount(body []byte, want *core.QueryResult) error {
	var got serve.CountResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return sameCounts(&got, want)
}

func sameCounts(got *serve.CountResponse, want *core.QueryResult) error {
	if got.Samples != want.Samples || got.Covered != want.Covered {
		return fmt.Errorf("samples/covered %d/%d, engine says %d/%d", got.Samples, got.Covered, want.Samples, want.Covered)
	}
	if len(got.Counts) != len(want.Counts) {
		return fmt.Errorf("%d motifs, engine says %d", len(got.Counts), len(want.Counts))
	}
	byCode := make(map[string]float64, len(want.Counts))
	for c, v := range want.Counts {
		byCode[c.String()] = v
	}
	for _, e := range got.Counts {
		if v, ok := byCode[e.Code]; !ok || v != e.Count {
			return fmt.Errorf("motif %s: count %v, engine says %v", e.Code, e.Count, v)
		}
	}
	if (got.Achieved == nil) != (want.Achieved == nil) {
		return fmt.Errorf("certificate presence differs from the engine's")
	}
	if a, w := got.Achieved, want.Achieved; a != nil && (a.Samples != w.Samples || a.Met != w.Met || a.Delta != w.Delta || (a.Eps != nil && *a.Eps != w.Eps)) {
		return fmt.Errorf("certificate %+v, engine says %+v", *a, *w)
	}
	return nil
}

// checkSignatures compares a served signatures answer, truncated to
// topNodes nodes, with the engine's.
func checkSignatures(body []byte, want *core.SignaturesResult, topNodes int) error {
	var got serve.SignaturesResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Nodes) != min(topNodes, len(want.Nodes)) {
		return fmt.Errorf("%d nodes, want the top %d of %d", len(got.Nodes), topNodes, len(want.Nodes))
	}
	if got.Samples != want.Samples || got.Covered != want.Covered || len(got.Motifs) != len(want.Motifs) {
		return fmt.Errorf("samples/covered/motifs %d/%d/%d, engine says %d/%d/%d",
			got.Samples, got.Covered, len(got.Motifs), want.Samples, want.Covered, len(want.Motifs))
	}
	for i, m := range got.Motifs {
		if m.Code != want.Motifs[i].String() {
			return fmt.Errorf("motif %d is %s, engine says %s", i, m.Code, want.Motifs[i])
		}
	}
	nodes := make(map[int32]core.NodeSignature, len(want.Nodes))
	for _, n := range want.Nodes {
		nodes[n.Node] = n
	}
	for _, n := range got.Nodes {
		w, ok := nodes[n.Node]
		if !ok || w.Total != n.Total || len(w.Counts) != len(n.Vector) {
			return fmt.Errorf("node %d differs from the engine's", n.Node)
		}
		for i := range w.Counts {
			if w.Counts[i] != n.Vector[i] {
				return fmt.Errorf("node %d motif %d: %d, engine says %d", n.Node, i, n.Vector[i], w.Counts[i])
			}
		}
	}
	return nil
}
