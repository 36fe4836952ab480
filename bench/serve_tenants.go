package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/serve"
)

// tenantRate is the open-loop arrival rate of serve-tenants, in requests
// per second: about a tenth of the ≈1000 req/s the mix sustained over two
// connections on the two-core machine the benchmark was sized on. Nearer
// half of that, a single reopened engine with cold caches stalls both
// connections and the tail swings from run to run (see README.md).
const tenantRate = 100

// tenantZipf is the Zipf exponent of graph popularity: the most popular
// graph draws about 93% of requests, the least popular about 0.4%. Of
// the requests, 60% are seeded counts, 30% unseeded counts and 10%
// batches.
const tenantZipf = 4

// tenantWarmup is how many queries each graph answers during set-up.
const tenantWarmup = 30

// accuracyTenant is the tenant whose estimates are also held to exact
// counts: the sparse ER graph, whose k = 5 motifs internal/exact counts
// in seconds.
const accuracyTenant = 2

// tenantSeeds is the pool seeded requests draw their seeds from, with
// Zipf popularity, so the result cache answers about half of them.
const tenantSeeds = 1024

// serveTenants serves four heap-loaded graphs of different sizes and k
// under a registry memory budget that holds three of them, to an open
// loop of Poisson arrivals over two keep-alive connections. Popularity
// across graphs and seeds is Zipf, so the result cache, LRU eviction and
// heap reopens all take part.
type serveTenants struct {
	o       options
	tenants []*source
	srv     *server
	phases  int // measured phases so far; each gets its own schedule

	total int64 // table file bytes of every tenant

	mu    sync.Mutex
	saved []tenantReply
}

// tenantReply is an answer kept for the correctness check.
type tenantReply struct {
	r    tenantReq
	body []byte
}

// tenantReq is one scheduled request.
type tenantReq struct {
	due    time.Duration
	kind   string // seeded, unseeded, batch, graphs or metrics
	tenant int
	seeds  []int64 // one per query; 0 means unseeded
}

func setupServeTenants(ctx context.Context, o options, dir string) (fixture, error) {
	specs := []struct {
		g *graph.Graph
		k int
	}{
		{gen.BarabasiAlbert(o.size(4000, 200), 3, derive(datasetSeed, 20)), 6},
		{gen.BarabasiAlbert(o.size(3000, 300), 3, derive(datasetSeed, 21)), 5},
		{gen.ErdosRenyi(o.size(2000, 300), o.size(6000, 900), derive(datasetSeed, 22)), 5},
		{gen.BarabasiAlbert(o.size(3000, 300), 3, derive(datasetSeed, 23)), 4},
	}
	s := &serveTenants{o: o}
	for i, sp := range specs {
		src, err := newSource(ctx, dir, fmt.Sprintf("t%d", i), sp.g, sp.k, derive(o.seed, uint64(30+i)))
		if err != nil {
			return nil, err
		}
		s.tenants = append(s.tenants, src)
		s.total += src.size
	}
	// The budget counts each engine's heap table bytes. All but the
	// smallest fit, so a query to the fourth graph evicts the least
	// recently used one.
	var heap, smallest int64
	for _, t := range s.tenants {
		eng, err := core.OpenMode(t.g, t.tablePath, core.MapOff)
		if err != nil {
			return nil, err
		}
		h := eng.Stats().HeapBytes
		heap += h
		if smallest == 0 || h < smallest {
			smallest = h
		}
	}
	reg := registry.New(registry.Config{MemBudget: heap - smallest, CacheSize: 256, MapTable: core.MapOff})
	for _, t := range s.tenants {
		if _, err := reg.Open(t.name, t.g, t.tablePath); err != nil {
			return nil, err
		}
	}
	var err error
	if s.srv, err = startServer(reg, tenantConns); err != nil {
		return nil, err
	}
	// Warm-up: queries at seeds outside the request pool, least popular
	// graph first, so the three most popular graphs are resident with warm
	// caches when the measured phase starts.
	for i := len(s.tenants) - 1; i >= 0; i-- {
		for j := 0; j < o.size(tenantWarmup, 2); j++ {
			if _, _, err := reg.Count(ctx, s.tenants[i].name, s.queryOf("seeded", int64(tenantSeeds+1+j)), false); err != nil {
				s.srv.close()
				return nil, fmt.Errorf("warm-up %s: %w", s.tenants[i].name, err)
			}
		}
	}
	return s, nil
}

// schedule draws the requests due within d. Phase p of a run uses its own
// streams, so a traced phase does not replay the untraced one. How many
// requests of each kind and to each tenant a phase sends is fixed by the
// shares above; the seed decides their order, their arrival times and the
// seeds they ask for, so the work offered is the same for every seed.
func (s *serveTenants) schedule(d time.Duration, p int) []tenantReq {
	salt := uint64(40 + 8*p)
	due := poissonArrivals(derive(s.o.seed, salt), tenantRate, d)
	mix := rand.New(rand.NewSource(derive(s.o.seed, salt+1)))
	kinds := shuffled(mix, len(due), []float64{0.6, 0.3, 0.1})
	popularity := make([]float64, len(s.tenants))
	for i := range popularity {
		popularity[i] = math.Pow(float64(i+1), -tenantZipf)
	}
	tenants := shuffled(mix, len(due), popularity)
	seed := newZipf(derive(s.o.seed, salt+3), 1.1, tenantSeeds)
	out := make([]tenantReq, len(due))
	for i := range out {
		r := tenantReq{due: due[i], tenant: tenants[i]}
		switch {
		case i%1000 == 999 && (i/1000)%2 == 0:
			r.kind = "graphs"
		case i%1000 == 999:
			r.kind = "metrics"
		case kinds[i] == 0:
			r.kind, r.seeds = "seeded", []int64{int64(seed.next()) + 1}
		case kinds[i] == 1:
			r.kind, r.seeds = "unseeded", []int64{0}
		default:
			r.kind = "batch"
			for j := 0; j < 8; j++ {
				r.seeds = append(r.seeds, int64(seed.next())+1)
			}
		}
		out[i] = r
	}
	return out
}

// queryOf is the engine query of one tenant request at one seed.
func (s *serveTenants) queryOf(kind string, seed int64) core.Query {
	n := s.o.size(500, 100)
	if kind == "batch" {
		n = s.o.size(200, 50)
	}
	return core.Query{Strategy: core.Naive, Samples: n, Seed: seed}
}

// replay is the single-query form of a seeded or unseeded request.
func (s *serveTenants) replay(r tenantReq) replay {
	return countReplay(r.kind, s.tenants[r.tenant].name, s.queryOf(r.kind, r.seeds[0]), r.seeds[0] != 0)
}

// send performs one scheduled request and returns the answer's body.
func (s *serveTenants) send(ctx context.Context, r tenantReq) ([]byte, error) {
	switch r.kind {
	case "graphs":
		return s.srv.do(ctx, http.MethodGet, "/v1/graphs", nil)
	case "metrics":
		return s.srv.do(ctx, http.MethodGet, "/metrics", nil)
	case "batch":
		b := serve.BatchRequest{Graph: s.tenants[r.tenant].name}
		for _, seed := range r.seeds {
			q := s.queryOf(r.kind, seed)
			b.Queries = append(b.Queries, serve.CountRequest{Strategy: q.Strategy.String(), Samples: q.Samples, Seed: seed})
		}
		body, err := s.srv.do(ctx, http.MethodPost, "/v1/batch", mustJSON(b))
		if err != nil {
			return nil, err
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		for _, e := range resp.Results {
			if e.Error != "" {
				return nil, fmt.Errorf("batch entry: %s (%s)", e.Error, e.Code)
			}
		}
		return body, nil
	}
	rp := s.replay(r)
	return s.srv.do(ctx, http.MethodPost, rp.path, rp.body)
}

func (s *serveTenants) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	s.srv.tr.Store(tr)
	defer s.srv.tr.Store(nil)
	sched := s.schedule(d, s.phases)
	s.phases++
	due := make([]time.Duration, len(sched))
	for i, r := range sched {
		due[i] = r.due
	}
	kind := func(i int) string { return sched[i].kind }
	seeded := 0
	return openLoop(ctx, tenantConns, due, tr, kind, func(ctx context.Context, i int) error {
		r := sched[i]
		cctx, sp := tr.open(ctx, "client", "http", 0)
		body, err := s.send(cctx, r)
		tr.close(sp)
		if err != nil || (r.kind != "seeded" && r.kind != "batch") {
			return err
		}
		s.mu.Lock()
		if checked(seeded) {
			s.saved = append(s.saved, tenantReply{r, body})
		}
		seeded++
		s.mu.Unlock()
		return nil
	}), nil
}

// check compares kept seeded answers (whole batches included) with
// reference engines that memory-map the same table files, and holds
// estimates of the accuracy tenant to its exact motif counts.
func (s *serveTenants) check(ctx context.Context) (failures, info []string) {
	refs := map[string]*core.Engine{}
	for _, t := range s.tenants {
		eng, err := core.OpenMode(t.g, t.tablePath, core.MapAuto)
		if err != nil {
			return []string{fmt.Sprintf("reference engine %s: %v", t.name, err)}, nil
		}
		refs[t.name] = eng
	}
	s.mu.Lock()
	saved := s.saved
	s.mu.Unlock()
	answers := 0
	for _, sv := range saved {
		name := s.tenants[sv.r.tenant].name
		if sv.r.kind == "seeded" {
			answers++
			if err := checkReply(ctx, refs[name], savedReply{s.replay(sv.r), sv.body}); err != nil {
				failures = append(failures, fmt.Sprintf("%s seed %d: %v", name, sv.r.seeds[0], err))
			}
			continue
		}
		var resp serve.BatchResponse
		if err := json.Unmarshal(sv.body, &resp); err != nil || len(resp.Results) != len(sv.r.seeds) {
			failures = append(failures, fmt.Sprintf("batch %s: malformed answer (%v)", name, err))
			continue
		}
		for j, seed := range sv.r.seeds {
			answers++
			want, err := refs[name].Count(ctx, s.queryOf(sv.r.kind, seed))
			if err == nil {
				err = sameCounts(resp.Results[j].Count, want)
			}
			if err != nil {
				failures = append(failures, fmt.Sprintf("batch %s seed %d: %v", name, seed, err))
			}
		}
	}
	acc := s.tenants[accuracyTenant]
	f, in := checkAccuracy(ctx, acc, refs[acc.name], derive(s.o.seed, 60), s.o.size(8, 2), s.o.size(50000, 20000))
	failures, info = append(failures, f...), append(info, in...)
	st := s.srv.reg.Stats()
	info = append(info,
		fmt.Sprintf("check: %d seeded answers compared with memory-mapped reference engines", answers),
		fmt.Sprintf("registry: %d queries, cache hits %d of %d lookups, %d evictions", st.Queries, st.CacheHits, st.CacheHits+st.CacheMisses, st.Evictions))
	return failures, info
}

func (s *serveTenants) ladder() *ladderInput {
	var rs []replay
	for _, r := range s.schedule(time.Minute, 0) {
		if r.kind == "seeded" || r.kind == "unseeded" {
			rs = append(rs, s.replay(r))
		}
	}
	return &ladderInput{sources: s.tenants, mapMode: core.MapOff, budget: 8 << 20, perKind: s.o.size(200, 10), probeSamples: s.o.size(500, 100), replays: rs, served: s.srv}
}

func (s *serveTenants) tableBytes() int64 { return s.total }

func (s *serveTenants) close() { s.srv.close() }
