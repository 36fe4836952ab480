package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/registry"
)

// serveSample serves one memory-mapped k=6 table of a BA graph whose
// stored pairs outnumber the urn's decode-cache budget, to one
// closed-loop client whose requests are all distinct (the registry has
// no result cache), so every request samples and sampling dominates.
type serveSample struct {
	o       options
	src     *source
	srv     *server
	samples int
	pattern [8]string
	saved   []savedReply
}

// savedReply is an answer kept for the correctness check.
type savedReply struct {
	r    replay
	body []byte
}

// serveSampleWarmup is how many requests set-up sends before measuring.
const serveSampleWarmup = 16

// serveSampleMix is one cycle of the request mix: 3/8 naive counts, 3/8
// AGS counts, 1/8 signatures and 1/8 run-to-precision counts.
var serveSampleMix = [8]string{"naive", "naive", "naive", "ags", "ags", "ags", "signatures", "precision"}

func setupServeSample(ctx context.Context, o options, dir string) (fixture, error) {
	g := gen.BarabasiAlbert(o.size(12000, 400), 3, derive(datasetSeed, 10))
	src, err := newSource(ctx, dir, "ba", g, o.size(6, 5), derive(o.seed, 11))
	if err != nil {
		return nil, err
	}
	reg := registry.New(registry.Config{MapTable: core.MapAuto})
	if _, err := reg.Open(src.name, src.g, src.tablePath); err != nil {
		return nil, err
	}
	srv, err := startServer(reg, 1)
	if err != nil {
		return nil, err
	}
	s := &serveSample{o: o, src: src, srv: srv, samples: o.size(5000, 500), pattern: serveSampleMix}
	rand.New(rand.NewSource(derive(o.seed, 12))).Shuffle(8, func(i, j int) { s.pattern[i], s.pattern[j] = s.pattern[j], s.pattern[i] })
	// Warm-up: requests of the mix at seeds the measured phase never
	// uses. They build the lazy engine state (AGS shapes) and start
	// filling the urn's decode and sweep caches, which admit records until
	// their budgets are spent and then freeze. Every request reaches them
	// in one fixed order, so what they hold is the same from run to run of
	// a seed.
	for i := 0; i < o.size(serveSampleWarmup, 8); i++ {
		kind := serveSampleMix[i%8]
		r := s.request(kind, derive(o.seed, uint64(100+i)))
		if _, err := srv.do(ctx, http.MethodPost, r.path, r.body); err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up %s: %w", kind, err)
		}
	}
	return s, nil
}

// request builds one request of the given kind at a seed.
func (s *serveSample) request(kind string, seed int64) replay {
	q := core.Query{Strategy: core.AGS, Samples: s.samples, Seed: seed}
	switch kind {
	case "naive":
		q.Strategy = core.Naive
	case "signatures":
		return signaturesReplay(kind, s.src.name, q, 20)
	case "precision":
		q.Samples, q.Epsilon, q.Delta, q.MaxSamples = 0, 0.2, 0.1, s.samples
	}
	return countReplay(kind, s.src.name, q, true)
}

// requestAt is the i-th request of the measured phase.
func (s *serveSample) requestAt(i int) replay {
	return s.request(s.pattern[i%8], derive(s.o.seed, uint64(1000+i)))
}

// checked picks the one request in each block of 16 whose answer is
// verified; the position moves from block to block so every kind of the
// 8-cycle mix gets checked.
func checked(i int) bool { return i%16 == (i/16)%16 }

func (s *serveSample) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	s.srv.tr.Store(tr)
	defer s.srv.tr.Store(nil)
	kind := func(i int) string { return s.pattern[i%8] }
	return closedLoop(ctx, d, tr, kind, func(ctx context.Context, i int) (time.Duration, error) {
		r := s.requestAt(i)
		t0 := time.Now()
		cctx, sp := tr.open(ctx, "client", "http", 0)
		body, err := s.srv.do(cctx, http.MethodPost, r.path, r.body)
		tr.close(sp)
		lat := time.Since(t0)
		if err == nil && checked(i) {
			s.saved = append(s.saved, savedReply{r, body})
		}
		return lat, err
	}), nil
}

// check replays every kept request on a reference engine that heap-loads
// the same table file and asks for bit-identical answers.
func (s *serveSample) check(ctx context.Context) (failures, info []string) {
	ref, err := core.OpenMode(s.src.g, s.src.tablePath, core.MapOff)
	if err != nil {
		return []string{fmt.Sprintf("reference engine: %v", err)}, nil
	}
	for _, sv := range s.saved {
		if err := checkReply(ctx, ref, sv); err != nil {
			failures = append(failures, fmt.Sprintf("%s seed %d: %v", sv.r.kind, sv.r.q.Seed, err))
		}
	}
	info = append(info, fmt.Sprintf("check: %d answers compared with a heap-loaded reference engine", len(s.saved)))
	return failures, info
}

// checkReply compares one kept answer with the reference engine's.
func checkReply(ctx context.Context, ref *core.Engine, sv savedReply) error {
	if sv.r.signatures {
		want, err := ref.Signatures(ctx, sv.r.q, nil)
		if err != nil {
			return err
		}
		return checkSignatures(sv.body, want, sv.r.topNodes)
	}
	want, err := ref.Count(ctx, sv.r.q)
	if err != nil {
		return err
	}
	return checkCount(sv.body, want)
}

func (s *serveSample) ladder() *ladderInput {
	var rs []replay
	for i := 0; i < 64; i++ {
		rs = append(rs, s.requestAt(i))
	}
	return &ladderInput{sources: []*source{s.src}, mapMode: core.MapAuto, budget: 8 << 20, perKind: 3, probeSamples: s.samples, replays: rs, served: s.srv}
}

func (s *serveSample) tableBytes() int64 { return s.src.size }

func (s *serveSample) close() { s.srv.close() }
