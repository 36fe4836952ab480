package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// buildBudget is the MemBudget of the bounded build arm. It is far below
// the unbounded build's transient memory, so every level pass takes the
// sharded path: records stream to per-shard spill files and each level
// is merged back from them.
const buildBudget = 1 << 20

// buildK is the graphlet size of the build workload: three DP passes
// (sizes 4, 5 and 6) on top of the synthesized star levels.
const buildK = 6

// buildArms are the MemBudgets one build operation runs in turn: the
// unbounded build and the bounded-memory one.
var buildArms = [2]int64{0, buildBudget}

// buildFixture rebuilds one k=6 table over and over. Each operation is a
// pair of whole core.BuildTable calls (build-up phase plus save), one per
// arm, each after a runtime.GC(); its latency is the two builds' time.
type buildFixture struct {
	src    *source
	peaks  []uint64
	hashes [2]map[string]int // per arm: table SHA-256 → builds
}

func setupBuild(ctx context.Context, o options, dir string) (fixture, error) {
	g := gen.BarabasiAlbert(o.size(2000, 300), 3, derive(datasetSeed, 1))
	path, h, err := ingest(dir, "ba", g)
	if err != nil {
		return nil, err
	}
	src := &source{name: "ba", k: buildK, seed: derive(o.seed, 2), g: h, graphPath: path, tablePath: filepath.Join(dir, "ba.tbl")}
	b := &buildFixture{src: src, hashes: [2]map[string]int{{}, {}}}
	// Warm-up: one build of each arm, so the first measured build does not
	// pay for growing the heap; it also makes setup_s long enough to
	// measure steadily.
	for arm := range buildArms {
		if _, _, err := b.buildOnce(ctx, arm); err != nil {
			return nil, fmt.Errorf("warm-up build: %w", err)
		}
	}
	return b, nil
}

// buildOnce runs one arm's build with a fresh heap and returns its time
// and its peak heap above the pre-build level.
func (b *buildFixture) buildOnce(ctx context.Context, arm int) (time.Duration, uint64, error) {
	runtime.GC()
	base := heapNow()
	hp := startHeapPeak(0)
	t0 := time.Now()
	_, size, err := buildTable(ctx, b.src.g, b.src.k, b.src.seed, buildArms[arm], b.src.tablePath)
	lat := time.Since(t0)
	peak := hp.stop(base)[0]
	if err != nil {
		return 0, 0, err
	}
	sum, err := sha256File(b.src.tablePath)
	if err != nil {
		return 0, 0, err
	}
	b.hashes[arm][sum]++
	b.src.size = size
	return lat, peak, nil
}

func (b *buildFixture) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	var firstErr error
	kind := func(int) string { return "build" }
	ph := closedLoop(ctx, d, tr, kind, func(ctx context.Context, i int) (time.Duration, error) {
		var lat time.Duration
		var peak uint64
		for arm := range buildArms {
			l, p, err := b.buildOnce(ctx, arm)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return 0, err
			}
			lat += l
			peak += p
		}
		b.peaks = append(b.peaks, peak)
		return lat, nil
	})
	if firstErr != nil {
		return nil, firstErr
	}
	ph.peaks, b.peaks = b.peaks, nil
	return ph, nil
}

// check asks that every build of both arms produced the same bytes.
func (b *buildFixture) check(ctx context.Context) (failures, info []string) {
	n := 0
	all := map[string]bool{}
	for arm, hs := range b.hashes {
		if len(hs) != 1 {
			failures = append(failures, fmt.Sprintf("repeated MemBudget=%d builds produced %d different tables", buildArms[arm], len(hs)))
		}
		for sum, c := range hs {
			all[sum] = true
			n += c
		}
	}
	if len(all) != 1 {
		failures = append(failures, fmt.Sprintf("the two arms' builds produced %d different tables", len(all)))
	}
	info = append(info, fmt.Sprintf("check: %d builds over MemBudget 0 and %d gave %d distinct table(s)", n, buildBudget, len(all)))
	return failures, info
}

func (b *buildFixture) ladder() *ladderInput {
	return &ladderInput{sources: []*source{b.src}, mapMode: core.MapAuto, budget: buildBudget, perKind: 3, probeSamples: 5000}
}

func (b *buildFixture) tableBytes() int64 { return b.src.size }

func (b *buildFixture) close() {}
