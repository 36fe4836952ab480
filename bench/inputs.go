package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/graph"
)

// derive maps (seed, salt) to an independent positive seed (splitmix64),
// so every input and request stream of a run follows from the one seed.
func derive(seed int64, salt uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(salt+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

// datasetSeed generates every input graph. The graphs are fixed
// datasets, as the paper's are, and --seed draws everything random on top
// of them: the colorings (and so the tables), the requests and their
// seeds. Sampling cost on a BA graph is set by its largest hubs, whose
// degree varied by ±25% between generator seeds at the sizes used here
// (229 to 371 on BA(12000, 3)) and moved serve-sample's median latency
// as much; that is the generator's variance, not the program's.
const datasetSeed = 1

// ingest writes g to dir/name.txt as an edge list and reads it back
// through graph.Open, the only way the program under test receives an
// input graph.
func ingest(dir, name string, g *graph.Graph) (string, *graph.Graph, error) {
	path := filepath.Join(dir, name+".txt")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	h, err := graph.Open(path, graph.OpenAuto)
	if err != nil {
		return "", nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return path, h, nil
}

// buildTable builds g's k-table under the coloring seed and saves it to
// path, returning the build statistics and the file size. budget > 0
// selects the bounded-memory (sharded, spilling) build.
func buildTable(ctx context.Context, g *graph.Graph, k int, seed, budget int64, path string) (*build.Stats, int64, error) {
	cfg := core.Config{K: k, Seed: seed, Workers: buildWorkers, MemBudget: budget}
	return core.BuildTableContext(ctx, g, cfg, path)
}

// source is one input graph with its table, as files and as loaded.
type source struct {
	name      string
	k         int
	seed      int64 // coloring seed of the table
	g         *graph.Graph
	graphPath string
	tablePath string
	size      int64 // table file bytes
}

// newSource ingests g and builds its k-table in dir.
func newSource(ctx context.Context, dir, name string, g *graph.Graph, k int, seed int64) (*source, error) {
	path, h, err := ingest(dir, name, g)
	if err != nil {
		return nil, err
	}
	s := &source{name: name, k: k, seed: seed, g: h, graphPath: path, tablePath: filepath.Join(dir, name+".tbl")}
	if _, s.size, err = buildTable(ctx, h, k, seed, 0, s.tablePath); err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	return s, nil
}

// sha256File returns the hex SHA-256 of a file's contents.
func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReader(f)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
