package build

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMakeShards: the work queue partitions the vertex range into
// ascending contiguous shards (the merge's concatenation depends on it),
// never more than the target count, with a hub alone in its shard.
func TestMakeShards(t *testing.T) {
	empty, err := graph.Build(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		workers int
	}{
		{"ba/1", gen.BarabasiAlbert(2000, 3, 1), 1},
		{"ba/8", gen.BarabasiAlbert(2000, 3, 1), 8},
		{"ba/100", gen.BarabasiAlbert(2000, 3, 1), 100},
		{"star", gen.Star(1000), 2},
		{"path/tiny", gen.Path(5), 4},
		{"empty", empty, 2},
	} {
		n := tc.g.NumNodes()
		target := min(max(tc.workers*shardsPerWorker, minShards), maxShards, n)
		shards := makeShards(tc.g, tc.workers)
		if len(shards) > target || (n > 0 && len(shards) == 0) {
			t.Fatalf("%s: %d shards, want 1..%d", tc.name, len(shards), target)
		}
		var next int32
		total := int64(n) + 2*tc.g.NumEdges()
		for i, s := range shards {
			if s.lo != next || s.hi <= s.lo {
				t.Fatalf("%s: shard %d is [%d, %d), want it to start at %d and be non-empty", tc.name, i, s.lo, s.hi, next)
			}
			next = s.hi
			// A shard outweighs an equal share only through its last node.
			var weight int64
			for v := s.lo; v < s.hi-1; v++ {
				weight += int64(tc.g.Degree(v)) + 1
			}
			if weight*int64(target) > total {
				t.Errorf("%s: shard %d weighs %d before its last node, share is %d/%d", tc.name, i, weight, total, target)
			}
		}
		if int(next) != n {
			t.Fatalf("%s: shards end at %d, graph has %d nodes", tc.name, next, n)
		}
	}
	if s := makeShards(gen.Star(1000), 2); s[0].hi != 1 {
		t.Errorf("star hub shares shard [%d, %d) with its leaves", s[0].lo, s[0].hi)
	}
}
