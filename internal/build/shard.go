package build

import (
	"context"

	"repro/internal/graph"
	"repro/internal/table"
)

// This file holds the work queue of the level pass: the vertex range is
// cut into contiguous shards of about equal degree weight, the worker
// pool pulls shards off a shared cursor (work-stealing — a worker stuck
// on a slow shard never strands the rest of the range, unlike a static
// 1/workers split), and every completed record goes straight to the
// claimed shard's sink. Because exactly one worker owns a shard at a time
// and walks its vertices in ascending order, each sink is already compact
// and node-ordered — which is what lets merge.go concatenate them into
// the level arena instead of re-sorting.

// shardsPerWorker is the queue's over-subscription factor: enough shards
// per worker that stealing can balance what the weighted cut misjudges.
const shardsPerWorker = 8

// minShards/maxShards clamp the shard count: below the floor stealing
// cannot help, above the ceiling the per-shard bookkeeping stops paying
// for itself.
const (
	minShards = 16
	maxShards = 512
)

// shard is one work unit of a level pass: a contiguous vertex range and
// the sink its records go to, back to back in vertex order. The sink is a
// byte slice, or, when the build writes to disk, a byte range of the spill
// file of the worker that ran the shard: a worker writes its shards one
// after another into one file, so each shard's records are contiguous
// there.
type shard struct {
	lo, hi int32
	mem    []byte           // in-RAM sink
	file   *table.DiskStore // the spill file holding the shard's range (Options.toDisk)
	off    int64            // where the range starts in file
	size   int64            // bytes written to the sink
}

// makeShards cuts g's vertex range into the work queue's contiguous
// shards, each weighing about the same when a node weighs deg(v)+1: a
// node's cost grows with its degree, and equal node counts would leave a
// skewed graph's hubs — the low IDs of a preferential-attachment graph —
// in one straggler shard. A hub heavier than a shard's share closes its
// shard alone, so the queue may hold fewer shards than it aims for.
func makeShards(g *graph.Graph, workers int) []shard {
	n := g.NumNodes()
	count := min(max(workers*shardsPerWorker, minShards), maxShards, n)
	total := int64(n) + 2*g.NumEdges()
	shards := make([]shard, 0, count)
	var lo, weight int64
	for v := range int64(n) {
		weight += int64(g.Degree(graph.Node(v))) + 1
		// Close the shard once its weight reaches the next of count equal
		// boundaries; the last boundary is total, reached at v = n-1.
		if weight*int64(count) >= total*int64(len(shards)+1) {
			shards = append(shards, shard{lo: int32(lo), hi: int32(v + 1)})
			lo = v + 1
		}
	}
	return shards
}

// runShard computes the records of one claimed shard in ascending vertex
// order, appending each encoded record to the shard's sink and its
// shard-relative offset to starts — with a file sink, the in-RAM
// footprint of a shard is one record at a time, whatever its total size.
func (b *builder) runShard(ctx context.Context, w *worker, s *shard, starts []int64) error {
	for v := s.lo; v < s.hi; v++ {
		// A canceled context must stop a long pass mid-flight, not only at
		// the next level barrier; checking every 256 nodes keeps the mutex
		// in ctx.Err off the per-node path.
		if (v-s.lo)&0xFF == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if b.topLevelSkip(w.h, v) {
			continue
		}
		rec := w.vertexRecord(v)
		if rec.Len() == 0 {
			continue
		}
		w.enc = table.AppendRecord(w.enc[:0], rec)
		starts[v] = s.size
		s.size += int64(len(w.enc))
		if !b.opts.toDisk() {
			s.mem = append(s.mem, w.enc...)
			continue
		}
		if s.file == nil {
			if w.spill == nil {
				// Small write buffers: every worker's file holds a live
				// sink until the merge, so large buffers would rival a
				// small budget.
				file, err := table.NewDiskStoreBuffered(b.opts.SpillDir, 64<<10)
				if err != nil {
					return err
				}
				w.spill = file
			}
			s.file, s.off = w.spill, w.spill.Size()
		}
		if err := s.file.Flush(w.enc); err != nil {
			return err
		}
	}
	return nil
}

// drain copies the shard's records into dst, which must be exactly size
// bytes, and releases its in-RAM sink.
func (s *shard) drain(dst []byte) error {
	if s.file != nil {
		return s.file.ReadAt(dst, s.off)
	}
	copy(dst, s.mem)
	s.mem = nil
	return nil
}
