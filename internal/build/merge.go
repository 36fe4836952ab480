package build

// The merge of a level pass: shard sinks concatenate into the final level
// arena. Correctness rests on two orderings that hold by construction —
// shards partition [0, n) in ascending contiguous ranges, and within a
// shard the owning worker wrote records in ascending vertex order — so
// appending the sinks in shard order yields records in global node order,
// compact, with no gaps: the one layout Table.SetLevel accepts (it
// re-checks the contiguity rather than trusting it). That is why the
// table is byte-identical whichever sink, schedule or worker count
// produced it.

// mergeShards copies every shard into one exact-size level arena, rebases
// starts from shard-relative to arena offsets, and installs the level. A
// spilled shard is one ranged read from its worker's spill file straight
// into the arena. Transient memory is the arena itself (which the table
// keeps) plus the in-RAM sinks not yet consumed; each is released as soon
// as it has been copied, and the spill files go when the pass ends.
func (b *builder) mergeShards(h int, shards []shard, starts []int64) error {
	var total int64
	for i := range shards {
		total += shards[i].size
	}
	arena := make([]byte, total)
	var off int64
	for i := range shards {
		s := &shards[i]
		size := s.size
		if s.file != nil {
			b.stats.SpillBytes += size
		}
		if err := s.drain(arena[off : off+size]); err != nil {
			return err
		}
		for v := s.lo; v < s.hi; v++ {
			if starts[v] >= 0 {
				starts[v] += off
			}
		}
		off += size
	}
	return b.tab.SetLevel(h, arena, starts)
}
