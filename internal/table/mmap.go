package table

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/coloring"
	"repro/internal/mmapx"
)

// ErrNotMappable reports that a file cannot be served through OpenMapped
// but is (or may be) loadable through LoadFile: a pre-v4 format version,
// a platform without mmap, or a big-endian host. Callers that prefer
// mapping should errors.Is on it and fall back to the heap path
// (core.Open does exactly that). It never wraps corruption — a damaged
// v4 file is a hard error on both paths.
var ErrNotMappable = errors.New("table: file not mappable")

// hostLittleEndian reports whether this host matches the on-disk byte
// order. The zero-copy paths reinterpret mapped bytes as []int64 and as
// varint payloads, which is only correct little-endian; big-endian hosts
// (rare for Go servers) get the byte-swapping heap loader instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mappedState owns one read-only file mapping. The Table's arenas and
// offset indexes alias it, so its lifetime must cover the table's: it is
// unmapped by an explicit Table.Close or, failing that, by a finalizer
// once the table is unreachable (which is how registry-evicted engines
// release their mappings — eviction must not unmap under live queries).
type mappedState struct {
	data    []byte
	fileSum uint32
	closed  atomic.Bool
}

func (ms *mappedState) close() error {
	if ms.closed.Swap(true) {
		return nil
	}
	return mmapx.Unmap(ms.data)
}

// levelVerify is the lazy verification state of one stored level of a
// mapped table: the file span holding the level's offset index + arena,
// its directory checksum, and a once guarding the single verification
// pass (CRC over the span, then the record-walk of validateLevel).
type levelVerify struct {
	once sync.Once
	err  error
	off  int64 // span start in the mapping (the offset index)
	len  int64 // span length: index bytes + arena bytes
	sum  uint32
}

// OpenMapped opens a version-4 table file by mapping it read-only:
// per-level arenas and offset indexes point directly into the mapping —
// zero copy, so the open reads only the header, level directory, and the
// O(n) meta region, and its cost is independent of arena size. The table
// serves the exact same View interface as a heap-loaded one and produces
// bit-identical query results.
//
// Validation is lazy: the meta region is checked at open, each level is
// checked once on first touch (checksum over its mapped span, then the
// same record walk LoadFile runs), and Verify forces every deferred
// check. A pre-v4 file, a platform without mmap, or a big-endian host
// returns an error wrapping ErrNotMappable — retry with LoadFile; a
// corrupt v4 file is a hard error.
//
// Close the table to release the mapping deterministically; otherwise a
// finalizer releases it when the table becomes unreachable.
func OpenMapped(path string) (*Table, *coloring.Coloring, error) {
	if !hostLittleEndian {
		return nil, nil, fmt.Errorf("%w: big-endian host", ErrNotMappable)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if st.Size() < headerSize {
		// Too small to be v4 (and mmap of zero bytes is invalid anyway):
		// the heap loader should produce the real diagnosis.
		return nil, nil, fmt.Errorf("%w: %d-byte file is below the v4 header size", ErrNotMappable, st.Size())
	}
	data, err := mmapx.Map(path)
	if err != nil {
		if errors.Is(err, mmapx.ErrUnsupported) {
			return nil, nil, fmt.Errorf("%w: %v", ErrNotMappable, err)
		}
		return nil, nil, err
	}
	unmap := func() {
		// The table was never built, so nothing aliases data.
		_ = mmapx.Unmap(data)
	}
	if len(data) >= 8 { // the file may have shrunk since the Stat
		magic := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		version := uint32(data[4]) // read before unmap
		if magic == fileMagicV2 || magic == fileMagicV3 {
			unmap()
			return nil, nil, fmt.Errorf("%w: format version %d predates checksums (rewrite with `motivo build` to enable mapping)",
				ErrNotMappable, version)
		}
	}
	p, err := parseV4(data)
	if err != nil {
		unmap()
		return nil, nil, err
	}
	ms := &mappedState{data: data}
	t, col, err := buildFromV4(data, p, ms)
	if err != nil {
		unmap()
		return nil, nil, err
	}
	runtime.SetFinalizer(ms, func(ms *mappedState) { _ = ms.close() })
	return t, col, nil
}

// Mapped reports whether the table is served off a read-only file
// mapping (OpenMapped) rather than heap arenas.
func (t *Table) Mapped() bool { return t.mapped != nil }

// Close releases the file mapping of a mapped table. After Close every
// record access faults, so it must only be called once no query can
// still touch the table. On heap tables (and on repeat calls) it is a
// no-op. Letting a mapped table go unreachable without Close is safe —
// a finalizer releases the mapping — but keeps the virtual mapping alive
// until the next GC cycle.
func (t *Table) Close() error {
	if t.mapped == nil {
		return nil
	}
	runtime.SetFinalizer(t.mapped, nil)
	return t.mapped.close()
}

// verifiedLevel runs level h's deferred verification exactly once and
// returns its result: the CRC-32C of the level's mapped span against the
// directory checksum, then the record-integrity walk. Concurrent callers
// block until the single pass finishes.
func (t *Table) verifiedLevel(h int) error {
	lv := &t.verify[h]
	lv.once.Do(func() {
		span := t.mapped.data[lv.off : lv.off+lv.len]
		if sum := crc32.Checksum(span, crcTable); sum != lv.sum {
			lv.err = fmt.Errorf("table: level %d checksum mismatch (%#x, directory says %#x): corrupted file", h, sum, lv.sum)
			return
		}
		lv.err = t.validateLevel(h)
	})
	return lv.err
}

// ensureVerified is the first-touch hook Rec runs on mapped tables. A
// failed check panics: by the time a query touches a level the caller
// holds Views into the mapping, and serving counts off bytes that just
// failed their checksum is not an option (same contract as the
// corrupt-record panic below — use Verify up front to get an error
// instead).
func (t *Table) ensureVerified(h int) {
	if err := t.verifiedLevel(h); err != nil {
		panic(err.Error())
	}
}

// Verify forces every deferred integrity check. On a mapped table that
// is the whole-file checksum plus each level's first-touch verification
// (subsequent Verify calls and record accesses re-verify nothing); on a
// heap table everything was already checked at load and this is
// Validate. Use it to fail fast — at engine start, or after a table file
// may have been touched — instead of panicking mid-query.
func (t *Table) Verify() error {
	if t.mapped == nil {
		return t.Validate()
	}
	if sum := crc32.Checksum(t.mapped.data[headerSize:], crcTable); sum != t.mapped.fileSum {
		return fmt.Errorf("table: file checksum mismatch (%#x, header says %#x): corrupted file", sum, t.mapped.fileSum)
	}
	for h := t.storedSizeMin(); h <= t.K; h++ {
		if err := t.verifiedLevel(h); err != nil {
			return err
		}
	}
	return nil
}

// castStarts reinterprets a mapped offset-index section as []int64
// without copying. Safe by construction: b points into a page-aligned
// mapping at a file offset parseV4 checked is 8-byte aligned, the host
// is little-endian (OpenMapped gates on it), and the mapping is
// read-only for its whole lifetime.
func castStarts(b []byte, n int) []int64 {
	if n == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}
