package table

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/coloring"
	"repro/internal/treelet"
)

// Persistent table format — the build-once / query-many half of the
// storage engine. Motivo persists its count tables on disk so the
// expensive build-up phase is paid once and amortized over many sampling
// sessions (Section 3.3); this file is that format, version 4:
//
//	[header, 48 bytes]
//	  u32  magic "MvT4" (little-endian 0x4d765434)
//	  u32  version (4)
//	  u32  k
//	  u32  flags (bit 0: zero-rooted; bit 1: coloring section present;
//	              bit 2: smart stars)
//	  u64  n (number of nodes)
//	  u64  meta-region length in bytes
//	  u32  file checksum  (CRC-32C of every byte after the header)
//	  u32  meta checksum  (CRC-32C of the meta region)
//	  u64  reserved (zero)
//	[level directory: one 32-byte entry per stored size h — 1..k, or
//	 4..k when smart stars are on]
//	  u64  arena length in bytes
//	  u64  absolute file offset of the offset index (8-byte aligned)
//	  u64  absolute file offset of the arena (= index offset + 8n)
//	  u32  level checksum (CRC-32C of the index bytes ‖ arena bytes)
//	  u32  reserved (zero)
//	[meta region]
//	  [coloring section, if flagged]
//	    f64  PColorful (IEEE-754 bits)
//	    n×u8 node colors
//	  [smart-star section, if flagged]
//	    n×k uvarint colored degrees d_c(v), node-major, color-minor
//	[for each stored level, in directory order]
//	  zero padding to the next 8-byte-aligned file offset
//	  n×i64 per-node start offsets (-1 = empty record)
//	  arena bytes (packed records, the wire format of packed.go)
//
// Everything is little-endian. The arenas are written exactly as they
// live in RAM, so a heap open is one sequential read per section — and,
// because the offset indexes sit at 8-byte-aligned offsets, OpenMapped
// (mmap.go) can serve the same file zero-copy: arenas and indexes point
// straight into the read-only mapping, the directory makes the open
// O(level count) instead of O(file size), and the per-level checksums
// let validation happen lazily on first touch instead of at open time.
// The coloring travels with the table because the counts are only
// meaningful under the coloring that produced them (and the estimator
// needs its PColorful). A smart table stores the colored-degree
// summaries instead of any star-family records and no levels below size
// 4 at all (those are fully synthesized); the summaries are
// cross-checked against the host graph at AttachGraph time, so pairing a
// table with the wrong graph fails at open, not as silently wrong
// counts.
//
// Version 3 ("MvT3") files — no checksums, no directory, no alignment,
// sections streamed back-to-back — and version 2 ("MvT2", additionally
// predating smart stars) still load via the heap path; nothing writes
// them any more (testdata/legacy-v3.tbl pins the reader).

const (
	fileMagicV2 = uint32(0x4d765432) // "MvT2"
	fileMagicV3 = uint32(0x4d765433) // "MvT3"
	fileMagicV4 = uint32(0x4d765434) // "MvT4"
	fileVersion = uint32(4)

	flagZeroRooted  = 1 << 0
	flagHasColoring = 1 << 1
	flagSmartStars  = 1 << 2

	headerSize   = 48
	dirEntrySize = 32
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, so whole-file and per-level sums cost a memory sweep.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// storedSizeMin returns the smallest treelet size the table stores levels
// for: smart tables synthesize everything below minStoredSize.
func (t *Table) storedSizeMin() int {
	if t.smart != nil {
		return minStoredSize
	}
	return 1
}

// saveFlags computes the format flag word for t saved with col.
func saveFlags(t *Table, col *coloring.Coloring) uint32 {
	flags := uint32(0)
	if t.ZeroRooted {
		flags |= flagZeroRooted
	}
	if col != nil {
		flags |= flagHasColoring
	}
	if t.smart != nil {
		flags |= flagSmartStars
	}
	return flags
}

// metaRegion encodes the coloring and smart-degree sections into one byte
// string — the v4 meta region.
func metaRegion(t *Table, col *coloring.Coloring) []byte {
	var meta []byte
	if col != nil {
		meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(col.PColorful))
		meta = append(meta, col.Colors...)
	}
	if t.smart != nil {
		for _, d := range t.smart.deg {
			meta = binary.AppendUvarint(meta, uint64(d))
		}
	}
	return meta
}

// Save serializes the table (and, when non-nil, its coloring) to w in
// format version 4. It returns the number of bytes written. A smart table
// requires the coloring (its synthesis state embeds the node colors).
//
// The header carries a whole-file checksum and every level carries its
// own, so Save computes all sums in an in-memory pre-pass (w need not
// seek) before streaming the sections out.
func Save(w io.Writer, t *Table, col *coloring.Coloring) (int64, error) {
	if col != nil && len(col.Colors) != t.N {
		return 0, fmt.Errorf("table: coloring covers %d nodes, table has %d", len(col.Colors), t.N)
	}
	if t.smart != nil && col == nil {
		return 0, fmt.Errorf("table: a smart table must be saved with its coloring")
	}
	storedMin := t.storedSizeMin()
	// A smart table with k below the smallest stored size is fully
	// synthetic: zero stored levels, the meta region is the whole payload.
	nLevels := max(t.K-storedMin+1, 0)
	meta := metaRegion(t, col)

	// Lay the levels out and fill the directory: each offset index starts
	// at the next 8-byte-aligned file offset (zero-padded) so a mapped
	// open can point an []int64 straight at it.
	dir := make([]byte, nLevels*dirEntrySize)
	startsEnc := make([][]byte, nLevels)
	type levelLayout struct {
		arenaLen, startsOff, arenaOff uint64
	}
	layout := make([]levelLayout, nLevels)
	off := uint64(headerSize + len(dir) + len(meta))
	for i := range layout {
		lv := &t.levels[storedMin+i]
		enc := make([]byte, 8*len(lv.starts))
		for j, s := range lv.starts {
			binary.LittleEndian.PutUint64(enc[8*j:], uint64(s))
		}
		startsEnc[i] = enc
		off = (off + 7) &^ 7
		layout[i] = levelLayout{
			arenaLen:  uint64(len(lv.arena)),
			startsOff: off,
			arenaOff:  off + uint64(len(enc)),
		}
		off = layout[i].arenaOff + layout[i].arenaLen
		sum := crc32.Update(0, crcTable, enc)
		sum = crc32.Update(sum, crcTable, lv.arena)
		d := dir[i*dirEntrySize:]
		binary.LittleEndian.PutUint64(d[0:], layout[i].arenaLen)
		binary.LittleEndian.PutUint64(d[8:], layout[i].startsOff)
		binary.LittleEndian.PutUint64(d[16:], layout[i].arenaOff)
		binary.LittleEndian.PutUint32(d[24:], sum)
	}
	total := int64(off)

	// The file checksum covers every byte after the header, in file
	// order: directory, meta region, then each level's padding + index +
	// arena.
	var pad [8]byte
	fileSum := crc32.Update(0, crcTable, dir)
	fileSum = crc32.Update(fileSum, crcTable, meta)
	pos := uint64(headerSize + len(dir) + len(meta))
	for i := range layout {
		fileSum = crc32.Update(fileSum, crcTable, pad[:layout[i].startsOff-pos])
		fileSum = crc32.Update(fileSum, crcTable, startsEnc[i])
		fileSum = crc32.Update(fileSum, crcTable, t.levels[storedMin+i].arena)
		pos = layout[i].arenaOff + layout[i].arenaLen
	}

	hdr := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(hdr[0:], fileMagicV4)
	binary.LittleEndian.PutUint32(hdr[4:], fileVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.K))
	binary.LittleEndian.PutUint32(hdr[12:], saveFlags(t, col))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(t.N))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(meta)))
	binary.LittleEndian.PutUint32(hdr[32:], fileSum)
	binary.LittleEndian.PutUint32(hdr[36:], crc32.Checksum(meta, crcTable))

	bw := bufio.NewWriterSize(w, 1<<20)
	for _, b := range [][]byte{hdr, dir, meta} {
		if _, err := bw.Write(b); err != nil {
			return 0, err
		}
	}
	pos = uint64(headerSize + len(dir) + len(meta))
	for i := range layout {
		if _, err := bw.Write(pad[:layout[i].startsOff-pos]); err != nil {
			return 0, err
		}
		if _, err := bw.Write(startsEnc[i]); err != nil {
			return 0, err
		}
		if _, err := bw.Write(t.levels[storedMin+i].arena); err != nil {
			return 0, err
		}
		pos = layout[i].arenaOff + layout[i].arenaLen
	}
	return total, bw.Flush()
}

// WriteTo serializes the table without a coloring section. It returns the
// number of bytes written.
func (t *Table) WriteTo(w io.Writer) (int64, error) { return Save(w, t, nil) }

// maxLoadNodes bounds the node count a loaded header may declare: node ids
// are int32 throughout the pipeline, so anything larger is corruption and
// must fail fast instead of attempting a huge allocation (the bound also
// keeps int(n) safe on 32-bit platforms).
const maxLoadNodes = 1<<31 - 1

// maxArena bounds a level arena a loaded header may declare: anything
// beyond it is corruption (records are capped well below this by RAM long
// before), and must fail fast instead of attempting the allocation.
const maxArena = 1 << 40 // 1 TiB per level

// Load deserializes a table written by Save — format version 4, or the
// earlier versions 3 and 2. The returned coloring is nil when the file
// carries none. Every record is validated entry-by-entry (and, for v4,
// the whole-file checksum is verified), so corruption surfaces here
// instead of as a panic mid-query. A loaded smart table must have its
// host graph bound with AttachGraph before it can serve views.
func Load(r io.Reader) (*Table, *coloring.Coloring, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if head, _ := br.Peek(4); len(head) == 4 && binary.LittleEndian.Uint32(head) == fileMagicV4 {
		buf, err := io.ReadAll(br)
		if err != nil {
			return nil, nil, fmt.Errorf("table: reading v4 file: %w", err)
		}
		return loadV4(buf)
	}
	return loadLegacy(br)
}

// loadV4 deserializes a version-4 file from its complete byte image:
// whole-file checksum first, then the layout parse, then the same
// entry-by-entry validation the legacy loader runs. The returned table's
// arenas alias buf (one buffer keeps every level, no per-level copies);
// offset indexes are decoded into fresh slices.
func loadV4(buf []byte) (*Table, *coloring.Coloring, error) {
	p, err := parseV4(buf)
	if err != nil {
		return nil, nil, err
	}
	if sum := crc32.Checksum(buf[headerSize:], crcTable); sum != p.fileSum {
		return nil, nil, fmt.Errorf("table: file checksum mismatch (%#x, header says %#x): corrupted file", sum, p.fileSum)
	}
	t, col, err := buildFromV4(buf, p, nil)
	if err != nil {
		return nil, nil, err
	}
	for h := t.storedSizeMin(); h <= t.K; h++ {
		if err := t.validateLevel(h); err != nil {
			return nil, nil, err
		}
	}
	return t, col, nil
}

// v4File is the parsed layout of a version-4 file: header fields plus the
// level directory, bounds-checked against the file image but not yet
// checksummed (the heap loader verifies eagerly, the mapped open lazily).
type v4File struct {
	k         int
	flags     uint32
	n         int
	meta      []byte // aliases the file image
	fileSum   uint32
	metaSum   uint32
	levels    []v4Level
	storedMin int
}

// v4Level is one directory entry.
type v4Level struct {
	arenaLen  uint64
	startsOff uint64
	arenaOff  uint64
	sum       uint32
}

// parseV4 validates the header and level directory of a version-4 file
// image: magic, plausible k/n, in-bounds monotonic section offsets, the
// 8-byte alignment of every offset index, and the meta-region checksum
// (the meta region is O(n) and decoded at open either way, so its sum is
// never deferred). It reads only the header, directory and meta region —
// never the level payloads — which is what keeps a mapped open
// independent of arena size.
func parseV4(buf []byte) (*v4File, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("table: truncated header: %d bytes", len(buf))
	}
	magic := binary.LittleEndian.Uint32(buf[0:])
	version := binary.LittleEndian.Uint32(buf[4:])
	if magic != fileMagicV4 || version != 4 {
		return nil, fmt.Errorf("table: bad magic/version %#x/%d (want %#x/4)", magic, version, fileMagicV4)
	}
	p := &v4File{
		k:       int(binary.LittleEndian.Uint32(buf[8:])),
		flags:   binary.LittleEndian.Uint32(buf[12:]),
		fileSum: binary.LittleEndian.Uint32(buf[32:]),
		metaSum: binary.LittleEndian.Uint32(buf[36:]),
	}
	n64 := binary.LittleEndian.Uint64(buf[16:])
	metaLen := binary.LittleEndian.Uint64(buf[24:])
	if p.k < 1 || p.k > treelet.MaxK || n64 > maxLoadNodes {
		return nil, fmt.Errorf("table: implausible header k=%d n=%d", p.k, n64)
	}
	p.n = int(n64)
	p.storedMin = 1
	if p.flags&flagSmartStars != 0 {
		// k below the smallest stored size is legal: the table is fully
		// synthetic and the directory is empty.
		p.storedMin = minStoredSize
	}
	nLevels := max(p.k-p.storedMin+1, 0)
	dirEnd := uint64(headerSize + nLevels*dirEntrySize)
	metaEnd := dirEnd + metaLen
	if metaEnd > uint64(len(buf)) {
		return nil, fmt.Errorf("table: truncated file: directory + meta region need %d bytes, have %d", metaEnd, len(buf))
	}
	p.meta = buf[dirEnd:metaEnd]
	if sum := crc32.Checksum(p.meta, crcTable); sum != p.metaSum {
		return nil, fmt.Errorf("table: meta-region checksum mismatch (%#x, header says %#x): corrupted file", sum, p.metaSum)
	}
	p.levels = make([]v4Level, nLevels)
	pos := metaEnd
	for i := range p.levels {
		d := buf[headerSize+i*dirEntrySize:]
		lv := v4Level{
			arenaLen:  binary.LittleEndian.Uint64(d[0:]),
			startsOff: binary.LittleEndian.Uint64(d[8:]),
			arenaOff:  binary.LittleEndian.Uint64(d[16:]),
			sum:       binary.LittleEndian.Uint32(d[24:]),
		}
		h := p.storedMin + i
		if lv.arenaLen > maxArena {
			return nil, fmt.Errorf("table: implausible level %d arena size %d", h, lv.arenaLen)
		}
		if lv.startsOff%8 != 0 {
			return nil, fmt.Errorf("table: level %d offset index at unaligned offset %d", h, lv.startsOff)
		}
		if lv.startsOff < pos || lv.arenaOff != lv.startsOff+8*uint64(p.n) {
			return nil, fmt.Errorf("table: level %d directory entry out of order", h)
		}
		end := lv.arenaOff + lv.arenaLen
		if end > uint64(len(buf)) {
			return nil, fmt.Errorf("table: truncated file: level %d needs %d bytes, have %d", h, end, len(buf))
		}
		pos = end
		p.levels[i] = lv
	}
	return p, nil
}

// buildFromV4 constructs the table and coloring over a parsed v4 image.
// With ms == nil (the heap path) the offset indexes are decoded into
// fresh slices and the arenas alias buf; with ms non-nil (the mapped
// path, little-endian hosts only) both indexes and arenas point directly
// into the mapping zero-copy, and per-level verification state is
// installed for the lazy first-touch checks.
func buildFromV4(buf []byte, p *v4File, ms *mappedState) (*Table, *coloring.Coloring, error) {
	t := New(p.n, p.k, p.flags&flagZeroRooted != 0)
	col, rest, err := decodeMeta(p.meta, p.n, p.k, p.flags)
	if err != nil {
		return nil, nil, err
	}
	if p.flags&flagSmartStars != 0 {
		deg, err := decodeSmartDegrees(rest, p.n, p.k)
		if err != nil {
			return nil, nil, err
		}
		t.setSmartFromFile(col.Colors, deg)
		for h := 1; h < p.storedMin; h++ {
			t.levels[h] = level{}
		}
	}
	for i, lv := range p.levels {
		h := p.storedMin + i
		arena := buf[lv.arenaOff : lv.arenaOff+lv.arenaLen : lv.arenaOff+lv.arenaLen]
		startsBytes := buf[lv.startsOff:lv.arenaOff]
		var starts []int64
		if ms != nil {
			starts = castStarts(startsBytes, p.n)
		} else {
			starts = make([]int64, p.n)
			for v := range starts {
				starts[v] = int64(binary.LittleEndian.Uint64(startsBytes[8*v:]))
			}
		}
		for v, off := range starts {
			if off < -1 || off > int64(lv.arenaLen) {
				return nil, nil, fmt.Errorf("table: level %d record %d offset %d out of range", h, v, off)
			}
		}
		t.levels[h] = level{arena: arena, starts: starts}
	}
	if ms != nil {
		ms.fileSum = p.fileSum
		t.mapped = ms
		t.verify = make([]levelVerify, p.k+1)
		for i, lv := range p.levels {
			t.verify[p.storedMin+i] = levelVerify{
				off: int64(lv.startsOff),
				len: int64(lv.arenaOff + lv.arenaLen - lv.startsOff),
				sum: lv.sum,
			}
		}
	}
	return t, col, nil
}

// decodeMeta decodes the coloring section off the front of the meta
// region, returning the remaining bytes (the smart-degree section, when
// flagged). The colors are copied out, never aliased: the coloring
// outlives any mapping teardown.
func decodeMeta(meta []byte, n, k int, flags uint32) (*coloring.Coloring, []byte, error) {
	if flags&flagHasColoring == 0 {
		if flags&flagSmartStars != 0 {
			return nil, nil, fmt.Errorf("table: smart-star table carries no coloring section")
		}
		return nil, meta, nil
	}
	if len(meta) < 8+n {
		return nil, nil, fmt.Errorf("table: coloring section: meta region holds %d bytes, need %d", len(meta), 8+n)
	}
	col := &coloring.Coloring{
		K:         k,
		Colors:    make([]uint8, n),
		PColorful: math.Float64frombits(binary.LittleEndian.Uint64(meta)),
	}
	copy(col.Colors, meta[8:8+n])
	for v, c := range col.Colors {
		if int(c) >= k {
			return nil, nil, fmt.Errorf("table: node %d has color %d ≥ k=%d", v, c, k)
		}
	}
	return col, meta[8+n:], nil
}

// decodeSmartDegrees decodes the n×k uvarint colored-degree section.
func decodeSmartDegrees(b []byte, n, k int) ([]uint32, error) {
	deg := make([]uint32, n*k)
	for i := range deg {
		d, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, fmt.Errorf("table: smart-star degree section: truncated at entry %d", i)
		}
		if d >= uint64(n) {
			return nil, fmt.Errorf("table: implausible colored degree %d (n=%d)", d, n)
		}
		deg[i] = uint32(d)
		b = b[w:]
	}
	return deg, nil
}

// loadLegacy deserializes format versions 3 and 2 — the streaming reader
// the pre-checksum formats use.
func loadLegacy(br *bufio.Reader) (*Table, *coloring.Coloring, error) {
	read := func(data any) error { return binary.Read(br, binary.LittleEndian, data) }
	var magic, version, k32, flags uint32
	for _, p := range []*uint32{&magic, &version, &k32, &flags} {
		if err := read(p); err != nil {
			return nil, nil, fmt.Errorf("table: truncated header: %w", err)
		}
	}
	switch {
	case magic == fileMagicV3 && version == 3:
	case magic == fileMagicV2 && version == 2:
		if flags&flagSmartStars != 0 {
			return nil, nil, fmt.Errorf("table: version-2 file declares smart stars")
		}
	default:
		return nil, nil, fmt.Errorf("table: bad magic/version %#x/%d (want %#x/4, %#x/3 or %#x/2)",
			magic, version, fileMagicV4, fileMagicV3, fileMagicV2)
	}
	var n64 uint64
	if err := read(&n64); err != nil {
		return nil, nil, err
	}
	k := int(k32)
	if k < 1 || k > treelet.MaxK || n64 > maxLoadNodes {
		return nil, nil, fmt.Errorf("table: implausible header k=%d n=%d", k, n64)
	}
	n := int(n64)
	t := New(n, k, flags&flagZeroRooted != 0)
	var col *coloring.Coloring
	if flags&flagHasColoring != 0 {
		var pbits uint64
		if err := read(&pbits); err != nil {
			return nil, nil, fmt.Errorf("table: coloring section: %w", err)
		}
		col = &coloring.Coloring{
			K:         k,
			Colors:    make([]uint8, n),
			PColorful: math.Float64frombits(pbits),
		}
		if err := read(col.Colors); err != nil {
			return nil, nil, fmt.Errorf("table: coloring section: %w", err)
		}
		for v, c := range col.Colors {
			if int(c) >= k {
				return nil, nil, fmt.Errorf("table: node %d has color %d ≥ k=%d", v, c, k)
			}
		}
	}
	if flags&flagSmartStars != 0 {
		if col == nil {
			return nil, nil, fmt.Errorf("table: smart-star table carries no coloring section")
		}
		deg := make([]uint32, n*k)
		for i := range deg {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, fmt.Errorf("table: smart-star degree section: %w", err)
			}
			if d >= uint64(n) {
				return nil, nil, fmt.Errorf("table: implausible colored degree %d (n=%d)", d, n)
			}
			deg[i] = uint32(d)
		}
		t.setSmartFromFile(col.Colors, deg)
	}
	for h := t.storedSizeMin(); h <= k; h++ {
		var alen uint64
		if err := read(&alen); err != nil {
			return nil, nil, fmt.Errorf("table: level %d header: %w", h, err)
		}
		if alen > maxArena {
			return nil, nil, fmt.Errorf("table: implausible level %d arena size %d", h, alen)
		}
		starts := make([]int64, n)
		if err := read(starts); err != nil {
			return nil, nil, fmt.Errorf("table: level %d offset index: %w", h, err)
		}
		arena := make([]byte, alen)
		if _, err := io.ReadFull(br, arena); err != nil {
			return nil, nil, fmt.Errorf("table: level %d arena: %w", h, err)
		}
		for v, off := range starts {
			if off < -1 || off > int64(alen) {
				return nil, nil, fmt.Errorf("table: level %d record %d offset %d out of range", h, v, off)
			}
		}
		t.levels[h] = level{arena: arena, starts: starts}
	}
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	return t, col, nil
}

// ReadTable deserializes just the table, discarding any coloring section.
func ReadTable(r io.Reader) (*Table, error) {
	t, _, err := Load(r)
	return t, err
}

// SaveFile writes the table (and optional coloring) to path in format
// version 4, replacing any existing file. It returns the file size in
// bytes.
func SaveFile(path string, t *Table, col *coloring.Coloring) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := Save(f, t, col)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// LoadFile opens a table written by SaveFile into heap memory, validating
// eagerly — every byte is read and checked before the first query. For
// large MvT4 tables OpenMapped serves the same file zero-copy in O(ms).
func LoadFile(path string) (*Table, *coloring.Coloring, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Load(f)
}
