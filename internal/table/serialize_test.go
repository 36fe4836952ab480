package table

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/coloring"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// testTable builds a small fixed table across three levels.
func testTable(t *testing.T) *Table {
	t.Helper()
	tab := New(4, 3, true)
	var p Pairs
	fillPairs(&p, map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(treelet.Leaf, 0b001): u128.One,
	})
	tab.SetRec(1, 0, &p)
	edge := treelet.FromParents([]int{0, 0})
	fillPairs(&p, map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(edge, 0b011): u128.From64(7),
		treelet.MakeColored(edge, 0b101): {Hi: 3, Lo: 9},
	})
	tab.SetRec(2, 1, &p)
	fillPairs(&p, map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(treelet.FromParents([]int{0, 0, 1}), 0b111): u128.From64(2),
	})
	tab.SetRec(3, 2, &p)
	return tab
}

// equalTables compares two tables entry by entry, synthesized records
// included (a smart table needs its graph attached).
func equalTables(t *testing.T, a, b *Table) {
	t.Helper()
	if a.K != b.K || a.N != b.N || a.ZeroRooted != b.ZeroRooted {
		t.Fatal("header mismatch")
	}
	for h := 1; h <= a.K; h++ {
		for v := int32(0); int(v) < a.N; v++ {
			ka, ca := recEntries(a.Rec(h, v))
			kb, cb := recEntries(b.Rec(h, v))
			if len(ka) != len(kb) {
				t.Fatalf("h=%d v=%d length mismatch", h, v)
			}
			for i := range ka {
				if ka[i] != kb[i] || ca[i] != cb[i] {
					t.Fatalf("h=%d v=%d entry %d mismatch", h, v, i)
				}
			}
		}
	}
}

func TestTableSerializationRoundTrip(t *testing.T) {
	tab := testTable(t)
	var buf bytes.Buffer
	n, err := tab.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalTables(t, tab, got)
	if got.TotalK() != tab.TotalK() {
		t.Error("TotalK changed across serialization")
	}
}

func TestSaveLoadWithColoring(t *testing.T) {
	tab := testTable(t)
	col := coloring.Uniform(tab.N, tab.K, 42)
	var buf bytes.Buffer
	if _, err := Save(&buf, tab, col); err != nil {
		t.Fatal(err)
	}
	got, gotCol, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalTables(t, tab, got)
	if gotCol == nil {
		t.Fatal("coloring section lost")
	}
	if gotCol.K != col.K || gotCol.PColorful != col.PColorful {
		t.Errorf("coloring header mismatch: %+v vs %+v", gotCol, col)
	}
	if !bytes.Equal(gotCol.Colors, col.Colors) {
		t.Error("node colors changed across serialization")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tab := testTable(t)
	col := coloring.Uniform(tab.N, tab.K, 7)
	path := t.TempDir() + "/graph.tbl"
	n, err := SaveFile(path, tab, col)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("SaveFile reported no bytes")
	}
	got, gotCol, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalTables(t, tab, got)
	if gotCol == nil || !bytes.Equal(gotCol.Colors, col.Colors) {
		t.Error("coloring lost through the file round trip")
	}
}

// Legacy fixture pair: an ER(60,180) graph and the MvT3 table the last
// version-3 writer built over it at k=4 (`motivo gen -type er -n 60 -m 180
// -seed 41`, then `motivo build -k 4 -seed 43 -format 3`). Nothing writes
// v3 any more, so these bytes are what pins the legacy reader.
const (
	legacyGraphPath = "testdata/legacy-v3.txt"
	legacyTablePath = "testdata/legacy-v3.tbl"
	// legacyV4SHA256 is the SHA-256 of the v4 file the same build wrote
	// with -format 4: a v3 load re-saved as v4 must reproduce it exactly.
	legacyV4SHA256 = "715c100bd66776a54a1f7cf26d729ed3741ced438dfeba779faacd9276b83381"
)

// TestLegacyV3FixtureLoads pins backward compatibility against real MvT3
// bytes: the heap loader reads the checked-in file with its coloring, the
// result is not a mapping, and re-saving it yields byte-for-byte the v4
// file the same build produces — old tables keep working without the v4
// checksums or directory, and upgrade losslessly.
func TestLegacyV3FixtureLoads(t *testing.T) {
	raw, err := os.ReadFile(legacyTablePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(raw); got != fileMagicV3 {
		t.Fatalf("fixture magic %#x, want %#x", got, fileMagicV3)
	}
	got, gotCol, err := LoadFile(legacyTablePath)
	if err != nil {
		t.Fatal(err)
	}
	if gotCol == nil || gotCol.K != got.K || len(gotCol.Colors) != got.N {
		t.Fatal("coloring lost through the v3 load")
	}
	if got.Mapped() {
		t.Error("a v3 load must not report a mapping")
	}
	var v4 bytes.Buffer
	if _, err := Save(&v4, got, gotCol); err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(v4.Bytes())); sum != legacyV4SHA256 {
		t.Errorf("v3 fixture re-saved as v4 hashes to %s, want %s", sum, legacyV4SHA256)
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	if _, err := ReadTable(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := ReadTable(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must fail")
	}
	var buf bytes.Buffer
	tab := testTable(t)
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Plausible magic but absurd k.
	data := append([]byte(nil), buf.Bytes()...)
	data[8] = 0xFF // k field
	if _, err := ReadTable(bytes.NewReader(data)); err == nil {
		t.Error("implausible k must fail")
	}
	// Wrong version.
	data = append([]byte(nil), buf.Bytes()...)
	data[4] = 9
	if _, err := ReadTable(bytes.NewReader(data)); err == nil {
		t.Error("unknown version must fail")
	}
	// Truncated arena.
	data = buf.Bytes()[:buf.Len()-3]
	if _, err := ReadTable(bytes.NewReader(data)); err == nil {
		t.Error("truncated arena must fail")
	}
	// Corrupt payload byte: entry-level validation must catch it. Flip the
	// last arena byte (a count varint terminator) to a continuation byte.
	data = append([]byte(nil), buf.Bytes()...)
	data[len(data)-1] |= 0x80
	if _, err := ReadTable(bytes.NewReader(data)); err == nil {
		t.Error("corrupt record payload must fail validation")
	}
}

// TestOpenErrorSurface drives the same corrupted files through both open
// paths — LoadFile (heap) and OpenMapped (zero-copy) — and pins where
// each one fails. The heap path checks the whole-file checksum eagerly,
// so every flipped byte fails at open; the mapped path validates the
// header, directory and meta region at open but defers level payloads to
// first touch, so directory-checksum corruption opens fine and surfaces
// through Verify.
func TestOpenErrorSurface(t *testing.T) {
	tab := testTable(t) // k=3, materialized: three dir entries at 48/80/112
	col := coloring.Uniform(tab.N, tab.K, 5)
	var v4 bytes.Buffer
	if _, err := Save(&v4, tab, col); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(legacyTablePath)
	if err != nil {
		t.Fatal(err)
	}
	metaOff := headerSize + 3*dirEntrySize // first meta byte (PColorful bits)

	// Probe once whether this platform maps at all; without mmap every
	// OpenMapped returns ErrNotMappable and the mapped expectations below
	// would be vacuous.
	probe := t.TempDir() + "/probe.tbl"
	if err := os.WriteFile(probe, v4.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mmapOK := true
	if ptab, _, err := OpenMapped(probe); err != nil {
		if !errors.Is(err, ErrNotMappable) {
			t.Fatal(err)
		}
		mmapOK = false
	} else {
		ptab.Close()
	}

	mutate := func(src []byte, f func(d []byte)) func() []byte {
		return func() []byte {
			d := append([]byte(nil), src...)
			f(d)
			return d
		}
	}
	cases := []struct {
		name string
		data func() []byte
		// heapOK: LoadFile must succeed. mappedNotMappable: OpenMapped must
		// fail with ErrNotMappable (the MapAuto fallback signal).
		// mappedLazy: OpenMapped must succeed and Verify must then fail —
		// everything else must fail hard at OpenMapped.
		heapOK            bool
		mappedNotMappable bool
		mappedLazy        bool
	}{
		{name: "truncated-header", data: func() []byte { return v4.Bytes()[:32] },
			mappedNotMappable: true}, // below 48 bytes it could be a tiny legacy file
		{name: "truncated-arena", data: func() []byte { return v4.Bytes()[:v4.Len()-3] }},
		{name: "bad-magic", data: mutate(v4.Bytes(), func(d []byte) { d[0] ^= 0xFF })},
		{name: "bad-version", data: mutate(v4.Bytes(), func(d []byte) { d[4] = 9 })},
		{name: "arena-length-overflow", data: mutate(v4.Bytes(), func(d []byte) {
			binary.LittleEndian.PutUint64(d[headerSize:], 1<<50) // level-1 arenaLen
		})},
		{name: "unaligned-starts-offset", data: mutate(v4.Bytes(), func(d []byte) {
			off := binary.LittleEndian.Uint64(d[headerSize+8:])
			binary.LittleEndian.PutUint64(d[headerSize+8:], off+1)
		})},
		{name: "corrupt-meta-region", data: mutate(v4.Bytes(), func(d []byte) { d[metaOff] ^= 0x01 })},
		{name: "corrupt-level-checksum", data: mutate(v4.Bytes(), func(d []byte) {
			d[headerSize+24] ^= 0x01 // level-1 dir checksum field
		}), mappedLazy: true},
		{name: "corrupt-arena-payload", data: mutate(v4.Bytes(), func(d []byte) {
			d[v4.Len()-1] ^= 0x40 // last arena byte, level k
		}), mappedLazy: true},
		{name: "legacy-v3-file", data: func() []byte { return v3 },
			heapOK: true, mappedNotMappable: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/t.tbl"
			if err := os.WriteFile(path, tc.data(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, herr := LoadFile(path)
			if tc.heapOK && herr != nil {
				t.Errorf("heap open: unexpected error %v", herr)
			}
			if !tc.heapOK && herr == nil {
				t.Error("heap open: corruption went undetected")
			}
			if !mmapOK {
				return
			}
			mtab, _, merr := OpenMapped(path)
			switch {
			case tc.mappedNotMappable:
				if !errors.Is(merr, ErrNotMappable) {
					t.Errorf("mapped open: want ErrNotMappable, got %v", merr)
				}
			case tc.mappedLazy:
				if merr != nil {
					t.Fatalf("mapped open must defer level validation, got %v", merr)
				}
				defer mtab.Close()
				if verr := mtab.Verify(); verr == nil {
					t.Error("Verify on a corrupted mapping must fail")
				}
			default:
				if merr == nil {
					mtab.Close()
					t.Error("mapped open: corruption went undetected")
				} else if errors.Is(merr, ErrNotMappable) {
					t.Errorf("mapped open: corruption must fail hard, not signal fallback: %v", merr)
				}
			}
		})
	}
}
