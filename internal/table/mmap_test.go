package table

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/treelet"
	"repro/internal/u128"
)

// mappedOrSkip opens path mapped, skipping the test on platforms where
// mapping is unavailable (the !unix stub).
func mappedOrSkip(t *testing.T, path string) (*Table, *coloring.Coloring) {
	t.Helper()
	tab, col, err := OpenMapped(path)
	if errors.Is(err, ErrNotMappable) {
		t.Skipf("mapping unavailable here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.Close() })
	return tab, col
}

func TestOpenMappedMatchesHeap(t *testing.T) {
	tab := testTable(t)
	col := coloring.Uniform(tab.N, tab.K, 42)
	path := t.TempDir() + "/graph.tbl"
	if _, err := SaveFile(path, tab, col); err != nil {
		t.Fatal(err)
	}
	heap, heapCol, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, mappedCol := mappedOrSkip(t, path)
	if !mapped.Mapped() || heap.Mapped() {
		t.Fatal("Mapped() misreports the open path")
	}
	equalTables(t, heap, mapped)
	if mapped.TotalK() != tab.TotalK() {
		t.Error("TotalK changed through the mapped path")
	}
	if mappedCol == nil || !bytes.Equal(mappedCol.Colors, heapCol.Colors) ||
		mappedCol.PColorful != heapCol.PColorful {
		t.Error("coloring mismatch between open paths")
	}

	// Accounting: the mapping covers the whole file; nothing of a
	// materialized mapped table lives on the heap, while the heap table's
	// bytes are all heap.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.MappedBytes() != st.Size() {
		t.Errorf("MappedBytes = %d, file is %d", mapped.MappedBytes(), st.Size())
	}
	if mapped.HeapBytes() != 0 {
		t.Errorf("HeapBytes = %d on a materialized mapped table", mapped.HeapBytes())
	}
	if heap.MappedBytes() != 0 || heap.HeapBytes() != heap.Bytes() {
		t.Error("heap table accounting wrong")
	}
	if mapped.Bytes() != heap.Bytes() {
		t.Errorf("logical Bytes differ: mapped %d, heap %d", mapped.Bytes(), heap.Bytes())
	}

	if err := mapped.Verify(); err != nil {
		t.Errorf("Verify on an intact mapped table: %v", err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
}

func TestOpenMappedSmartTable(t *testing.T) {
	tab, g, col := smartFixture(t)
	path := t.TempDir() + "/smart.tbl"
	if _, err := SaveFile(path, tab, col); err != nil {
		t.Fatal(err)
	}
	mapped, _ := mappedOrSkip(t, path)
	if !mapped.SmartStars() || mapped.GraphAttached() {
		t.Fatal("mapped table must be smart and detached")
	}
	if err := mapped.AttachGraph(g); err != nil {
		t.Fatal(err)
	}
	equalTables(t, tab, mapped)
	// The synthesis state is decoded onto the heap (it outlives nothing —
	// the mapping stays up — but AttachGraph needs mutable state); only
	// that is charged as heap bytes.
	if hb := mapped.HeapBytes(); hb <= 0 || hb >= mapped.Bytes() {
		t.Errorf("smart mapped HeapBytes = %d (total %d)", hb, mapped.Bytes())
	}
}

func TestOpenMappedRejectsLegacyFormats(t *testing.T) {
	_, _, err := OpenMapped(legacyTablePath)
	if !errors.Is(err, ErrNotMappable) {
		t.Fatalf("v3 file on the mapped path: %v (want ErrNotMappable)", err)
	}
	// The advertised fallback must actually work (TestLegacyV3FixtureLoads
	// pins what it loads).
	if _, _, err := LoadFile(legacyTablePath); err != nil {
		t.Fatal(err)
	}
}

func TestMappedTableIsReadOnly(t *testing.T) {
	tab := testTable(t)
	path := t.TempDir() + "/ro.tbl"
	if _, err := SaveFile(path, tab, coloring.Uniform(tab.N, tab.K, 1)); err != nil {
		t.Fatal(err)
	}
	mapped, _ := mappedOrSkip(t, path)
	if err := mapped.SetLevel(2, nil, make([]int64, mapped.N)); err == nil {
		t.Fatal("SetLevel on a mapped table must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRec on a mapped table must panic")
		}
	}()
	var p Pairs
	p.Append(treelet.MakeColored(treelet.Leaf, 0b001), u128.One)
	mapped.SetRec(1, 0, &p)
}

func TestMappedLazyVerification(t *testing.T) {
	tab := testTable(t)
	col := coloring.Uniform(tab.N, tab.K, 3)
	path := t.TempDir() + "/corrupt.tbl"
	if _, err := SaveFile(path, tab, col); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the last arena byte: the header, directory, and meta
	// region stay intact, so a mapped open succeeds — the damage is in the
	// last stored level and must surface on its first touch.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The heap loader checks everything eagerly and must refuse outright.
	if _, _, err := LoadFile(path); err == nil {
		t.Fatal("heap load of a corrupted file must fail")
	}

	mapped, _, err := OpenMapped(path)
	if errors.Is(err, ErrNotMappable) {
		t.Skipf("mapping unavailable here: %v", err)
	}
	if err != nil {
		t.Fatalf("mapped open is lazy and must succeed: %v", err)
	}
	defer mapped.Close()

	// Verify catches it as an error...
	if err := mapped.Verify(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Verify on a corrupted mapping: %v", err)
	}
	// ...and so does a fresh mapping's first record touch, as a panic.
	fresh, _, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Rec on a corrupted level must panic")
			}
			if !strings.Contains(r.(string), "checksum mismatch") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		fresh.Rec(fresh.K, 0)
	}()

	// Intact levels still serve: level 1's span is untouched.
	if got := fresh.Rec(1, 0).Len(); got != tab.Rec(1, 0).Len() {
		t.Errorf("intact level unusable after sibling corruption: %d entries", got)
	}
}

// TestSaveFileKeepsMappedTable: SaveFile replaces the file by rename, so a
// table mapped from the old file keeps its bytes — it still verifies and
// serves the same records — while a new open reads the new table. (Written
// in place, the old mapping would show the new bytes, or fault past the
// new end of a shorter file.)
func TestSaveFileKeepsMappedTable(t *testing.T) {
	old := testTable(t)
	dir := t.TempDir()
	path := dir + "/served.tbl"
	if _, err := SaveFile(path, old, coloring.Uniform(old.N, old.K, 5)); err != nil {
		t.Fatal(err)
	}
	mapped, _ := mappedOrSkip(t, path)

	// A larger, different table for the same path.
	next := testTable(t)
	var p Pairs
	p.FromMap(map[treelet.Colored]u128.Uint128{
		treelet.MakeColored(treelet.FromParents([]int{0, 0, 1}), 0b111): u128.From64(11),
		treelet.MakeColored(treelet.FromParents([]int{0, 0, 0}), 0b111): {Hi: 1, Lo: 4},
	})
	next.SetRec(3, 3, &p)
	if _, err := SaveFile(path, next, coloring.Uniform(next.N, next.K, 6)); err != nil {
		t.Fatal(err)
	}

	if err := mapped.Verify(); err != nil {
		t.Fatalf("the old mapping no longer verifies after the file was replaced: %v", err)
	}
	equalTables(t, old, mapped)
	loaded, _, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalTables(t, next, loaded)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d files after the save, want only the table", len(entries))
	}
}
