package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// noSeek hides Seek so ReadEdgeList takes the buffered legacy path.
type noSeek struct{ io.Reader }

// graphBytes serializes g's CSR — byte equality here is exact structural
// equality (offsets and adjacency).
func graphBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeLists are the inputs both edge-list readers must agree on: sparse
// ids, duplicates in both directions, self-loops, comments, blank lines.
func edgeLists() map[string]string {
	rng := rand.New(rand.NewSource(42))
	var big strings.Builder
	big.WriteString("# random multigraph with sparse ids\n")
	for i := 0; i < 5000; i++ {
		u := rng.Intn(400) * 7
		v := rng.Intn(400) * 7
		big.WriteString(strconv.Itoa(u))
		big.WriteByte(' ')
		big.WriteString(strconv.Itoa(v))
		big.WriteByte('\n')
	}
	return map[string]string{
		"empty":      "",
		"comments":   "# a\n% b\n\n",
		"loops-only": "5 5\n9 9\n",
		"basic":      "10 20\n20 30\n30 10\n10 40\n",
		"dups-and-loops": "1 2\n2 1\n1 2\n3 3\n2 4\n4 2\n" +
			"100 1\n1 100\n",
		"tabs-and-spaces": "7\t8\n8  9\n\t9 7\n",
		"extra-fields":    "1 2 0.5\n2 3 0.7\n", // SNAP-style weights: ignored
		"negative-ids":    "-1 0\n0 -5\n-5 -1\n",
		"random":          big.String(),
	}
}

// malformedEdgeLists are inputs both edge-list readers must reject.
var malformedEdgeLists = []string{"1\n", "a b\n", "1 2.5\n", "0 1\nx\n"}

// TestStreamingMatchesBuffered is the golden equivalence test for the
// two-pass streaming edge-list reader: on every input of edgeLists it must
// produce a CSR byte-identical to the legacy buffered reader's (same
// first-appearance id compaction, same sort/dedup normalization).
func TestStreamingMatchesBuffered(t *testing.T) {
	for name, in := range edgeLists() {
		t.Run(name, func(t *testing.T) {
			// strings.Reader is an io.ReadSeeker → streaming two-pass path.
			gs, err := ReadEdgeList(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			gb, err := ReadEdgeList(noSeek{strings.NewReader(in)})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(graphBytes(t, gs), graphBytes(t, gb)) {
				t.Errorf("streaming reader CSR differs from buffered reader CSR")
			}
		})
	}
}

// FuzzReadEdgeList feeds the same bytes to the two-pass streaming reader
// (a bytes.Reader seeks) and to the buffered reader (noSeek hides Seek):
// either both fail, or both give byte-identical WriteBinary images.
func FuzzReadEdgeList(f *testing.F) {
	for _, in := range edgeLists() {
		f.Add([]byte(in))
	}
	for _, in := range malformedEdgeLists {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		gs, errS := ReadEdgeList(bytes.NewReader(in))
		gb, errB := ReadEdgeList(noSeek{bytes.NewReader(in)})
		if (errS == nil) != (errB == nil) {
			t.Fatalf("streaming err %v, buffered err %v", errS, errB)
		}
		if errS == nil && !bytes.Equal(graphBytes(t, gs), graphBytes(t, gb)) {
			t.Fatal("streaming reader CSR differs from buffered reader CSR")
		}
	})
}

// TestStreamingReaderAtOffset: the two-pass reader must rewind to where
// the edge list started, not to the start of the file.
func TestStreamingReaderAtOffset(t *testing.T) {
	r := strings.NewReader("XXXX0 1\n1 2\n")
	var skip [4]byte
	if _, err := io.ReadFull(r, skip[:]); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeList(r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3 and 2", g.NumNodes(), g.NumEdges())
	}
}

// TestStreamingErrorsMatchBuffered: both paths must reject the same
// malformed lines with line-numbered messages.
func TestStreamingErrorsMatchBuffered(t *testing.T) {
	for _, in := range malformedEdgeLists {
		_, errS := ReadEdgeList(strings.NewReader(in))
		_, errB := ReadEdgeList(noSeek{strings.NewReader(in)})
		if errS == nil || errB == nil {
			t.Errorf("input %q: streaming err %v, buffered err %v — both must fail", in, errS, errB)
		}
	}
}

// TestEdgeListLineLimit: a line of maxLineBytes-1 bytes before its newline
// parses and a line of maxLineBytes fails with bufio.ErrTooLong, on the
// streaming and the buffered path alike.
func TestEdgeListLineLimit(t *testing.T) {
	line := func(n int) string { return "0" + strings.Repeat(" ", n-2) + "1\n" }
	for _, tc := range []struct {
		n  int
		ok bool
	}{{maxLineBytes - 1, true}, {maxLineBytes, false}} {
		in := "2 3\n" + line(tc.n) + "1 2\n"
		gs, errS := ReadEdgeList(strings.NewReader(in))
		gb, errB := ReadEdgeList(noSeek{strings.NewReader(in)})
		for path, err := range map[string]error{"streaming": errS, "buffered": errB} {
			if tc.ok && err != nil {
				t.Errorf("%s: a %d-byte line failed: %v", path, tc.n, err)
			}
			if !tc.ok && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%s: a %d-byte line gave %v, want %v", path, tc.n, err, bufio.ErrTooLong)
			}
		}
		if tc.ok && errS == nil && errB == nil {
			if gs.NumNodes() != 4 || gs.NumEdges() != 3 || !bytes.Equal(graphBytes(t, gs), graphBytes(t, gb)) {
				t.Errorf("a %d-byte line: streaming n=%d m=%d, or the two paths differ", tc.n, gs.NumNodes(), gs.NumEdges())
			}
		}
	}
}

// validBinary builds a well-formed MvG1 byte image to mutate.
func validBinary(t *testing.T) []byte {
	t.Helper()
	g := mustBuild(t, 6, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}})
	return graphBytes(t, g)
}

// openBoth routes the same bytes through the heap reader and (via a temp
// file) the mmap opener, so the shared validator provably guards both.
func openBoth(t *testing.T, data []byte) (heapErr, mapErr error) {
	t.Helper()
	_, heapErr = ReadBinary(bytes.NewReader(data))
	path := filepath.Join(t.TempDir(), "g.mvg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := OpenMapped(path)
	if err == nil {
		defer g.Close()
	}
	return heapErr, err
}

// TestBinaryErrorSurface drives hostile MvG1 images through ReadBinary
// and OpenMapped: both loaders must reject every corruption, and neither
// may trust header counts before checking them against the actual file
// (a 24-byte header claiming 10^15 nodes must fail cheaply, not allocate).
func TestBinaryErrorSurface(t *testing.T) {
	le := binary.LittleEndian
	offsetsAt := func(v int) int { return binaryHeaderSize + 8*v }
	valid := validBinary(t)
	n := int(le.Uint64(valid[8:16]))
	adjAt := func(i int) int { return binaryHeaderSize + 8*(n+1) + 4*i }

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated-header", func(b []byte) []byte { return b[:binaryHeaderSize-1] }},
		{"truncated-offsets", func(b []byte) []byte { return b[:binaryHeaderSize+11] }},
		{"truncated-adjacency", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xEE) }},
		{"bad-magic", func(b []byte) []byte {
			le.PutUint64(b[0:8], 0xDEADBEEF)
			return b
		}},
		{"magic-high-bits", func(b []byte) []byte {
			le.PutUint64(b[0:8], uint64(binaryMagic)|1<<40)
			return b
		}},
		{"huge-n", func(b []byte) []byte {
			le.PutUint64(b[8:16], 1<<50) // hostile count ≫ file size
			return b
		}},
		{"n-over-maxnodes", func(b []byte) []byte {
			le.PutUint64(b[8:16], MaxNodes+1)
			return b
		}},
		{"odd-m2", func(b []byte) []byte {
			le.PutUint64(b[16:24], le.Uint64(b[16:24])+1)
			return b
		}},
		{"huge-m2", func(b []byte) []byte {
			le.PutUint64(b[16:24], 1<<52)
			return b
		}},
		{"offsets-nonzero-start", func(b []byte) []byte {
			le.PutUint64(b[offsetsAt(0):], 4)
			return b
		}},
		{"offsets-nonmonotone", func(b []byte) []byte {
			le.PutUint64(b[offsetsAt(2):], le.Uint64(b[offsetsAt(1):])-1)
			return b
		}},
		{"offsets-negative", func(b []byte) []byte {
			le.PutUint64(b[offsetsAt(3):], ^uint64(7)) // -8 as int64
			return b
		}},
		{"offsets-final-short", func(b []byte) []byte {
			le.PutUint64(b[offsetsAt(n):], le.Uint64(b[offsetsAt(n):])-4)
			return b
		}},
		{"adjacency-out-of-range", func(b []byte) []byte {
			le.PutUint32(b[adjAt(0):], uint32(n))
			return b
		}},
		{"adjacency-negative", func(b []byte) []byte {
			le.PutUint32(b[adjAt(0):], ^uint32(0))
			return b
		}},
		{"adjacency-unsorted", func(b []byte) []byte {
			// Node 0 has ≥ 2 neighbors; swapping breaks strict ascent.
			a, c := le.Uint32(b[adjAt(0):]), le.Uint32(b[adjAt(1):])
			le.PutUint32(b[adjAt(0):], c)
			le.PutUint32(b[adjAt(1):], a)
			return b
		}},
		{"adjacency-self-loop", func(b []byte) []byte {
			le.PutUint32(b[adjAt(0):], 0) // first neighbor of node 0 → loop
			return b
		}},
		{"adjacency-duplicate", func(b []byte) []byte {
			le.PutUint32(b[adjAt(1):], le.Uint32(b[adjAt(0):]))
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			heapErr, mapErr := openBoth(t, data)
			if heapErr == nil {
				t.Error("ReadBinary accepted the corrupt image")
			}
			if mapErr == nil {
				t.Error("OpenMapped accepted the corrupt image")
			}
		})
	}

	// Control: the unmutated image must pass both loaders.
	heapErr, mapErr := openBoth(t, append([]byte(nil), valid...))
	if heapErr != nil || mapErr != nil {
		t.Fatalf("valid image rejected: heap %v, map %v", heapErr, mapErr)
	}
}

// TestReadBinarySizeUnknown: with a plain io.Reader (no Seek, so the file
// size is unknowable) hostile counts must still fail after bounded reads.
func TestReadBinarySizeUnknown(t *testing.T) {
	valid := validBinary(t)
	if _, err := ReadBinary(noSeek{bytes.NewReader(valid)}); err != nil {
		t.Fatalf("valid image through a plain reader: %v", err)
	}
	hostile := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hostile[8:16], 1<<40)
	if _, err := ReadBinary(noSeek{bytes.NewReader(hostile)}); err == nil {
		t.Error("hostile node count through a plain reader must fail")
	}
}

// TestOpenMappedRoundTrip: a mapped graph must be structurally identical
// to its heap twin, report its residency, and close cleanly.
func TestOpenMappedRoundTrip(t *testing.T) {
	g := mustBuild(t, 8, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {0, 4}, {2, 6}})
	path := filepath.Join(t.TempDir(), "g.mvg")
	data := graphBytes(t, g)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gm, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if !gm.Mapped() || gm.MappedBytes() != int64(len(data)) {
		t.Errorf("Mapped=%v MappedBytes=%d, want true and %d", gm.Mapped(), gm.MappedBytes(), len(data))
	}
	if g.Mapped() || g.MappedBytes() != 0 {
		t.Error("heap graph claims to be mapped")
	}
	if !bytes.Equal(graphBytes(t, gm), data) {
		t.Error("mapped graph CSR differs from source")
	}
	if err := gm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gm.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close on a heap graph must be a no-op: %v", err)
	}
}

// TestOpenSniffsFormat: Open routes by content — text edge lists stream
// (and refuse OpenMapRequire), MvG1 files map under auto/require and
// heap-load under off — with identical graphs either way.
func TestOpenSniffsFormat(t *testing.T) {
	dir := t.TempDir()
	// Edges chosen so WriteEdgeList's first-appearance order is the
	// identity — the text round trip then reproduces the CSR byte for byte.
	g := mustBuild(t, 5, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	txtPath := filepath.Join(dir, "g.txt")
	binPath := filepath.Join(dir, "g.mvg")
	var txt bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(binPath, graphBytes(t, g), 0o644); err != nil {
		t.Fatal(err)
	}

	want := graphBytes(t, g)
	for _, tc := range []struct {
		path   string
		mode   OpenMode
		mapped bool
	}{
		{txtPath, OpenAuto, false},
		{txtPath, OpenHeap, false},
		{binPath, OpenAuto, true},
		{binPath, OpenMapRequire, true},
		{binPath, OpenHeap, false},
	} {
		got, err := Open(tc.path, tc.mode)
		if err != nil {
			t.Fatalf("Open(%s, %v): %v", tc.path, tc.mode, err)
		}
		if got.Mapped() != tc.mapped {
			t.Errorf("Open(%s, %v): Mapped=%v, want %v", tc.path, tc.mode, got.Mapped(), tc.mapped)
		}
		if !bytes.Equal(graphBytes(t, got), want) {
			t.Errorf("Open(%s, %v): CSR differs", tc.path, tc.mode)
		}
		got.Close()
	}
	if _, err := Open(txtPath, OpenMapRequire); err == nil {
		t.Error("OpenMapRequire on a text edge list must fail")
	}
	if _, err := Open(filepath.Join(dir, "nope"), OpenAuto); err == nil {
		t.Error("Open on a missing file must fail")
	}
}

// TestParseOpenMode pins the flag vocabulary and its inverse.
func TestParseOpenMode(t *testing.T) {
	for _, m := range []OpenMode{OpenAuto, OpenHeap, OpenMapRequire} {
		got, err := ParseOpenMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseOpenMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseOpenMode("mmap"); err == nil {
		t.Error(`ParseOpenMode("mmap") must fail`)
	}
}
