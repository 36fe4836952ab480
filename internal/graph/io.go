package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxNodes bounds the vertex count of any loadable graph: Node is an
// int32, so ids live in [0, MaxNodes).
const MaxNodes = 1<<31 - 1

// maxLineBytes bounds one line of an edge list, its newline included.
const maxLineBytes = 1 << 20

// scanEdges parses the whitespace-separated edge-list format ("u v" per
// line; blank lines and lines starting with '#' or '%' are comments),
// calling fn with each edge's raw vertex ids. It is the one parser behind
// both passes of the streaming reader and the buffered fallback, so every
// path reports identical errors for identical inputs.
func scanEdges(r io.Reader, fn func(u, v int64) error) error {
	sc := bufio.NewScanner(r)
	// Lines may run to maxLineBytes; the buffer grows to that only when a
	// line needs it.
	sc.Buffer(nil, maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: expected two vertex ids, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if err := fn(u, v); err != nil {
			return fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// remapper compacts sparse raw vertex ids to [0, n) in order of first
// appearance — the id schedule both reader paths share, so they produce
// identical graphs from identical inputs.
type remapper map[int64]Node

func (m remapper) id(raw int64) (Node, error) {
	if v, ok := m[raw]; ok {
		return v, nil
	}
	if len(m) >= MaxNodes {
		return 0, fmt.Errorf("more than %d distinct vertex ids", MaxNodes)
	}
	v := Node(len(m))
	m[raw] = v
	return v, nil
}

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line;
// lines starting with '#' or '%' are comments). Vertex ids may be sparse;
// they are compacted to [0, n) preserving order of first appearance.
// Self-loops are dropped (their endpoints still claim an id) and repeated
// edges are deduplicated, exactly as graph.Build does.
//
// When r can seek (an *os.File, bytes.Reader, …) the input is read in two
// streaming passes — pass 1 counts degrees and builds the id remap with
// O(n) scratch, pass 2 fills a preallocated CSR in place — so peak memory
// is the CSR itself plus the remap, never an O(m) edge buffer. Plain
// readers fall back to buffering the edge list.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	if rs, ok := r.(io.ReadSeeker); ok {
		if pos, err := rs.Seek(0, io.SeekCurrent); err == nil {
			return readEdgeListStreaming(rs, pos)
		}
		// A Seeker that cannot report its position (pipes pretending)
		// gets the buffered path.
	}
	return readEdgeListBuffered(r)
}

// readEdgeListBuffered is the legacy one-pass reader for non-seekable
// inputs: every edge is buffered and handed to Build, which sorts,
// deduplicates and drops self-loops.
func readEdgeListBuffered(r io.Reader) (*Graph, error) {
	remap := make(remapper)
	var edges []Edge
	err := scanEdges(r, func(u, v int64) error {
		ui, err := remap.id(u)
		if err != nil {
			return err
		}
		vi, err := remap.id(v)
		if err != nil {
			return err
		}
		edges = append(edges, Edge{ui, vi})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Build(len(remap), edges)
}

// readEdgeListStreaming is the two-pass streaming reader. Pass 1 builds
// the id remap and per-vertex degree counts (duplicates included, loops
// excluded); pass 2 seeks back and scatters endpoints into a CSR sized
// exactly from the counts. Each adjacency list is then sorted and
// deduplicated in place, compacting the arena — the same normalization
// Build applies to a buffered edge list, so the two paths are
// bit-identical on any input.
func readEdgeListStreaming(rs io.ReadSeeker, pos int64) (*Graph, error) {
	remap := make(remapper)
	var deg []int64
	err := scanEdges(rs, func(u, v int64) error {
		ui, err := remap.id(u)
		if err != nil {
			return err
		}
		vi, err := remap.id(v)
		if err != nil {
			return err
		}
		for len(deg) < len(remap) {
			deg = append(deg, 0)
		}
		if ui == vi {
			return nil // self-loop: the id is claimed, the edge dropped
		}
		deg[ui]++
		deg[vi]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := len(remap)
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]Node, offsets[n])
	// deg becomes the per-vertex fill cursor for pass 2.
	fill := deg
	copy(fill, offsets[:n])

	if _, err := rs.Seek(pos, io.SeekStart); err != nil {
		return nil, fmt.Errorf("graph: rewind for pass 2: %w", err)
	}
	err = scanEdges(rs, func(u, v int64) error {
		ui, ok := remap[u]
		if !ok {
			return fmt.Errorf("vertex %d appeared between passes (input changed mid-read?)", u)
		}
		vi, ok := remap[v]
		if !ok {
			return fmt.Errorf("vertex %d appeared between passes (input changed mid-read?)", v)
		}
		if ui == vi {
			return nil
		}
		if fill[ui] >= offsets[ui+1] || fill[vi] >= offsets[vi+1] {
			return fmt.Errorf("edge count grew between passes (input changed mid-read?)")
		}
		adj[fill[ui]] = vi
		fill[ui]++
		adj[fill[vi]] = ui
		fill[vi]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if fill[v] != offsets[v+1] {
			return nil, fmt.Errorf("graph: edge count shrank between passes (input changed mid-read?)")
		}
	}

	// Sort + dedup each list in place, compacting the arena. The write
	// cursor w never overtakes the read range, so this is safe in place.
	var w int64
	lo := int64(0)
	for v := 0; v < n; v++ {
		hi := offsets[v+1]
		ns := adj[lo:hi]
		sortNodes(ns)
		offsets[v] = w
		prev := Node(-1)
		for _, u := range ns {
			if u == prev {
				continue
			}
			adj[w] = u
			prev = u
			w++
		}
		lo = hi
	}
	offsets[n] = w
	return &Graph{offsets: offsets, adj: adj[:w:w]}, nil
}

// WriteEdgeList writes the graph as a plain edge list (each undirected edge
// once, smaller endpoint first).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for v := Node(0); int(v) < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, u); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the compact binary graph format (paper §5:
// "converted to the motivo binary format").
const binaryMagic = uint32(0x4d764731) // "MvG1"

// binaryHeaderSize is the MvG1 header: magic, n, m2 as little-endian u64.
const binaryHeaderSize = 24

// binaryFileSize returns the exact byte size of an MvG1 file for n nodes
// and an adjacency arena of m2 entries — the header, the (n+1)-entry
// offset index, and the arena itself.
func binaryFileSize(n, m2 int64) int64 {
	return binaryHeaderSize + 8*(n+1) + 4*m2
}

// WriteBinary serializes the graph in the compact little-endian MvG1 CSR
// format: a 24-byte header (magic, n, m2), the (n+1)-entry int64 offset
// index, then the int32 adjacency arena. Both sections start 8- and
// 4-byte aligned respectively, which is what lets OpenMapped serve the
// file zero-copy straight out of a read-only mapping.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{uint64(binaryMagic), uint64(g.NumNodes()), uint64(len(g.adj))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.adj); err != nil {
		return err
	}
	return bw.Flush()
}

// validateBinaryHeader checks an MvG1 header against the structural
// limits, returning (n, m2). Shared by the heap reader and OpenMapped so
// a hostile header is rejected identically on both paths, before any
// size-proportional allocation.
func validateBinaryHeader(hdr [3]uint64) (n, m2 int64, err error) {
	if uint32(hdr[0]) != binaryMagic || hdr[0]>>32 != 0 {
		return 0, 0, fmt.Errorf("graph: bad magic %#x (not an MvG1 file)", hdr[0])
	}
	if hdr[1] > MaxNodes {
		return 0, 0, fmt.Errorf("graph: header claims %d nodes, max is %d", hdr[1], MaxNodes)
	}
	n = int64(hdr[1])
	if hdr[2] > uint64(n)*uint64(MaxNodes) || hdr[2]%2 != 0 {
		return 0, 0, fmt.Errorf("graph: header claims %d adjacency entries for %d nodes", hdr[2], n)
	}
	return n, int64(hdr[2]), nil
}

// validateCSR checks every structural invariant the Graph methods rely on:
// offsets start at 0, are monotone, and end exactly at the arena length;
// each adjacency list is strictly increasing (sorted, no duplicates), free
// of self-loops, and in [0, n). It is the one validator shared by
// ReadBinary and OpenMapped — untrusted bytes pass it or are rejected,
// never served.
func validateCSR(offsets []int64, adj []Node) error {
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return fmt.Errorf("graph: offsets start at %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(adj)) {
		return fmt.Errorf("graph: offsets end at %d, arena has %d entries", offsets[n], len(adj))
	}
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if hi < lo {
			return fmt.Errorf("graph: offsets not monotone at node %d (%d after %d)", v, hi, lo)
		}
		if hi > int64(len(adj)) {
			return fmt.Errorf("graph: node %d adjacency [%d:%d) beyond the %d-entry arena", v, lo, hi, len(adj))
		}
		prev := Node(-1)
		for _, u := range adj[lo:hi] {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: node %d has neighbor %d out of range [0,%d)", v, u, n)
			}
			if u == Node(v) {
				return fmt.Errorf("graph: node %d has a self-loop", v)
			}
			if u <= prev {
				return fmt.Errorf("graph: node %d adjacency not strictly increasing at %d", v, u)
			}
			prev = u
		}
	}
	return nil
}

// readerSize reports the number of bytes remaining in r when that is
// discoverable without consuming it (io.Seeker covers *os.File,
// bytes.Reader and strings.Reader). ok is false for plain streams.
func readerSize(r io.Reader) (size int64, ok bool) {
	s, isSeeker := r.(io.Seeker)
	if !isSeeker {
		return 0, false
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, false
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return 0, false
	}
	return end - cur, true
}

// chunkEntries bounds the scratch buffer of the incremental section
// readers: 8192 entries = 64 KiB of int64s per read.
const chunkEntries = 8192

// readInt64s reads count little-endian int64s in bounded chunks. The
// result slice grows with the bytes actually read, so a hostile count in
// a truncated file fails after a bounded allocation instead of
// make([]int64, count) up front.
func readInt64s(br *bufio.Reader, count int64) ([]int64, error) {
	out := make([]int64, 0, min(count, chunkEntries))
	buf := make([]byte, 8*chunkEntries)
	for int64(len(out)) < count {
		c := min(count-int64(len(out)), chunkEntries)
		b := buf[:8*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated offset index: %w", err)
		}
		for i := int64(0); i < c; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
	}
	return out, nil
}

// readNodes reads count little-endian int32 node ids in bounded chunks,
// growing the result with the bytes actually read (see readInt64s).
func readNodes(br *bufio.Reader, count int64) ([]Node, error) {
	out := make([]Node, 0, min(count, 2*chunkEntries))
	buf := make([]byte, 8*chunkEntries)
	for int64(len(out)) < count {
		c := min(count-int64(len(out)), 2*chunkEntries)
		b := buf[:4*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated adjacency arena: %w", err)
		}
		for i := int64(0); i < c; i++ {
			out = append(out, Node(binary.LittleEndian.Uint32(b[4*i:])))
		}
	}
	return out, nil
}

// ReadBinary deserializes a graph written by WriteBinary, treating the
// input as untrusted: the header is validated (magic, node/edge limits,
// and — when r can report its size — an exact byte-length match) before
// any size-proportional allocation, sections are read in bounded chunks so
// truncation fails early, and the resulting CSR must pass validateCSR
// (monotone in-bounds offsets, sorted loop-free lists) before a Graph is
// returned.
func ReadBinary(r io.Reader) (*Graph, error) {
	size, sizeKnown := readerSize(r)
	br := bufio.NewReaderSize(r, 1<<20)
	var hb [binaryHeaderSize]byte
	if _, err := io.ReadFull(br, hb[:]); err != nil {
		return nil, fmt.Errorf("graph: truncated header: %w", err)
	}
	var hdr [3]uint64
	for i := range hdr {
		hdr[i] = binary.LittleEndian.Uint64(hb[8*i:])
	}
	n, m2, err := validateBinaryHeader(hdr)
	if err != nil {
		return nil, err
	}
	if sizeKnown {
		if want := binaryFileSize(n, m2); size != want {
			return nil, fmt.Errorf("graph: header claims n=%d m2=%d (%d bytes), input has %d", n, m2, want, size)
		}
	}
	offsets, err := readInt64s(br, n+1)
	if err != nil {
		return nil, err
	}
	adj, err := readNodes(br, m2)
	if err != nil {
		return nil, err
	}
	if err := validateCSR(offsets, adj); err != nil {
		return nil, err
	}
	return &Graph{offsets: offsets, adj: adj}, nil
}
