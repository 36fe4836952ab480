package table

import (
	"bufio"
	"fmt"
	"os"
)

// This file implements the spill sink of the greedy flushing strategy
// (Section 3.1). While a size-h pass runs, each completed record is
// encoded once into the packed wire format (packed.go); a build that
// writes to disk appends it to a DiskStore and releases the memory. The
// build keeps one DiskStore per shard of the vertex range, written in
// node order, and concatenates them into the level arena that
// Table.SetLevel installs. The bytes written to disk are exactly the
// bytes that live in RAM: one wire format for spilling, in-memory
// storage, and persistence (serialize.go).

// DiskStore spills packed records, back to back, to a temp file. The
// caller keeps each record's offset (Size before its Flush).
type DiskStore struct {
	f   *os.File
	w   *bufio.Writer
	pos int64
}

// NewDiskStoreBuffered creates a spill file inside dir (or the default
// temp dir if dir is empty), written through a bufSize-byte buffer. The
// build keeps one live sink per open shard, so it uses small buffers to
// keep sink memory out of its budget.
func NewDiskStoreBuffered(dir string, bufSize int) (*DiskStore, error) {
	f, err := os.CreateTemp(dir, "motivo-table-*.spill")
	if err != nil {
		return nil, err
	}
	return &DiskStore{f: f, w: bufio.NewWriterSize(f, bufSize)}, nil
}

// Flush appends one packed record (as produced by AppendRecord) to the
// spill file so the caller can release the in-memory copy.
func (d *DiskStore) Flush(rec []byte) error {
	if _, err := d.w.Write(rec); err != nil {
		return err
	}
	d.pos += int64(len(rec))
	return nil
}

// CopyInto is the spill merge reader: it reads the whole spill file into
// dst, which must be exactly Size() bytes, with one positioned read. The
// build's merge points dst at a sub-range of the final level arena, so
// shard spills concatenate into node order without a second whole-level
// copy or a read buffer ever existing.
func (d *DiskStore) CopyInto(dst []byte) error {
	if int64(len(dst)) != d.pos {
		return fmt.Errorf("table: spill merge into %d bytes, file has %d", len(dst), d.pos)
	}
	if err := d.w.Flush(); err != nil {
		return err
	}
	if _, err := d.f.ReadAt(dst, 0); err != nil {
		return fmt.Errorf("table: spill reload: %w", err)
	}
	return nil
}

// Size returns the current spill file size in bytes.
func (d *DiskStore) Size() int64 { return d.pos }

// Close removes the spill file.
func (d *DiskStore) Close() error {
	name := d.f.Name()
	if err := d.f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Remove(name)
}
