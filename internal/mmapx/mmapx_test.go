//go:build unix

package mmapx

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// isMapped reports whether path is among this process's file mappings;
// ok is false where /proc/self/maps does not exist (non-Linux unixes).
func isMapped(path string) (mapped, ok bool) {
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return false, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasSuffix(line, " "+path) {
			return true, true
		}
	}
	return false, true
}

func TestMapReturnsFileBytesAndUnmapReleases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.bin")
	want := bytes.Repeat([]byte("motivo\x00\xff"), 1000) // spans two pages
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("mapped %d bytes differ from the file's %d", len(data), len(want))
	}
	if mapped, ok := isMapped(path); ok && !mapped {
		t.Fatal("mapping not listed in /proc/self/maps")
	}
	if err := Unmap(data); err != nil {
		t.Fatal(err)
	}
	if mapped, _ := isMapped(path); mapped {
		t.Fatal("Unmap left the mapping in place")
	}
}

func TestMapMissingFile(t *testing.T) {
	_, err := Map(filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: got %v, want an error wrapping fs.ErrNotExist", err)
	}
}

func TestMapEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := Map(path); err == nil {
		Unmap(data)
		t.Fatal("mapping a zero-byte file must fail")
	}
}
