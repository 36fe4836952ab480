package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("old contents"), 0o666); err != nil {
		t.Fatal(err)
	}
	reader, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
		t.Fatalf("after Write: %q, %v", got, err)
	}
	// A reader that opened the old file keeps reading the old file.
	if got, err := io.ReadAll(reader); err != nil || string(got) != "old contents" {
		t.Fatalf("open handle reads %q, %v after the replace", got, err)
	}

	// The new file gets the mode os.Create gives.
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode() != rst.Mode() {
		t.Errorf("mode %v, os.Create gives %v", st.Mode(), rst.Mode())
	}
}

func TestWriteErrorKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact")
	if err := os.WriteFile(path, []byte("kept"), 0o666); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "kept" {
		t.Fatalf("target holds %q after a failed write", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the directory after a failed write: the temporary file was left behind", len(entries))
	}
	if err := Write(filepath.Join(dir, "missing", "artifact"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory must fail")
	}
}
