// Package atomicfile replaces files whole: a new version is written to a
// temporary file in the target's directory, synced, closed and renamed
// over the target. A reader that has the old file open or mapped keeps
// the old inode and its bytes, and a crash leaves either the old file or
// the complete new one — never a truncated mix, as writing through
// os.Create in place would.
package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
)

// Write creates or replaces the file at path with what write writes.
// The new file gets the mode os.Create would give it (0666 before the
// umask). On any error the target is left as it was and the temporary
// file is removed.
func Write(path string, write func(io.Writer) error) (err error) {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// createTemp opens a new file next to path under a random suffix.
func createTemp(path string) (*os.File, error) {
	for range 100 {
		f, err := os.OpenFile(fmt.Sprintf("%s.%08x.tmp", path, rand.Uint32()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
	return nil, fmt.Errorf("atomicfile: no free temporary name next to %s", path)
}
