// Package chaosfs provides the on-disk surgery primitives the store
// corruption and replication tests share: deterministic segment damage with
// no dependency on any other javaflow package, so even internal store tests
// can import it without a cycle.
package chaosfs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Segments lists the store's segment files ("seg-*.jfs") in a directory,
// sorted by name (which is sequence order, since names are zero-padded).
func Segments(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jfs"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// LastSegment returns the highest-sequence segment file.
func LastSegment(dir string) (string, error) {
	paths, err := Segments(dir)
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("chaosfs: no segment files in %s", dir)
	}
	return paths[len(paths)-1], nil
}

// TruncateTail cuts the final n bytes off a file — the shape of a crash
// mid-write or a torn replication transfer.
func TruncateTail(path string, n int) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if int64(n) > info.Size() {
		return fmt.Errorf("chaosfs: truncating %d bytes from %d-byte %s", n, info.Size(), path)
	}
	return os.Truncate(path, info.Size()-int64(n))
}

// FlipByte XORs mask into the byte at offset; a negative offset counts back
// from the end of the file (-1 is the last byte — a record's CRC trailer in
// the store format). This is the shape of silent media corruption.
func FlipByte(path string, offset int, mask byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += len(data)
	}
	if offset < 0 || offset >= len(data) {
		return fmt.Errorf("chaosfs: offset %d outside %d-byte %s", offset, len(data), path)
	}
	data[offset] ^= mask
	return os.WriteFile(path, data, 0o644)
}
