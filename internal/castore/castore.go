// Package castore is the one content-addressed on-disk store behind the
// daemon's result cache and the sweep cell cache: one JSON entry file
// per 64-hex key, named key+suffix, so the directory listing IS the
// index. Reads decode strictly and validate the entry against its key;
// a present-but-invalid entry (truncated write that still renamed, bit
// rot, schema drift, mis-addressed file) is evicted on the spot so the
// caller recomputes instead of serving poison. Writes go through
// WriteFileAtomic (temp file + fsync + rename in the same directory),
// so a crash mid-write can never leave a half-visible entry.
//
// Concurrent readers and writers are safe: distinct keys live in
// distinct files, and the same key written twice renames complete
// files into place, the last rename winning.
package castore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ErrMiss reports that no (valid) entry exists for a key.
var ErrMiss = errors.New("castore: miss")

// ErrCorrupt tags an entry that exists on disk but failed decoding or
// validation; Get evicts it and the caller recomputes.
var ErrCorrupt = errors.New("castore: corrupt entry")

// Store is a directory of JSON entries of type E, each addressed by a
// 64-hex key and checked by validate on every read and write.
type Store[E any] struct {
	dir, suffix string
	validate    func(e *E, key string) error
}

// Open opens (creating if needed) the store directory. validate checks
// an entry against the key it is stored under; its errors need not
// wrap anything, Get reports them as ErrCorrupt.
func Open[E any](dir, suffix string, validate func(e *E, key string) error) (*Store[E], error) {
	if dir == "" {
		return nil, errors.New("castore: dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: dir: %w", err)
	}
	return &Store[E]{dir: dir, suffix: suffix, validate: validate}, nil
}

// Dir returns the store directory.
func (s *Store[E]) Dir() string { return s.dir }

func (s *Store[E]) path(key string) string {
	return filepath.Join(s.dir, key+s.suffix)
}

// ValidKey gates file names derived from keys, which may come from
// clients: exactly 64 lowercase hex characters, nothing path-like.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get loads and validates the entry for key. A missing entry returns
// ErrMiss. An entry that fails to decode or validate is evicted from
// disk and reported as ErrCorrupt; the returned bool says whether an
// eviction happened.
func (s *Store[E]) Get(key string) (*E, bool, error) {
	if !ValidKey(key) {
		return nil, false, fmt.Errorf("castore: invalid key %q", key)
	}
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, ErrMiss
	}
	if err != nil {
		return nil, false, fmt.Errorf("castore: read entry: %w", err)
	}
	e := new(E)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err = dec.Decode(e); err == nil {
		err = s.validate(e, key)
	}
	if err != nil {
		evicted := os.Remove(s.path(key)) == nil
		return nil, evicted, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return e, false, nil
}

// Put validates e against key and persists it atomically as indented
// JSON with a trailing newline. An entry Get would evict is never
// written.
func (s *Store[E]) Put(key string, e *E) error {
	if !ValidKey(key) {
		return fmt.Errorf("castore: invalid key %q", key)
	}
	if err := s.validate(e, key); err != nil {
		return fmt.Errorf("castore: invalid entry %s: %w", key, err)
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("castore: marshal entry: %w", err)
	}
	return WriteFileAtomic(s.path(key), append(data, '\n'))
}

// Keys lists the keys of the entries currently on disk, sorted: ReadDir
// returns names sorted, and equal-length keys sharing one suffix sort
// as their names do. Entries are not validated here — Get validates
// lazily — so a listing stays O(directory) however large the store is.
func (s *Store[E]) Keys() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("castore: list: %w", err)
	}
	var keys []string
	for _, de := range des {
		if key, ok := strings.CutSuffix(de.Name(), s.suffix); ok && ValidKey(key) {
			keys = append(keys, key)
		}
	}
	return keys, nil
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory: write, fsync, close, rename. Readers see the complete old
// or the complete new file, never a partial one, and a failed write
// leaves no temp file behind.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("castore: temp file: %w", err)
	}
	defer func() {
		// Best-effort cleanup: on the success path the file was renamed
		// away and both calls fail harmlessly.
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
	}()
	if _, err := tmp.Write(data); err != nil {
		return fmt.Errorf("castore: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("castore: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("castore: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("castore: commit %s: %w", path, err)
	}
	return nil
}
