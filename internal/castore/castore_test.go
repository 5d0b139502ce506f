package castore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

const suffix = ".doc.json"

type doc struct {
	Key  string `json:"key"`
	Body string `json:"body"`
}

func validateDoc(d *doc, key string) error {
	if d.Key != key {
		return errors.New("key mismatch")
	}
	return nil
}

func openTest(t *testing.T) *Store[doc] {
	t.Helper()
	s, err := Open(t.TempDir(), suffix, validateDoc)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// tempFiles lists the WriteFileAtomic temp files left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			tmps = append(tmps, de.Name())
		}
	}
	return tmps
}

// Concurrent writers of one key must leave exactly one complete, valid
// entry and no temp files.
func TestConcurrentPutSameKey(t *testing.T) {
	s := openTest(t)
	key := strings.Repeat("c", 64)
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(key, &doc{Key: key, Body: strings.Repeat("x", 4096)}); err != nil {
				t.Errorf("Put: %v", err)
			}
		}()
	}
	wg.Wait()
	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys() = %v, %v; want [%s]", keys, err, key)
	}
	if d, evicted, err := s.Get(key); err != nil || evicted || len(d.Body) != 4096 {
		t.Fatalf("Get: evicted=%v err=%v", evicted, err)
	}
	if tmps := tempFiles(t, s.Dir()); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// A commit that fails at the rename must clean up its temp file.
func TestFailedCommitLeavesNoTempFile(t *testing.T) {
	s := openTest(t)
	key := strings.Repeat("d", 64)
	if err := os.Mkdir(filepath.Join(s.Dir(), key+suffix), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, &doc{Key: key}); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if tmps := tempFiles(t, s.Dir()); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// Put must reject the same path-like keys Get does, before touching
// the file system, and refuse entries that would fail validation.
func TestPutRejectsInvalidKeysAndEntries(t *testing.T) {
	s := openTest(t)
	for _, key := range []string{"", "../escape", strings.Repeat("A", 64), strings.Repeat("a", 63) + "/"} {
		if err := s.Put(key, &doc{Key: key}); err == nil || !strings.Contains(err.Error(), "invalid key") {
			t.Errorf("Put(%q) = %v, want invalid-key error", key, err)
		}
	}
	key := strings.Repeat("e", 64)
	if err := s.Put(key, &doc{Key: strings.Repeat("f", 64)}); err == nil {
		t.Error("Put stored an entry that fails validation")
	}
	if des, _ := os.ReadDir(s.Dir()); len(des) != 0 {
		t.Errorf("rejected Puts left %d files", len(des))
	}
}

// Keys lists only well-formed entry names, sorted: junk, temp files,
// other suffixes, non-hex and wrong-length names are skipped.
func TestKeysSkipsJunk(t *testing.T) {
	s := openTest(t)
	for _, junk := range []string{
		"notes.txt",
		"." + strings.Repeat("a", 64) + suffix + ".tmp-123",
		strings.Repeat("g", 64) + suffix,
		strings.Repeat("A", 64) + suffix,
		strings.Repeat("a", 63) + suffix,
		strings.Repeat("a", 64) + ".other.json",
	} {
		if err := os.WriteFile(filepath.Join(s.Dir(), junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{strings.Repeat("1", 64), strings.Repeat("b", 64)}
	for _, key := range []string{want[1], want[0]} {
		if err := s.Put(key, &doc{Key: key}); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Errorf("Keys() = %v, %v; want %v", keys, err, want)
	}
}
