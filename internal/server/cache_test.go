package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybridcap/internal/castore"
)

func testEntry(report string) *Entry {
	// A syntactically valid scenario is not required at the Store layer;
	// the scenario field only has to hash to the address.
	scenarioJS := `{"name":"cache-test"}` + "\n"
	e := &Entry{
		Scenario: scenarioJS,
		Report:   report,
		Manifest: `{"schema":1}`,
	}
	e.ScenarioSHA256 = hexSum(scenarioJS)
	return e
}

func hexSum(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestStoreRoundTripIsByteStable(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("report line 1\nreport line 2\n")
	if err := st.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, evicted, err := st.Get(e.ScenarioSHA256)
	if err != nil || evicted {
		t.Fatalf("Get: evicted=%v err=%v", evicted, err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip changed the entry:\n%+v\nvs\n%+v", got, e)
	}
	hashes, err := st.Hashes()
	if err != nil || len(hashes) != 1 || hashes[0] != e.ScenarioSHA256 {
		t.Errorf("Hashes() = %v, %v", hashes, err)
	}
}

func TestStoreMissingEntryIsCacheMiss(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, evicted, err := st.Get(strings.Repeat("a", 64))
	if !errors.Is(err, castore.ErrMiss) || evicted {
		t.Errorf("Get(absent): evicted=%v err=%v, want castore.ErrMiss", evicted, err)
	}
}

// A truncated or garbled entry must be detected, evicted from disk, and
// reported corrupt so the server recomputes instead of serving poison.
func TestStoreCorruptEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("the truth\n")
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, e.ScenarioSHA256+entrySuffix)

	corruptions := map[string]func() error{
		"truncated": func() error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"payload tampered": func() error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			tampered := strings.Replace(string(data), "the truth", "a falsehood", 1)
			return os.WriteFile(path, []byte(tampered), 0o644)
		},
		"not json": func() error {
			return os.WriteFile(path, []byte("not json at all"), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		if err := st.Put(e); err != nil {
			t.Fatal(err)
		}
		if err := corrupt(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, evicted, err := st.Get(e.ScenarioSHA256)
		if !errors.Is(err, castore.ErrCorrupt) {
			t.Errorf("%s: err = %v, want corrupt", name, err)
		}
		if !evicted {
			t.Errorf("%s: corrupt entry not evicted", name)
		}
		if _, _, err := st.Get(e.ScenarioSHA256); !errors.Is(err, castore.ErrMiss) {
			t.Errorf("%s: second Get = %v, want castore.ErrMiss after eviction", name, err)
		}
	}
}

// An entry stored under the wrong address must not be served.
func TestStoreAddressMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("report\n")
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	wrong := strings.Repeat("b", 64)
	if err := os.Rename(filepath.Join(dir, e.ScenarioSHA256+entrySuffix),
		filepath.Join(dir, wrong+entrySuffix)); err != nil {
		t.Fatal(err)
	}
	if _, evicted, err := st.Get(wrong); !errors.Is(err, castore.ErrCorrupt) || !evicted {
		t.Errorf("Get(wrong address): evicted=%v err=%v, want corrupt+evicted", evicted, err)
	}
}

// Client-supplied ids must never turn into path traversal.
func TestStoreRejectsInvalidHashes(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "abc", "../../../etc/passwd", strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"} {
		if _, _, err := st.Get(id); err == nil || errors.Is(err, castore.ErrMiss) {
			t.Errorf("Get(%q) = %v, want invalid-hash error", id, err)
		}
	}
}

// Hashes lists only well-formed entry files, sorted, ignoring temp
// files and other junk in the directory.
func TestStoreHashesIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"notes.txt", ".abc.tmp-1", strings.Repeat("g", 64) + entrySuffix} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e := testEntry("r\n")
	if err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	hashes, err := st.Hashes()
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 1 || hashes[0] != e.ScenarioSHA256 {
		t.Errorf("Hashes() = %v, want exactly the stored entry", hashes)
	}
}
