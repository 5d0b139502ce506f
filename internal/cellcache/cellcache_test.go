package cellcache

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridcap/internal/castore"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st
}

// A stored cell must replay bit-identically, including values whose
// shortest decimal rendering exercises the float64 round trip.
func TestPutGetRoundTrip(t *testing.T) {
	st := testStore(t)
	scope := []byte("scope-a\n")
	vals := []float64{0, 1.0 / 3.0, 6.103515625e-05, math.Pi, 1e-300, -42.125}
	for i, v := range vals {
		if err := st.Put(scope, 128, uint64(i)+7, v); err != nil {
			t.Fatalf("Put(%g): %v", v, err)
		}
	}
	for i, v := range vals {
		e, evicted, err := st.Get(Key(scope, 128, uint64(i)+7))
		if err != nil || evicted {
			t.Fatalf("Get(%g): evicted=%v err=%v", v, evicted, err)
		}
		if math.Float64bits(e.Value) != math.Float64bits(v) {
			t.Errorf("value drifted: got %x want %x", math.Float64bits(e.Value), math.Float64bits(v))
		}
	}
	if n, err := st.Len(); err != nil || n != len(vals) {
		t.Errorf("Len = %d, %v; want %d", n, err, len(vals))
	}
}

// Distinct scopes, points and seeds must address distinct entries.
func TestKeySeparation(t *testing.T) {
	base := Key([]byte("s"), 1, 2)
	for name, k := range map[string]string{
		"scope": Key([]byte("t"), 1, 2),
		"point": Key([]byte("s"), 2, 2),
		"seed":  Key([]byte("s"), 1, 3),
	} {
		if k == base {
			t.Errorf("%s not part of the key", name)
		}
	}
	// The NUL separators must prevent field-boundary aliasing.
	if Key([]byte("s1"), 12, 3) == Key([]byte("s"), 112, 3) {
		t.Error("scope/point boundary aliases")
	}
}

// A miss is castore.ErrMiss, not an eviction and not a failure.
func TestGetMiss(t *testing.T) {
	st := testStore(t)
	_, evicted, err := st.Get(Key([]byte("nothing"), 1, 1))
	if !errors.Is(err, castore.ErrMiss) || evicted {
		t.Fatalf("want castore.ErrMiss without eviction, got evicted=%v err=%v", evicted, err)
	}
	if _, _, err := st.Get("../escape"); err == nil || !strings.Contains(err.Error(), "invalid key") {
		t.Fatalf("path-like key accepted: %v", err)
	}
}

// corrupt rewrites the single entry file in st's directory with data.
func corruptEntry(t *testing.T, st *Store, data []byte) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(st.Dir(), "*"+entrySuffix))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one entry file, got %v (%v)", names, err)
	}
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	return names[0]
}

// A corrupt entry — truncated write, bit rot, garbage — must be evicted
// on access so the cell recomputes instead of replaying poison.
func TestCorruptionEviction(t *testing.T) {
	for name, mangle := range map[string]func(data []byte) []byte{
		"truncated": func(data []byte) []byte { return data[:len(data)/2] },
		"garbage":   func([]byte) []byte { return []byte("not json") },
		"bit-rot": func(data []byte) []byte {
			return []byte(strings.Replace(string(data), "\"value\": ", "\"value\": 1", 1))
		},
		"wrong-seed": func(data []byte) []byte {
			return []byte(strings.Replace(string(data), "\"seed\": 9", "\"seed\": 8", 1))
		},
	} {
		t.Run(name, func(t *testing.T) {
			st := testStore(t)
			scope := []byte("scope")
			if err := st.Put(scope, 64, 9, 0.5); err != nil {
				t.Fatalf("Put: %v", err)
			}
			data, err := os.ReadFile(filepath.Join(st.Dir(), Key(scope, 64, 9)+entrySuffix))
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			path := corruptEntry(t, st, mangle(data))
			_, evicted, err := st.Get(Key(scope, 64, 9))
			if err == nil || errors.Is(err, castore.ErrMiss) {
				t.Fatalf("corrupt entry served: %v", err)
			}
			if !evicted {
				t.Fatal("corrupt entry not evicted")
			}
			if _, statErr := os.Stat(path); !errors.Is(statErr, os.ErrNotExist) {
				t.Fatalf("entry file still on disk: %v", statErr)
			}
			// After eviction the cell is a plain miss and can be refilled.
			if _, _, err := st.Get(Key(scope, 64, 9)); !errors.Is(err, castore.ErrMiss) {
				t.Fatalf("want castore.ErrMiss after eviction, got %v", err)
			}
			if err := st.Put(scope, 64, 9, 0.5); err != nil {
				t.Fatalf("refill: %v", err)
			}
			if e, _, err := st.Get(Key(scope, 64, 9)); err != nil || e.Value != 0.5 {
				t.Fatalf("refilled entry: %+v, %v", e, err)
			}
		})
	}
}

// An entry written under a different schema version must be evicted and
// recomputed, never replayed: that is how a cache-format change
// invalidates stale data.
func TestCacheVersioning(t *testing.T) {
	st := testStore(t)
	scope := []byte("scope")
	if err := st.Put(scope, 32, 5, 2.5); err != nil {
		t.Fatalf("Put: %v", err)
	}
	key := Key(scope, 32, 5)
	data, err := os.ReadFile(filepath.Join(st.Dir(), key+entrySuffix))
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	e.Schema = EntrySchema + 1
	stale, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	corruptEntry(t, st, stale)
	_, evicted, err := st.Get(key)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("stale-schema entry served: %v", err)
	}
	if !evicted {
		t.Fatal("stale-schema entry not evicted")
	}
}

// Non-finite values must be refused: they cannot round-trip JSON and a
// failing cell should recompute, not replay.
func TestPutNonFinite(t *testing.T) {
	st := testStore(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := st.Put([]byte("s"), 1, 1, v); err == nil {
			t.Errorf("Put(%v) accepted", v)
		}
	}
	if n, _ := st.Len(); n != 0 {
		t.Errorf("non-finite Put left %d entries", n)
	}
}

// The stats counters are process-global; deltas around a workload must
// reflect its hits, misses, puts and evictions.
func TestReadStatsDeltas(t *testing.T) {
	st := testStore(t)
	before := ReadStats()
	scope := []byte("stats")
	if _, _, err := st.Get(Key(scope, 1, 1)); !errors.Is(err, castore.ErrMiss) {
		t.Fatalf("want miss: %v", err)
	}
	if err := st.Put(scope, 1, 1, 1.5); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := st.Get(Key(scope, 1, 1)); err != nil {
		t.Fatalf("Get: %v", err)
	}
	after := ReadStats()
	if after.Misses-before.Misses != 1 || after.Puts-before.Puts != 1 || after.Hits-before.Hits != 1 {
		t.Errorf("deltas hits=%d misses=%d puts=%d, want 1/1/1",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts)
	}
}
