package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"hybridcap/internal/castore"
)

// EntrySchema is the current cache-entry file schema version. Schema 2
// added the optional cells artifact of sharded runs; schema-1 entries
// on disk fail validation and are recomputed.
const EntrySchema = 2

// entrySuffix is the filename suffix of one cache entry; the prefix is
// the scenario's canonical sha256, so the directory listing IS the
// index.
const entrySuffix = ".run.json"

// Entry is one cached run result: the canonical scenario that produced
// it plus the exact bytes the run emitted. Replaying an entry serves
// the stored bytes untouched, so a cache hit is byte-identical to the
// original computation.
type Entry struct {
	// Schema is the entry file schema version.
	Schema int `json:"schema"`
	// ScenarioSHA256 is the content address: the hex SHA-256 of the
	// canonical scenario JSON stored in Scenario.
	ScenarioSHA256 string `json:"scenario_sha256"`
	// Scenario is the canonical scenario JSON.
	Scenario string `json:"scenario"`
	// Report is the rendered report text (Result.Text()).
	Report string `json:"report"`
	// Manifest is the run manifest JSON.
	Manifest string `json:"manifest"`
	// Cells is the per-cell outcomes JSON of a sharded run (empty for
	// unsharded runs, which write no cells artifact).
	Cells string `json:"cells,omitempty"`
	// PayloadSHA256 is the hex SHA-256 over Scenario, Report, Manifest
	// and Cells (NUL-separated), detecting truncated or bit-rotted
	// entries independently of the JSON framing.
	PayloadSHA256 string `json:"payload_sha256"`
}

// payloadSum checksums the entry's payload fields.
func (e *Entry) payloadSum() string {
	h := sha256.New()
	for _, s := range []string{e.Scenario, e.Report, e.Manifest, e.Cells} {
		// hash.Hash writers are documented never to fail.
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// validate checks the entry's framing and checksum against the hash it
// was loaded under.
func (e *Entry) validate(hash string) error {
	if e.Schema != EntrySchema {
		return fmt.Errorf("schema %d, want %d", e.Schema, EntrySchema)
	}
	if e.ScenarioSHA256 != hash {
		return fmt.Errorf("entry addressed %s claims scenario %s", hash, e.ScenarioSHA256)
	}
	sum := sha256.Sum256([]byte(e.Scenario))
	if hex.EncodeToString(sum[:]) != hash {
		return fmt.Errorf("stored scenario does not hash to %s", hash)
	}
	if e.payloadSum() != e.PayloadSHA256 {
		return fmt.Errorf("payload checksum mismatch")
	}
	return nil
}

// Store is the content-addressed result cache: one castore entry file
// per scenario hash. Reloading the directory on restart is the
// daemon's checkpoint/resume.
type Store struct {
	cas *castore.Store[Entry]
}

// NewStore opens (creating if needed) the cache directory.
func NewStore(dir string) (*Store, error) {
	cas, err := castore.Open(dir, entrySuffix, (*Entry).validate)
	if err != nil {
		return nil, fmt.Errorf("server: cache: %w", err)
	}
	return &Store{cas: cas}, nil
}

// Dir returns the cache directory.
func (st *Store) Dir() string { return st.cas.Dir() }

// Get loads and validates the entry for hash: castore.ErrMiss when
// absent, castore.ErrCorrupt (with the entry evicted, reported by the
// bool) when it fails validation, so the caller recomputes rather than
// serving poison. Invalid hashes are rejected before any path is built.
func (st *Store) Get(hash string) (*Entry, bool, error) { return st.cas.Get(hash) }

// Put stamps the entry's schema and payload checksum and persists it
// atomically under its scenario hash.
func (st *Store) Put(e *Entry) error {
	e.Schema = EntrySchema
	e.PayloadSHA256 = e.payloadSum()
	return st.cas.Put(e.ScenarioSHA256, e)
}

// Hashes lists the hashes of the entries currently on disk, sorted,
// without validating them, so startup stays O(directory listing).
func (st *Store) Hashes() ([]string, error) { return st.cas.Keys() }
