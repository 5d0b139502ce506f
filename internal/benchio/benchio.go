// Package benchio serializes the benchmark trajectory: headline
// performance numbers (wall time, cells/sec, parallel speedup, fitted
// scaling exponents) written to a small JSON file, BENCH_sweep.json by
// convention, so successive changes have a recorded perf baseline to
// beat. Records are upserted by name: re-running a benchmark replaces
// its record and leaves the others untouched.
package benchio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hybridcap/internal/castore"
)

// DefaultPath is the conventional location of the benchmark trajectory,
// relative to the repository root.
const DefaultPath = "BENCH_sweep.json"

// Schema is the current file schema version.
const Schema = 1

// Record is one benchmark's headline numbers.
type Record struct {
	// Name identifies the benchmark (e.g. "BenchmarkTable1").
	Name string `json:"name"`
	// Experiment is the registered experiment id the benchmark ran.
	Experiment string `json:"experiment,omitempty"`
	// Workers is the pool size of the parallel run.
	Workers int `json:"workers"`
	// Cells is the number of (size, seed) grid cells evaluated.
	Cells int `json:"cells,omitempty"`
	// WallSeconds is the parallel run's wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// CellsPerSec is Cells / WallSeconds.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// SerialSeconds is the wall time of the same workload at Workers=1.
	SerialSeconds float64 `json:"serial_seconds,omitempty"`
	// Speedup is SerialSeconds / WallSeconds.
	Speedup float64 `json:"speedup,omitempty"`
	// Fits maps series names to fitted lambda scaling exponents.
	Fits map[string]float64 `json:"lambda_fits,omitempty"`
	// CellCacheHits and CellCacheMisses are the persistent cell-cache
	// counter deltas over the run (warm-cache trajectory records).
	CellCacheHits   uint64 `json:"cell_cache_hits,omitempty"`
	CellCacheMisses uint64 `json:"cell_cache_misses,omitempty"`
	// AllocsPerCell and BytesPerCell are the heap allocation count and
	// bytes per evaluated grid cell over the parallel run (runtime
	// MemStats deltas), the trajectory's allocation-churn axis.
	AllocsPerCell float64 `json:"allocs_per_cell,omitempty"`
	BytesPerCell  float64 `json:"bytes_per_cell,omitempty"`
	// RetainedBytes is the heap still live after the run (post-GC
	// HeapAlloc delta with the run's outputs referenced) — the
	// memory-footprint axis: a materialized sweep retains O(cells),
	// a streaming one O(points).
	RetainedBytes uint64 `json:"retained_bytes,omitempty"`
	// UpdatedAt is an RFC 3339 timestamp of the last upsert.
	UpdatedAt string `json:"updated_at,omitempty"`
}

// File is the on-disk trajectory document.
type File struct {
	Schema  int      `json:"schema"`
	Records []Record `json:"records"`
}

// Read loads a trajectory file. A missing file is not an error: it
// returns an empty document ready to receive records.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Schema: Schema}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("benchio: %w", err)
	}
	f := &File{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("benchio: parse %s: %w", path, err)
	}
	if f.Schema == 0 {
		f.Schema = Schema
	}
	return f, nil
}

// Write stores the document, creating parent directories as needed. The
// write is atomic (temp file + fsync + rename) so a crashed run never
// leaves a truncated trajectory behind.
func Write(path string, f *File) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchio: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("benchio: %w", err)
	}
	return castore.WriteFileAtomic(path, append(data, '\n'))
}

// Upsert inserts or replaces the record with rec's name and writes the
// file back. Record order is preserved; new names append.
func Upsert(path string, rec Record) error {
	f, err := Read(path)
	if err != nil {
		return err
	}
	replaced := false
	for i := range f.Records {
		if f.Records[i].Name == rec.Name {
			f.Records[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		f.Records = append(f.Records, rec)
	}
	return Write(path, f)
}

// Lookup finds a record by name.
func (f *File) Lookup(name string) (Record, bool) {
	for _, r := range f.Records {
		if r.Name == name {
			return r, true
		}
	}
	return Record{}, false
}
