package benchio

import (
	"fmt"
	"runtime"
	"time"

	"hybridcap/internal/experiments"
	"hybridcap/internal/obs"
)

// CollectConfig parameterizes one trajectory measurement.
type CollectConfig struct {
	// Name prefixes the record names in the trajectory file.
	Name string
	// Experiment is the registered experiment id the workload runs.
	Experiment string
	// Clock times the runs and stamps UpdatedAt. It is injected so this
	// package never reads the wall clock itself; nil freezes time at
	// obs.Epoch, which yields zero wall times and omits the rate and
	// speedup fields rather than emitting +Inf.
	Clock obs.Clock
}

// CollectSweep measures the workload once per requested worker count
// against a shared Workers=1 baseline: the serial run is timed first,
// then each worker count is timed, checked bit-identical against the
// baseline, and emitted as its own record named
// "<cfg.Name>/workers=<w>". Each timed run is additionally bracketed in
// runtime.MemStats reads, so the records carry allocation churn per
// grid cell — the axis profile-driven optimization moves. A worker
// count of 1 reuses the baseline measurement instead of re-running; a
// non-positive one is an error, since the caller resolves its own
// default.
func CollectSweep(cfg CollectConfig, workerCounts []int, run func(workers int) (*experiments.Result, error)) ([]Record, error) {
	for _, w := range workerCounts {
		if w <= 0 {
			return nil, fmt.Errorf("benchio: collect %s: workers %d <= 0", cfg.Name, w)
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.NewFrozenClock(obs.Epoch)
	}
	serialRes, serial, serialAllocs, serialBytes, err := timedRun(clock, 1, run)
	if err != nil {
		return nil, fmt.Errorf("benchio: collect %s serial: %w", cfg.Name, err)
	}
	cells := CountCells(serialRes)
	var recs []Record
	seen := map[int]bool{}
	for _, w := range workerCounts {
		if seen[w] {
			continue
		}
		seen[w] = true
		wall, allocs, bytes := serial, serialAllocs, serialBytes
		if w != 1 {
			res, d, a, bts, err := timedRun(clock, w, run)
			if err != nil {
				return nil, fmt.Errorf("benchio: collect %s workers=%d: %w", cfg.Name, w, err)
			}
			if err := SameResults(serialRes, res); err != nil {
				return nil, fmt.Errorf("benchio: collect %s workers=%d: %w", cfg.Name, w, err)
			}
			wall, allocs, bytes = d, a, bts
		}
		rec := Record{
			Name:          fmt.Sprintf("%s/workers=%d", cfg.Name, w),
			Experiment:    cfg.Experiment,
			Workers:       w,
			Cells:         cells,
			WallSeconds:   wall.Seconds(),
			SerialSeconds: serial.Seconds(),
			Fits:          map[string]float64{},
			UpdatedAt:     clock.Now().UTC().Format(time.RFC3339),
		}
		if wall > 0 {
			rec.CellsPerSec = float64(cells) / wall.Seconds()
			rec.Speedup = serial.Seconds() / wall.Seconds()
		}
		if cells > 0 {
			rec.AllocsPerCell = float64(allocs) / float64(cells)
			rec.BytesPerCell = float64(bytes) / float64(cells)
		}
		for name, fit := range serialRes.Fits {
			rec.Fits[name] = fit.Exponent
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// timedRun times one workload run and returns its MemStats allocation
// deltas. The deltas are process-wide, so concurrent unrelated
// allocation pollutes them; benchmarks run the workload alone.
func timedRun(clock obs.Clock, workers int, run func(workers int) (*experiments.Result, error)) (*experiments.Result, time.Duration, uint64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := clock.Now()
	res, err := run(workers)
	wall := clock.Now().Sub(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return res, wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// CountCells sums the evaluation attempts behind every series point:
// the number of (size, seed) grid cells the sweep engine scheduled.
func CountCells(res *experiments.Result) int {
	cells := 0
	for _, s := range res.Series {
		for _, a := range s.Attempts {
			cells += a
		}
	}
	return cells
}

// SameResults compares two experiment results exactly — series data,
// coverage counters and report rows — and describes the first drift.
// The parallel engine promises byte-identical output for every worker
// count, so any difference is a bug.
func SameResults(a, b *experiments.Result) error {
	if len(a.Series) != len(b.Series) {
		return fmt.Errorf("results drifted: %d vs %d series", len(a.Series), len(b.Series))
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("results drifted: %d vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			return fmt.Errorf("results drifted at row %d: %q vs %q", i, a.Rows[i], b.Rows[i])
		}
	}
	for i := range a.Series {
		sa, sb := a.Series[i], b.Series[i]
		if sa.Name != sb.Name || sa.Len() != sb.Len() {
			return fmt.Errorf("results drifted at series %d: %q (%d pts) vs %q (%d pts)",
				i, sa.Name, sa.Len(), sb.Name, sb.Len())
		}
		for j := 0; j < sa.Len(); j++ {
			if sa.X[j] != sb.X[j] || sa.Y[j] != sb.Y[j] ||
				sa.OK[j] != sb.OK[j] || sa.Attempts[j] != sb.Attempts[j] {
				return fmt.Errorf("results drifted at series %q point %d", sa.Name, j)
			}
		}
	}
	return nil
}
