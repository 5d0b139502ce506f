package benchio

import (
	"path/filepath"
	"testing"
	"time"

	"hybridcap/internal/experiments"
	"hybridcap/internal/measure"
	"hybridcap/internal/obs"
)

func fakeResult(lambda float64) *experiments.Result {
	s := &measure.Series{Name: "sweep"}
	s.AddCounted(512, lambda, 3, 4)
	s.AddCounted(1024, lambda/2, 4, 4)
	return &experiments.Result{
		ID:     "T1",
		Series: []*measure.Series{s},
		Rows:   []string{"row"},
		Fits:   map[string]*measure.Fit{"sweep": {Exponent: -0.5}},
	}
}

// CollectSweep times the serial baseline and each further worker count
// with the injected clock, reuses the baseline for workers=1, verifies
// identity and assembles one record per count.
func TestCollectSteppedClock(t *testing.T) {
	clock := obs.NewStepClock(obs.Epoch, time.Second)
	var workerArgs []int
	recs, err := CollectSweep(CollectConfig{Name: "bench-x", Experiment: "T1", Clock: clock},
		[]int{1, 8, 8}, func(workers int) (*experiments.Result, error) {
			workerArgs = append(workerArgs, workers)
			return fakeResult(2), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(workerArgs) != 2 || workerArgs[0] != 1 || workerArgs[1] != 8 {
		t.Errorf("worker sequence %v, want [1 8]", workerArgs)
	}
	if len(recs) != 2 || recs[0].Name != "bench-x/workers=1" || recs[1].Name != "bench-x/workers=8" {
		t.Fatalf("records %+v, want bench-x/workers=1 and =8", recs)
	}
	for _, rec := range recs {
		if rec.Experiment != "T1" || rec.Cells != 8 {
			t.Errorf("record header %+v", rec)
		}
		// Each timed run saw exactly one stepped second.
		if rec.SerialSeconds != 1 || rec.WallSeconds != 1 || rec.Speedup != 1 || rec.CellsPerSec != 8 {
			t.Errorf("timing %+v", rec)
		}
		if rec.Fits["sweep"] != -0.5 {
			t.Errorf("fits %v", rec.Fits)
		}
		if rec.UpdatedAt == "" {
			t.Error("UpdatedAt not stamped")
		}
	}
	if recs[1].Workers != 8 {
		t.Errorf("workers %d, want 8", recs[1].Workers)
	}
}

// A frozen clock yields zero wall times; the derived rates must stay
// zero (JSON cannot encode the +Inf a naive division produces) and the
// records must still serialize.
func TestCollectFrozenClockSerializes(t *testing.T) {
	recs, err := CollectSweep(CollectConfig{Name: "frozen"}, []int{1, 2},
		func(workers int) (*experiments.Result, error) { return fakeResult(1), nil })
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, rec := range recs {
		if rec.CellsPerSec != 0 || rec.Speedup != 0 {
			t.Errorf("frozen-clock rates %+v", rec)
		}
		if err := Upsert(path, rec); err != nil {
			t.Fatalf("record does not serialize: %v", err)
		}
	}
}

// Drift of any worker count from the serial baseline must fail the
// collection.
func TestCollectDetectsDrift(t *testing.T) {
	calls := 0
	_, err := CollectSweep(CollectConfig{Name: "drift"}, []int{1, 2},
		func(workers int) (*experiments.Result, error) {
			calls++
			return fakeResult(float64(calls)), nil
		})
	if err == nil {
		t.Fatal("drifting results accepted")
	}
}

// Workers must be resolved by the caller; a missing pool size is an
// error, not a silently dropped record, and fails before any run.
func TestCollectRejectsZeroWorkers(t *testing.T) {
	_, err := CollectSweep(CollectConfig{Name: "w0"}, []int{1, 0},
		func(workers int) (*experiments.Result, error) {
			t.Fatal("workload ran despite an invalid worker count")
			return nil, nil
		})
	if err == nil {
		t.Fatal("workers=0 accepted")
	}
}
