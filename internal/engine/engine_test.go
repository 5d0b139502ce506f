package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fixedClock is a frozen test clock: constant instants make the timed
// durations zero, so delivery streams compare exactly across workers.
type fixedClock struct{}

func (fixedClock) Now() time.Time { return time.Unix(0, 0) }

// observerFunc adapts a function to CellObserver.
type observerFunc func(point, seed int, d time.Duration, err error)

func (f observerFunc) ObserveCell(point, seed int, d time.Duration, err error) {
	f(point, seed, d, err)
}

// Map must dispatch every index exactly once for any worker count,
// including more workers than indices and the inline serial path.
func TestForEachIndexDispatchesEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 2, 7, 64} {
		counts := make([]int32, n)
		if _, err := Map(context.Background(), workers, n, func(i int) (int, error) {
			atomic.AddInt32(&counts[i], 1)
			return i, nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: index %d dispatched %d times", workers, i, c)
			}
		}
	}
	// n <= 0 must be a no-op.
	if _, err := Map(context.Background(), 4, 0, func(i int) (int, error) {
		t.Errorf("dispatched index %d of empty range", i)
		return 0, nil
	}); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

// Map must return the values in index order, identical for every worker
// count, and a failing grid reports the same first failure for every
// worker count.
func TestMapDeterministicAcrossWorkers(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(context.Background(), workers, n, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if got[i] != i*i {
				t.Errorf("workers=%d: value %d = %d, want %d", workers, i, got[i], i*i)
			}
		}

		_, err = Map(context.Background(), workers, n, func(i int) (int, error) {
			if i%5 == 3 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: error %v, want cell 3's", workers, err)
		}
	}
}

// A panicking cell becomes that index's error instead of tearing down
// the pool.
func TestMapGuardsPanics(t *testing.T) {
	var ran atomic.Int32
	_, err := Map(context.Background(), 4, 6, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "evaluation panicked: boom") {
		t.Fatalf("error %v, want the recovered panic", err)
	}
	if ran.Load() != 6 {
		t.Errorf("%d cells ran, want all 6: a panic must not stop the pool", ran.Load())
	}
}

// Map returns the first failure in index order: an earlier index's
// error beats a later one's, a real cell error beats the later cells
// that cancellation kept from running, and a context that ends inside
// the last cell, after every cell succeeded, still fails the run.
func TestMapErrorPrecedence(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, 50, func(i int) (int, error) {
			if i == 17 || i == 33 {
				return 0, fmt.Errorf("index %d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil || err.Error() != "index 17: boom" {
			t.Errorf("workers=%d: error %v, want index 17's", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		_, err = Map(ctx, workers, 50, func(i int) (int, error) {
			if i == 2 {
				cancel()
				return 0, boom
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: error %v, want the cell error ahead of the canceled cells", workers, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Map(ctx, 1, 5, func(i int) (int, error) {
		if i == 4 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) || Phase(err) != "" {
		t.Errorf("error %v, want the bare ctx error", err)
	}
}

// Map returns every value when all cells succeed and only the first
// failure, not a later one, when some fail.
func TestFirstErrAndValues(t *testing.T) {
	vals, err := Map(context.Background(), 2, 2, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Errorf("unexpected error %v", err)
	}
	if !reflect.DeepEqual(vals, []int{1, 2}) {
		t.Errorf("values %v", vals)
	}
	vals, err = Map(context.Background(), 2, 3, func(i int) (int, error) {
		switch i {
		case 1:
			return 0, errors.New("x")
		case 2:
			return 0, errors.New("y")
		}
		return 1, nil
	})
	if err == nil || err.Error() != "x" {
		t.Errorf("first error %v", err)
	}
	if vals != nil {
		t.Errorf("failed run returned values %v", vals)
	}
}

// Stream must deliver values at their own [point][seed] coordinates and
// observe every cell, failing ones included, in grid order regardless
// of worker count.
func TestRunGridOrderAndHooks(t *testing.T) {
	g := Grid{Points: 3, Seeds: 2, Workers: 8}
	var observed []string
	g.Obs = observerFunc(func(point, seed int, _ time.Duration, err error) {
		observed = append(observed, fmt.Sprintf("%d/%d:%v", point, seed, err != nil))
	})
	err := Stream(context.Background(), g, func(point, seed int) (int, error) {
		if point == 1 && seed == 1 {
			return 0, errors.New("dead cell")
		}
		return 10*point + seed, nil
	}, func(point, seed int, out Outcome[int]) {
		if point == 1 && seed == 1 {
			if out.Err == nil {
				t.Error("dead cell has no error")
			}
			return
		}
		if out.Value != 10*point+seed {
			t.Errorf("cell %d/%d value %d", point, seed, out.Value)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0/0:false", "0/1:false", "1/0:false", "1/1:true", "2/0:false", "2/1:false"}
	if !reflect.DeepEqual(observed, want) {
		t.Errorf("observation order %v, want %v", observed, want)
	}
}

// A run must observe and deliver with identical content and order for
// every worker count — including panicking and phase-tagged failing
// cells — because metrics registries and span recorders consume the
// observation stream. Each cell is observed just before it is
// delivered, in grid order.
func TestRunObserverParityAcrossWorkers(t *testing.T) {
	const points, seeds = 4, 3
	run := func(workers int) []string {
		var events []string
		g := Grid{Points: points, Seeds: seeds, Workers: workers, Clock: fixedClock{}}
		g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
			events = append(events, fmt.Sprintf("obs %d/%d phase=%q d=%d", point, seed, Phase(err), d))
		})
		err := Stream(context.Background(), g, func(point, seed int) (int, error) {
			switch {
			case point == 1 && seed == 0:
				panic("boom")
			case point == 0 && seed == 1:
				return 0, ConstructErr(errors.New("no instance"))
			case point == 2 && seed == 2:
				return 0, EvaluateErr(errors.New("bad eval"))
			}
			return point*10 + seed, nil
		}, func(point, seed int, out Outcome[int]) {
			events = append(events, fmt.Sprintf("deliver %d/%d failed=%v", point, seed, out.Err != nil))
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return events
	}

	ref := run(1)
	if len(ref) != 2*points*seeds {
		t.Fatalf("serial run produced %d events, want %d", len(ref), 2*points*seeds)
	}
	for i := 0; i < points*seeds; i++ {
		p, s := i/seeds, i%seeds
		if want := fmt.Sprintf("obs %d/%d ", p, s); !strings.HasPrefix(ref[2*i], want) {
			t.Errorf("event %d = %q, want prefix %q", 2*i, ref[2*i], want)
		}
		if want := fmt.Sprintf("deliver %d/%d ", p, s); !strings.HasPrefix(ref[2*i+1], want) {
			t.Errorf("event %d = %q, want prefix %q", 2*i+1, ref[2*i+1], want)
		}
	}
	if want := `obs 0/1 phase="construct instance" d=0`; ref[2*1] != want {
		t.Errorf("construct-failed observation %q, want %q", ref[2*1], want)
	}
	if want := `obs 1/0 phase="" d=0`; ref[2*3] != want {
		t.Errorf("panicked-cell observation %q, want %q", ref[2*3], want)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: observation stream differs from serial:\n%v\nvs\n%v", workers, got, ref)
		}
	}
}

// Without a Clock the engine still observes cells, reporting zero
// durations rather than consulting any ambient clock.
func TestRunObserverWithoutClock(t *testing.T) {
	var n int
	g := Grid{Points: 2, Seeds: 2, Workers: 4}
	g.Obs = observerFunc(func(point, seed int, d time.Duration, err error) {
		n++
		if d != 0 {
			t.Errorf("cell %d/%d reported duration %v without a clock", point, seed, d)
		}
	})
	if err := Stream(context.Background(), g, func(point, seed int) (int, error) { return 0, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("observed %d cells, want 4", n)
	}
}

// Phase classifies tagged failures and leaves everything else blank.
func TestPhaseClassifier(t *testing.T) {
	if got := Phase(nil); got != "" {
		t.Errorf("Phase(nil) = %q", got)
	}
	if got := Phase(ConstructErr(errors.New("x"))); got != PhaseConstruct {
		t.Errorf("construct tag classified as %q", got)
	}
	if got := Phase(EvaluateErr(errors.New("x"))); got != PhaseEvaluate {
		t.Errorf("evaluate tag classified as %q", got)
	}
	if got := Phase(CanceledErr(context.Canceled)); got != PhaseCanceled {
		t.Errorf("canceled tag classified as %q", got)
	}
	if got := Phase(errors.New("untagged")); got != "" {
		t.Errorf("untagged error classified as %q", got)
	}
}

// An empty grid runs nothing and succeeds, on both entry points.
func TestRunEmptyGrid(t *testing.T) {
	err := Stream(context.Background(), Grid{Points: 0, Seeds: 3}, func(point, seed int) (int, error) {
		t.Error("cell invoked on empty grid")
		return 0, nil
	}, func(point, seed int, out Outcome[int]) {
		t.Error("cell delivered on empty grid")
	})
	if err != nil {
		t.Errorf("empty grid returned %v", err)
	}
	vals, err := Map(context.Background(), 4, 0, func(i int) (int, error) {
		t.Error("index invoked on empty range")
		return 0, nil
	})
	if err != nil || len(vals) != 0 {
		t.Errorf("empty range returned %v, %v", vals, err)
	}
}

// MeanAgg tolerates failed seeds, reports survivor and delivery
// coverage, and surfaces the first failure by seed order.
func TestMean(t *testing.T) {
	agg := NewMeanAgg(2)
	agg.Cell(0, 0, Outcome[float64]{Value: 2})
	agg.Cell(0, 1, Outcome[float64]{Err: errors.New("seed 1 broke")})
	agg.Cell(0, 2, Outcome[float64]{Value: 4})
	mean, ok, firstErr, firstSeed := agg.Point(0)
	if mean != 3 || ok != 2 || agg.Covered(0) != 3 {
		t.Errorf("mean=%v ok=%d covered=%d", mean, ok, agg.Covered(0))
	}
	if firstErr == nil || firstSeed != 1 {
		t.Errorf("first failure %v at seed %d", firstErr, firstSeed)
	}

	agg.Cell(1, 0, Outcome[float64]{Err: errors.New("a")})
	agg.Cell(1, 1, Outcome[float64]{Err: errors.New("b")})
	mean, ok, firstErr, firstSeed = agg.Point(1)
	if mean != 0 || ok != 0 || firstErr == nil || firstErr.Error() != "a" || firstSeed != 0 {
		t.Errorf("dead point: mean=%v ok=%d err=%v seed=%d", mean, ok, firstErr, firstSeed)
	}
}

// Phase tags must survive wrapping so degraded sweeps stay diagnosable,
// and the tag helpers must preserve the wrapped error for errors.Is.
func TestPhaseTags(t *testing.T) {
	base := errors.New("root cause")
	c := ConstructErr(base)
	e := EvaluateErr(base)
	if !errors.Is(c, base) || !errors.Is(e, base) {
		t.Error("phase wrap lost the cause")
	}
	if got := c.Error(); got != PhaseConstruct+": root cause" {
		t.Errorf("construct tag: %q", got)
	}
	if got := e.Error(); got != PhaseEvaluate+": root cause" {
		t.Errorf("evaluate tag: %q", got)
	}
}

// A context canceled before the run starts must dispatch nothing: Map
// fails with a PhaseCanceled-tagged ctx error and fn is never invoked,
// for both the serial and the pooled path.
func TestMapCanceledBeforeStart(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		vals, err := Map(ctx, workers, 10, func(i int) (int, error) {
			t.Errorf("workers=%d: cell %d dispatched after cancel", workers, i)
			return 0, nil
		})
		if vals != nil {
			t.Errorf("workers=%d: canceled run returned values %v", workers, vals)
		}
		if Phase(err) != PhaseCanceled {
			t.Errorf("workers=%d: error %v, want canceled tag", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: lost the ctx cause: %v", workers, err)
		}
	}
}

// Canceling mid-run stops scheduling promptly: the cells in flight at
// cancellation finish, no cell starts after the cancel, and Map fails
// with the PhaseCanceled error of the first undispatched index. The
// gate makes the cut deterministic: exactly `workers` cells are in
// flight when the context ends.
func TestMapCancellationStopsScheduling(t *testing.T) {
	const workers, n = 3, 40
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, n)
	release := make(chan struct{})
	var startedTotal atomic.Int32
	errCh := make(chan error, 1)
	go func() {
		_, err := Map(ctx, workers, n, func(i int) (int, error) {
			startedTotal.Add(1)
			started <- struct{}{}
			<-release
			return i * i, nil
		})
		errCh <- err
	}()
	for i := 0; i < workers; i++ {
		<-started
	}
	cancel()
	close(release)
	err := <-errCh
	if Phase(err) != PhaseCanceled || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want a canceled tag wrapping context.Canceled", err)
	}
	if got := startedTotal.Load(); got != workers {
		t.Errorf("%d cells started, want %d: a cell was dispatched after cancel", got, workers)
	}
}

// The serial path honors cancellation between iterations.
func TestForEachIndexSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	_, err := Map(ctx, 1, 10, func(i int) (int, error) {
		ran++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if Phase(err) != PhaseCanceled || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a canceled tag wrapping context.Canceled", err)
	}
	if ran != 3 {
		t.Errorf("ran %d iterations, want 3: serial path must stop at the next index", ran)
	}
}

// A canceled run keeps the grid-order merge: completed cells arrive at
// their own [point][seed] coordinates with correct values, canceled
// cells are tagged, and every cell is still observed in grid order.
func TestRunCanceledKeepsGridOrder(t *testing.T) {
	const points, seeds = 5, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed int
	g := Grid{Points: points, Seeds: seeds, Workers: 2}
	g.Obs = observerFunc(func(point, seed int, _ time.Duration, _ error) {
		if point*seeds+seed != observed {
			t.Errorf("observation %d carried cell %d/%d", observed, point, seed)
		}
		observed++
	})
	var done, canceled int
	err := Stream(ctx, g, func(point, seed int) (int, error) {
		if point == 0 && seed == 1 {
			cancel()
		}
		return 100*point + seed, nil
	}, func(point, seed int, out Outcome[int]) {
		if out.Err == nil {
			done++
			if out.Value != 100*point+seed {
				t.Errorf("cell %d/%d value %d, want %d", point, seed, out.Value, 100*point+seed)
			}
			return
		}
		if Phase(out.Err) != PhaseCanceled {
			t.Errorf("cell %d/%d unexpected error %v", point, seed, out.Err)
		}
		canceled++
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Stream returned %v, want context.Canceled", err)
	}
	if done == 0 || canceled == 0 {
		t.Errorf("done=%d canceled=%d: cancel mid-run should split the grid", done, canceled)
	}
	if observed != points*seeds {
		t.Errorf("%d cells observed, want %d: canceled cells must still be observed", observed, points*seeds)
	}
}

// Both entry points drain their pool before returning even when
// canceled: repeated canceled runs leave no goroutines behind. Stream's
// bounded window parks workers waiting for room, so its cancellation
// must wake them too.
func TestCanceledNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 25; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Map(ctx, 8, 64, func(i int) (int, error) {
			if i == 0 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Map error %v, want context.Canceled", round, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		err = Stream(ctx, Grid{Points: 64, Seeds: 2, Workers: 8}, func(point, seed int) (int, error) {
			if point == 0 && seed == 0 {
				cancel()
			}
			return point, nil
		}, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Stream error %v, want context.Canceled", round, err)
		}
	}
	// The pool joins before the call returns, so any surplus goroutines
	// here are leaks, not stragglers; allow a little slack for the
	// runtime's own background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after canceled runs", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
