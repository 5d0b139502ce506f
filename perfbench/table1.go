package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"hybridcap"
	"hybridcap/internal/backbone"
	"hybridcap/internal/engine"
	"hybridcap/internal/experiments"
	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/network"
	"hybridcap/internal/obs"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scenario"
	"hybridcap/internal/traffic"
)

// table1Pass is the nominal duration of one full-size Table-I sweep on
// a 2-CPU host; the run makes seconds/table1Pass sweeps (at least
// one), so every run of one -seconds value measures the same work.
const table1Pass = 6 * time.Second

// setupReps is how many times a run repeats its set-up to report the
// median.
const setupReps = 15

// wallClock feeds the program's own obs timing with real time.
var wallClock = obs.ClockFunc(time.Now)

// passCount is how many fixed-size passes fit the run's budget.
func passCount(seconds int, pass time.Duration) int {
	n := int(time.Duration(seconds) * time.Second / pass)
	if n < 1 {
		return 1
	}
	return n
}

// buildKernelTables builds the default kernel's sampler and eta table
// with the uncached constructors the process caches run on first use,
// and returns the time taken. The caches keep only one build per
// process, so repeated set-up samples call the constructors directly.
func buildKernelTables() (time.Duration, error) {
	k := mobility.DefaultKernel()
	t0 := time.Now()
	if _, err := mobility.NewSampler(k); err != nil {
		return 0, err
	}
	if _, err := mobility.NewEtaTable(k); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// fillKernelCaches builds the process-wide kernel caches once.
func fillKernelCaches() error {
	k := mobility.DefaultKernel()
	if _, err := mobility.CachedSampler(k); err != nil {
		return err
	}
	_, err := mobility.CachedEtaTable(k)
	return err
}

// setupKernelTables times setupReps kernel-table builds, then fills
// the process caches.
func setupKernelTables() ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := buildKernelTables()
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, fillKernelCaches()
}

// runTable1 is the table1-full workload: the full-size Table-I sweep
// through hybridcap.RunExperiment with nproc workers and no cell cache.
func runTable1(rc *runCtx) (*outcome, error) {
	o := &outcome{}
	setup, err := setupKernelTables()
	if err != nil {
		return nil, err
	}
	o.add(metric{Name: "setup_s", Value: secs(medianDuration(setup)), Unit: "s", Stat: "median", Samples: len(setup)})
	if rc.trace {
		o.add(metric{Name: "mobility.cache_build_s", Value: secs(medianDuration(setup)), Unit: "s", Stat: "median", Samples: len(setup)})
		return traceTable1(rc, o)
	}
	passes := passCount(rc.seconds, table1Pass)
	var walls []time.Duration
	var cols []float64
	for p := 0; p < passes; p++ {
		wall, colMS, _, err := table1Sweep(rc, o)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		cols = append(cols, colMS...)
	}
	o.add(metric{Name: "wall_s", Value: secs(medianDuration(walls)), Unit: "s", Stat: "median", Samples: len(walls)})
	latencyMetrics(o, cols, 1e7)
	o.note("ops are Table-I columns (one size, 5 rows x 3 seeds), each the sum of its 15 cells' engine spans")
	return o, nil
}

// table1Sweep runs one untraced sweep, checks it against the reference
// and returns its wall time, the time of each Table-I column in ms
// (+Inf for every column when the sweep fails) and the result. A
// column is one network size across the five rows: its time is the sum
// of the engine's spans of its 15 cells (5 rows x 3 seeds). Columns,
// not rows or cells, are the workload's operations because the median
// of either lies on short operations (cells of 1-15 ms, rows of 30-200
// ms), which moved by 30-65% between runs when another process shared
// the host while the sweep's wall time moved by under 15%; the median
// column sums cells of 4096 nodes.
func table1Sweep(rc *runCtx, o *outcome) (time.Duration, []float64, *hybridcap.ExperimentResult, error) {
	runtime.GC()
	rt := obs.NewRuntimeWith(wallClock, obs.NewRegistry())
	t0 := time.Now()
	res, err := hybridcap.RunExperiment("T1", hybridcap.ExperimentOptions{Workers: rc.nproc, Obs: rt})
	wall := time.Since(t0)
	cells := rc.refs.Table1.cells()
	o.attempted += cells
	if err != nil {
		o.mismatch(cells, "T1 failed: %v", err)
		colMS := make([]float64, len(rc.refs.Table1.Series[0].X))
		for i := range colMS {
			colMS[i] = math.Inf(1)
		}
		return wall, colMS, nil, nil
	}
	rc.refs.Table1.check(o, res)
	var sizes []int
	colNS := map[int]int64{}
	colCells := map[int]int{}
	rows := 0
	var walk func(n obs.Node)
	walk = func(n obs.Node) {
		var size, seed int
		switch {
		case strings.HasPrefix(n.Name, "sweep "):
			rows++
		case strings.HasPrefix(n.Name, "cell "):
			if _, err := fmt.Sscanf(n.Name, "cell n=%d seed=%d", &size, &seed); err != nil {
				o.mismatch(0, "T1 cell span %q: %v", n.Name, err)
				break
			}
			if colCells[size] == 0 {
				sizes = append(sizes, size)
			}
			colNS[size] += n.DurationNS
			colCells[size]++
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(rt.Root.Tree())
	series := rc.refs.Table1.Series
	perCol := len(series) * rc.refs.Table1.Seeds
	if rows != len(series) || len(sizes) != len(series[0].X) {
		o.mismatch(0, "T1 observed %d rows and %d sizes, want %d and %d", rows, len(sizes), len(series), len(series[0].X))
	}
	colMS := make([]float64, len(sizes))
	for i, size := range sizes {
		if colCells[size] != perCol {
			o.mismatch(0, "T1 observed %d cells of n=%d, want %d", colCells[size], size, perCol)
		}
		colMS[i] = float64(colNS[size]) / 1e6
	}
	return wall, colMS, res, nil
}

// sweepCell is one (row, size, seed) cell of a traced re-drive.
type sweepCell struct {
	row, point, seed int
	sc               *scenario.Scenario
	n                int
	cellSeed         uint64
}

// scenarioCells lists a scenario's grid cells in grid order with the
// instance seeds its sweep derives: from the scenario name, the size
// and the seed index, as the experiments' sweeps do. If that derivation
// changes, the traced outputs stop matching the untraced ones.
func scenarioCells(row int, sc *scenario.Scenario, seeds int) []sweepCell {
	src := rng.New(0xE).Derive("sweep").Derive(sc.Name)
	var cells []sweepCell
	for p, n := range sc.Sizes {
		for s := 0; s < seeds; s++ {
			cells = append(cells, sweepCell{row: row, point: p, seed: s, sc: sc, n: n,
				cellSeed: src.DeriveN("n", n).DeriveN("seed", s).Uint64()})
		}
	}
	return cells
}

// table1Scenarios returns the Table-I row scenarios from the registry.
func table1Scenarios() ([]*scenario.Scenario, error) {
	for _, e := range experiments.All() {
		if e.ID == "T1" {
			return e.Scenarios, nil
		}
	}
	return nil, fmt.Errorf("experiment T1 not registered")
}

// traceTable1 runs one untraced sweep for the reference output and
// wall time, then re-drives every cell from this package with a span
// around each layer call, folds the cells the way the engine does and
// checks the traced series equal the untraced ones. Last it drives the
// backbone of every strong-BS cell the way scheme B loads it.
func traceTable1(rc *runCtx, o *outcome) (*outcome, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wallU, _, resU, err := table1Sweep(rc, o)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	cellsN := rc.refs.Table1.cells()
	o.add(metric{Name: "experiments.allocs_per_cell", Value: float64(m1.Mallocs-m0.Mallocs) / float64(cellsN), Unit: "count", Stat: "mean", Samples: cellsN})
	o.add(metric{Name: "experiments.alloc_bytes_per_cell", Value: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(cellsN), Unit: "B", Stat: "mean", Samples: cellsN})

	scs, err := table1Scenarios()
	if err != nil {
		return nil, err
	}
	const seeds = 3 // the experiments' default seed count
	var cells []sweepCell
	for r, sc := range scs {
		cells = append(cells, scenarioCells(r, sc, seeds)...)
	}
	tr := newTracer()
	values := make([]engine.Outcome[float64], len(cells))
	runtime.GC()
	t0 := time.Now()
	forEach(rc.nproc, len(cells), func(i int) {
		values[i] = traceCell(tr, cells[i])
	})
	wallT := time.Since(t0)

	// Fold in grid order, as the sweep's mean aggregator does, and
	// compare with the untraced result.
	aggs := make([]*engine.MeanAgg, len(scs))
	for r, sc := range scs {
		aggs[r] = engine.NewMeanAgg(len(sc.Sizes))
	}
	for i, c := range cells {
		aggs[c.row].Cell(c.point, c.seed, values[i])
	}
	if resU != nil {
		for r, sc := range scs {
			for p := range sc.Sizes {
				mean, ok, _, _ := aggs[r].Point(p)
				if ok != seeds || r >= len(resU.Series) || resU.Series[r].Y[p] != mean {
					o.mismatch(seeds, "traced %s point %d = %v (%d ok) differs from the untraced sweep", sc.Name, p, mean, ok)
				}
			}
		}
	}

	var busy time.Duration
	for _, s := range tr.named("cell") {
		busy += s.dur()
	}
	layers := addRedriveMetrics(o, tr, []string{"schemeA", "schemeB", "schemeBcluster", "gridMultihop", "schemeC"})
	o.add(metric{Name: "experiments.cell_max_s", Value: secs(tr.maxDur("cell")), Unit: "s", Stat: "max", Samples: len(cells)})
	capacity := float64(rc.nproc) * float64(wallT)
	o.add(metric{Name: "engine.busy_frac", Value: float64(busy) / capacity, Unit: "ratio", Stat: "ratio", Samples: len(cells)})
	o.add(metric{Name: "trace.overhead_frac", Value: float64(wallT-wallU) / float64(wallU), Unit: "ratio", Stat: "ratio", Samples: 1})
	o.add(metric{Name: "trace.residual_frac", Value: 1 - float64(layers)/capacity, Unit: "ratio", Stat: "ratio", Samples: len(cells)})
	o.note("untraced sweep %.3fs, traced re-drive %.3fs", secs(wallU), secs(wallT))

	if err := driveBackbone(rc, tr, cells, o); err != nil {
		return nil, err
	}
	path, err := tr.write(rc.traceDir, fmt.Sprintf("table1-full-seed%d.jsonl", rc.seed))
	if err != nil {
		return nil, err
	}
	o.note("spans written to %s", path)
	absentLayers(o)
	return o, nil
}

// addRedriveMetrics reports the time re-driven cells spent in instance
// construction, traffic generation and each scheme's evaluation, and
// returns the total.
func addRedriveMetrics(o *outcome, tr *tracer, schemes []string) time.Duration {
	var layers time.Duration
	for _, sch := range schemes {
		d, _, n := tr.total("routing." + sch + ".eval")
		layers += d
		o.add(metric{Name: "routing." + sch + ".eval_s", Value: secs(d), Unit: "s", Stat: "sum", Samples: n})
	}
	dNew, _, nNew := tr.total("network.New")
	o.add(metric{Name: "network.new_s", Value: secs(dNew), Unit: "s", Stat: "sum", Samples: nNew})
	o.add(metric{Name: "network.new_max_ms", Value: ms(tr.maxDur("network.New")), Unit: "ms", Stat: "max", Samples: nNew})
	dPerm, _, nPerm := tr.total("traffic.permutation")
	o.add(metric{Name: "traffic.permutation_s", Value: secs(dPerm), Unit: "s", Stat: "sum", Samples: nPerm})
	return layers + dNew + dPerm
}

// forEach runs fn(0..n-1) on workers goroutines and waits for them.
func forEach(workers, n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// traceCell rebuilds one cell's instance and scores it with the
// row's schemes, best of them, as the sweep does; a scheme with
// unroutable pairs counts as failed.
func traceCell(tr *tracer, c sweepCell) engine.Outcome[float64] {
	cell := tr.begin("cell", 0)
	defer cell.end(1)
	placement, err := c.sc.PlacementScheme()
	if err != nil {
		return engine.Outcome[float64]{Err: err}
	}
	p := c.sc.Base.Params(0).WithN(c.n)
	sp := tr.begin("network.New", cell.id)
	nw, err := network.New(network.Config{Params: p, Seed: c.cellSeed, BSPlacement: placement})
	sp.end(int64(c.n))
	if err != nil {
		return engine.Outcome[float64]{Err: err}
	}
	sp = tr.begin("traffic.permutation", cell.id)
	pat, err := traffic.NewPermutation(c.n, rng.New(c.cellSeed).Derive("traffic").Rand())
	sp.end(int64(c.n))
	if err != nil {
		return engine.Outcome[float64]{Err: err}
	}
	best, ok := 0.0, false
	var lastErr error
	for _, name := range c.sc.Schemes {
		s, err := routing.ByName(name, nw.Cfg.Params)
		if err != nil {
			return engine.Outcome[float64]{Err: err}
		}
		sp := tr.begin("routing."+name+".eval", cell.id)
		ev, err := s.Evaluate(nw, pat)
		sp.end(1)
		if err == nil && ev.Failures > 0 {
			err = fmt.Errorf("%s: %d unroutable pairs", name, ev.Failures)
		}
		if err != nil {
			lastErr = err
			continue
		}
		ok = true
		if ev.Lambda > best {
			best = ev.Lambda
		}
	}
	if !ok {
		return engine.Outcome[float64]{Err: lastErr}
	}
	return engine.Outcome[float64]{Value: best}
}

// squareletGroups groups the live BSs by squarelet with the rule
// scheme B uses by default: the finest side from 4 down to 2 whose
// every squarelet holds a live BS. It fails rather than drive another
// tessellation when no such side exists or a BS is down, since scheme
// B would then route over groups this drive does not build.
func squareletGroups(nw *network.Network) (geom.Grid, [][]int, error) {
	livePos, liveIDs := nw.LiveBSPositions()
	if len(liveIDs) != nw.NumBS() {
		return geom.Grid{}, nil, fmt.Errorf("backbone drive needs every BS alive, %d of %d are", len(liveIDs), nw.NumBS())
	}
	for side := 4; side >= 2; side-- {
		g := geom.NewGridCells(side)
		groups := make([][]int, g.NumCells())
		for i, y := range livePos {
			k := g.CellIndexOf(y)
			groups[k] = append(groups[k], liveIDs[i])
		}
		full := true
		for _, grp := range groups {
			if len(grp) == 0 {
				full = false
				break
			}
		}
		if full {
			return g, groups, nil
		}
	}
	return geom.Grid{}, nil, fmt.Errorf("no squarelet side from 4 to 2 puts a BS in every squarelet")
}

// driveBackbone loads the wired backbone of every strong-BS cell the
// way scheme B's phase II does: BSs and MSs grouped by squarelet, one
// compiled group flow per squarelet pair, one unit flow per
// cross-squarelet source-destination pair. It reports the time per
// loaded edge and the edges per flow.
func driveBackbone(rc *runCtx, tr *tracer, cells []sweepCell, o *outcome) error {
	var strong []sweepCell
	for _, c := range cells {
		if c.sc.Name == "strong-BS" {
			strong = append(strong, c)
		}
	}
	errs := make([]error, len(strong))
	forEach(rc.nproc, len(strong), func(i int) {
		errs[i] = driveBackboneCell(tr, strong[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	dAdd, edges, _ := tr.total("backbone.add")
	_, flows, _ := tr.total("backbone.flows")
	if edges == 0 || flows == 0 {
		return fmt.Errorf("backbone drive loaded no edges")
	}
	o.add(metric{Name: "backbone.add_ns_per_edge", Value: float64(dAdd.Nanoseconds()) / float64(edges), Unit: "ns", Stat: "mean", Samples: int(edges)})
	o.add(metric{Name: "backbone.edges_per_flow", Value: float64(edges) / float64(flows), Unit: "count", Stat: "mean", Samples: int(flows)})
	return nil
}

func driveBackboneCell(tr *tracer, c sweepCell) error {
	placement, err := c.sc.PlacementScheme()
	if err != nil {
		return err
	}
	nw, err := network.New(network.Config{Params: c.sc.Base.Params(0).WithN(c.n), Seed: c.cellSeed, BSPlacement: placement})
	if err != nil {
		return err
	}
	pat, err := traffic.NewPermutation(c.n, rng.New(c.cellSeed).Derive("traffic").Rand())
	if err != nil {
		return err
	}
	g, bsGroups, err := squareletGroups(nw)
	if err != nil {
		return fmt.Errorf("%s n=%d seed %d: %w", c.sc.Name, c.n, c.seed, err)
	}
	groupOf := make([]int, nw.NumMS())
	for i, h := range nw.HomePoints() {
		groupOf[i] = g.CellIndexOf(h)
	}
	bb, err := backbone.New(nw.NumBS(), nw.Cfg.Params.BandwidthC())
	if err != nil {
		return err
	}
	root := tr.begin("backbone.cell", 0)
	defer root.end(int64(c.n))
	type pair struct{ a, b int }
	flows := map[pair]*backbone.GroupFlow{}
	sp := tr.begin("backbone.compile", root.id)
	for src, dst := range pat.DestOf {
		gs, gd := groupOf[src], groupOf[dst]
		if _, ok := flows[pair{gs, gd}]; !ok && gs != gd {
			flows[pair{gs, gd}] = bb.CompileGroupFlow(bsGroups[gs], bsGroups[gd])
		}
	}
	sp.end(int64(len(flows)))
	// Each flow's usable edges, counted as CompileGroupFlow selects them.
	usable := map[pair]int64{}
	for p := range flows {
		for _, i := range bsGroups[p.a] {
			for _, j := range bsGroups[p.b] {
				if bb.EdgeUsable(i, j) {
					usable[p]++
				}
			}
		}
	}
	var edges, nflows int64
	sp = tr.begin("backbone.add", root.id)
	for src, dst := range pat.DestOf {
		gs, gd := groupOf[src], groupOf[dst]
		f, ok := flows[pair{gs, gd}]
		if !ok || !f.Routable() {
			continue
		}
		if err := f.Add(1); err != nil {
			return err
		}
		edges += usable[pair{gs, gd}]
		nflows++
	}
	sp.end(edges)
	now := time.Now()
	tr.record(tr.newID(), "backbone.flows", root.id, now, now, nflows)
	if bb.SustainableScale() <= 0 {
		return fmt.Errorf("backbone drive on %s n=%d left no sustainable scale", c.sc.Name, c.n)
	}
	return nil
}
