package experiments

import (
	"fmt"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/engine"
	"hybridcap/internal/faults"
	"hybridcap/internal/measure"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/traffic"
)

// evalFn measures one instance, returning a per-node rate.
type evalFn func(nw *network.Network, tr *traffic.Pattern) (float64, error)

// schemeEval adapts a routing.Scheme.
func schemeEval(s routing.Scheme) evalFn {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		ev, err := s.Evaluate(nw, tr)
		if err != nil {
			return 0, err
		}
		if ev.Failures > 0 {
			return 0, fmt.Errorf("%s: %d unroutable pairs", s.Name(), ev.Failures)
		}
		return ev.Lambda, nil
	}
}

// bestOf takes the max of several evaluators (capacity is achieved by
// the best scheme, e.g. Theta(1/f) + Theta(min(...)) in the strong
// regime). It fails only if every evaluator fails.
func bestOf(evals ...evalFn) evalFn {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		best := 0.0
		var lastErr error
		ok := false
		for _, e := range evals {
			v, err := e(nw, tr)
			if err != nil {
				lastErr = err
				continue
			}
			ok = true
			if v > best {
				best = v
			}
		}
		if !ok {
			return 0, lastErr
		}
		return best, nil
	}
}

// scenarioEval evaluates a declarative scheme set: each name is
// resolved against the instance's own parameter point (gridMultihop
// picks its cell side from gamma(n) there) and the point scores the
// best of them.
func scenarioEval(names []string) evalFn {
	return func(nw *network.Network, tr *traffic.Pattern) (float64, error) {
		evals := make([]evalFn, 0, len(names))
		for _, name := range names {
			s, err := routing.ByName(name, nw.Cfg.Params)
			if err != nil {
				return 0, err
			}
			evals = append(evals, schemeEval(s))
		}
		return bestOf(evals...)(nw, tr)
	}
}

// trafficFor draws the permutation traffic for a node count and seed.
func trafficFor(n int, seed uint64) (*traffic.Pattern, error) {
	return traffic.NewPermutation(n, rng.New(seed).Derive("traffic").Rand())
}

// safeEval runs eval with panics converted to errors, so one broken
// instance cannot tear down a whole sweep.
func safeEval(eval evalFn, nw *network.Network, tr *traffic.Pattern) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("evaluation panicked: %v", r)
		}
	}()
	return eval(nw, tr)
}

// Cell-failure phase tags, owned by the grid engine: a degraded sweep's
// error says whether instance construction or scheme evaluation broke.
const (
	phaseConstruct = engine.PhaseConstruct
	phaseEvaluate  = engine.PhaseEvaluate
)

// sweepCell is one (size, seed) point of the grid. Seeds are derived
// up front from the splittable rng, so the cell is self-contained and
// its result cannot depend on which worker runs it or when.
type sweepCell struct {
	params scaling.Params
	seed   uint64
}

// runCell builds the cell's instance (installing the optional fault
// plan) and evaluates it, tagging failures with their phase.
func runCell(c sweepCell, placement network.BSPlacement, fc *faults.Config, eval evalFn) (float64, error) {
	nw, tr, err := instanceWith(c.params, c.seed, placement, fc)
	if err != nil {
		return 0, engine.ConstructErr(err)
	}
	v, err := safeEval(eval, nw, tr)
	if err != nil {
		return 0, engine.EvaluateErr(err)
	}
	return v, nil
}

// sweepLambda runs eval over the sizes x seeds grid for the parameter
// family and returns the mean-lambda series. The grid cells fan out
// through the engine's bounded pool and merge back in grid order, so
// the series is byte-identical to a serial run for every worker count.
// Failing seeds (errors or panics) are tolerated: the point aggregates
// the surviving seeds and records its coverage in the series'
// OK/Attempts counters. Only a point losing every seed aborts the
// sweep, reporting the point's first failure by seed order.
func sweepLambda(o Options, name string, sizes []int, base scaling.Params, placement network.BSPlacement, eval evalFn) (*measure.Series, error) {
	return sweepLambdaWith(o, name, sizes, base, placement, nil, nil, eval)
}

// meanGrid runs cell over a points x seeds grid, observed as phase
// (see observeGrid; sizes labels the cells), and returns every point's
// mean over its seeds. It is strict: the first failed cell in grid
// order fails the whole grid, and so does a context that ended.
func meanGrid(o Options, phase string, points int, sizes []int, cell func(point, seed int) (float64, error)) ([]float64, error) {
	g := engine.Grid{Points: points, Seeds: o.seeds(), Workers: o.workers()}
	finish := observeGrid(o, phase, &g, sizes)
	agg := engine.NewMeanAgg(points)
	var firstErr engine.FirstErrAgg[float64]
	err := engine.Reduce(o.ctx(), g, cell, agg, &firstErr)
	finish()
	if firstErr.Err != nil {
		return nil, firstErr.Err
	}
	if err != nil {
		return nil, err
	}
	means := make([]float64, points)
	for p := range means {
		means[p], _, _, _ = agg.Point(p)
	}
	return means, nil
}

// scopeFn renders the canonical cell-cache scope of one grid point
// (network size). Nil means the sweep's cells have no declarative
// scope and must not be cached.
type scopeFn func(n int) ([]byte, error)

// sweepLambdaWith is sweepLambda with an optional fault plan installed
// into every instance of the grid and an optional cell-cache scope (the
// declarative scenario path; bespoke eval closures pass a nil scope and
// stay uncached, since nothing canonical describes them).
func sweepLambdaWith(o Options, name string, sizes []int, base scaling.Params, placement network.BSPlacement, fc *faults.Config, scope scopeFn, eval evalFn) (*measure.Series, error) {
	return sweepLambdaShard(o, name, sizes, base, placement, fc, scope, nil, nil, eval)
}

// cellRecorder receives every covered cell's outcome — with the cell's
// derived rng seed — in grid order; sharded scenario runs use it to
// assemble the cells artifact that shard-merge tooling consumes.
type cellRecorder func(point, seed int, cellSeed uint64, out engine.Outcome[float64])

// sweepLambdaShard is the streaming sweep core: cells fan out through
// the engine's bounded pool and fold into a per-point mean aggregator
// in grid order, so the series is byte-identical to a serial run for
// every worker count while the sweep holds O(points + workers) state
// instead of materializing the grid. An optional shard spec restricts
// the run to one contiguous block of the global grid (cells keep their
// global coordinates and seeds, so shard outputs merge byte-identically
// to an unsharded run).
//
// Failing seeds (errors or panics) are tolerated: a point aggregates
// its surviving seeds and records coverage in the series' OK/Attempts
// counters. Unsharded, a point losing every seed aborts the sweep,
// reporting the point's first failure by seed order; under a shard the
// point is simply left out of the series (whether the full point is
// dead is the merge's call, not one shard's).
func sweepLambdaShard(o Options, name string, sizes []int, base scaling.Params, placement network.BSPlacement, fc *faults.Config, scope scopeFn, shard *scenario.ShardSpec, rec cellRecorder, eval evalFn) (*measure.Series, error) {
	seeds := o.seeds()
	src := rng.New(0xE).Derive("sweep").Derive(name)
	params := make([]scaling.Params, len(sizes))
	srcs := make([]rng.Source, len(sizes))
	for i, n := range sizes {
		p := base.WithN(n)
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: %s at n=%d: %w", name, n, err)
		}
		params[i] = p
		srcs[i] = src.DeriveN("n", n)
	}
	// Cell seeds derive lazily from the point's source: rng derivation is
	// a pure function of the source value, so worker goroutines may
	// derive concurrently and the sweep keeps O(points) seed state
	// instead of a materialized cell list.
	cellSeed := func(point, seed int) uint64 {
		return srcs[point].DeriveN("seed", seed).Uint64()
	}

	// Bracket the sweep in a phase span and route every cell outcome
	// through the sink. The engine delivers observations in grid order,
	// so the published stream is identical for every worker count.
	ctx := o.ctx()
	g := engine.Grid{Points: len(sizes), Seeds: seeds, Workers: o.workers()}
	if shard != nil {
		g.ShardIndex, g.ShardCount = shard.Index, shard.Count
	}
	if o.CellCache != nil && scope != nil {
		cache, err := newSweepCellCache(o.CellCache, scope, sizes, cellSeed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		g.Cache = cache
	}
	agg := engine.NewMeanAgg(len(sizes))
	finish := observeGrid(o, "sweep "+name, &g, sizes)
	serr := engine.Stream(ctx, g,
		func(point, seed int) (float64, error) {
			return runCell(sweepCell{params: params[point], seed: cellSeed(point, seed)}, placement, fc, eval)
		},
		func(point, seed int, out engine.Outcome[float64]) {
			agg.Cell(point, seed, out)
			if rec != nil {
				rec(point, seed, cellSeed(point, seed), out)
			}
		})
	finish()

	// A canceled sweep must fail as a whole: partial grids would look
	// like degraded-but-valid data, and a daemon must never cache them.
	// An invalid shard spec surfaces here too, before any cell ran.
	if serr != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, serr)
	}

	series := &measure.Series{Name: name}
	for i, n := range sizes {
		mean, ok, firstErr, firstSeed := agg.Point(i)
		if shard != nil {
			if covered := agg.Covered(i); covered > 0 && ok > 0 {
				series.AddCounted(float64(n), mean, ok, covered)
			}
			continue
		}
		if ok == 0 {
			wrapped := fmt.Errorf("experiments: %s at n=%d seed %d: %w", name, n, firstSeed, firstErr)
			return nil, fmt.Errorf("experiments: %s at n=%d: all %d seeds failed: %w", name, n, seeds, wrapped)
		}
		series.AddCounted(float64(n), mean, ok, seeds)
	}
	return series, nil
}

// sweepScenario runs a declarative scenario's lambda sweep over the
// resolved size grid: the scenario's name salts the seed derivation,
// its scheme set scores each instance, its optional fault plan is
// installed into every cell, and its optional shard spec selects the
// block of the global grid this process evaluates. rec, if set,
// receives every covered cell outcome (the cells-artifact hook).
func sweepScenario(o Options, sc *scenario.Scenario, sizes []int, rec cellRecorder) (*measure.Series, error) {
	placement, err := sc.PlacementScheme()
	if err != nil {
		return nil, fmt.Errorf("experiments: scenario %s: %w", sc.Name, err)
	}
	return sweepLambdaShard(o, sc.Name, sizes, sc.Base.Params(0), placement, sc.FaultConfig(), sc.CellScope, sc.Shard, rec, scenarioEval(sc.Schemes))
}

// sweepCellCache adapts the persistent cell store to the engine's
// CellCache: grid coordinates map to (scope, n, derived seed) keys, so
// a cell hits if and only if the exact same instance would be rebuilt.
// Keys are shard-blind (global coordinates, derived seeds), so a resumed
// or re-partitioned sweep replays another run's cells. Gets and Puts run
// on worker goroutines; the adapter's state is read-only after
// construction, the seed derivation is pure, and the store is
// concurrency-safe.
type sweepCellCache struct {
	store  *cellcache.Store
	scopes [][]byte // per point
	sizes  []int
	seed   func(point, seed int) uint64
}

// newSweepCellCache precomputes the per-point scopes for a sweep.
func newSweepCellCache(store *cellcache.Store, scope scopeFn, sizes []int, seed func(point, seed int) uint64) (*sweepCellCache, error) {
	scopes := make([][]byte, len(sizes))
	for i, n := range sizes {
		b, err := scope(n)
		if err != nil {
			return nil, err
		}
		scopes[i] = b
	}
	return &sweepCellCache{store: store, scopes: scopes, sizes: sizes, seed: seed}, nil
}

// Get implements engine.CellCache. Every store failure — miss, I/O
// error, corruption (evicted on the spot) — degrades to a recompute.
func (c *sweepCellCache) Get(point, seed int) (any, bool) {
	key := cellcache.Key(c.scopes[point], c.sizes[point], c.seed(point, seed))
	e, _, err := c.store.Get(key)
	if err != nil {
		return nil, false
	}
	return e.Value, true
}

// Put implements engine.CellCache. Persistence is best-effort: a full
// disk or non-finite value loses the entry, never the run.
func (c *sweepCellCache) Put(point, seed int, v any) {
	val, ok := v.(float64)
	if !ok {
		return
	}
	_ = c.store.Put(c.scopes[point], c.sizes[point], c.seed(point, seed), val)
}
