// Command capsim is the repository's one command. Without a mode flag
// (-run, -scenario, -serve, -list-schemes; at most one may be given) it
// evaluates one hybrid-network instance: it builds the network for the
// given scaling parameters, classifies its mobility regime, evaluates
// the selected communication scheme and prints the sustainable per-node
// rate next to the theoretical order.
//
// Example:
//
//	capsim -n 4096 -alpha 0.3 -K 0.8 -phi 1 -scheme schemeB -placement grid
//
// Fault injection: -bs-outage / -edge-outage / -erasure install a
// deterministic fault plan (seeded by -fault-seed) before evaluation,
// and -outage-curve sweeps the BS outage fraction from 0 to 1 printing
// the capacity-vs-outage curve for every selected scheme.
//
// Experiment mode: -run regenerates Table I (T1), Figures 1-3 (F1, F2,
// F3L, F3R) and the supporting experiments E1-E15, writing
// <ID>.{txt,csv} under -out; -run all runs the whole registry:
//
//	capsim -run T1                # Table I at full size
//	capsim -run all -quick        # small sweeps (seconds)
//
// Scenario mode: -scenario runs a declarative scenario JSON file (see
// EXPERIMENTS.md "Scenarios") through the grid engine instead of a
// single instance — new regimes without recompilation:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -quick
//
// Incremental recompute: -cell-cache DIR persists every evaluated grid
// cell of a scenario sweep (a -scenario file, or T1, E3, E8 and E15
// under -run); re-running the same regime (or an edited scenario
// sharing cells with it) replays the stored values byte-identically and
// only computes the cells that changed. The same flag under -serve
// shares the cell cache across daemon submissions:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -cell-cache out/cells
//
// Observability: -metrics-out dumps the run's metrics registry
// (Prometheus text format) and -trace-out its span tree (JSON);
// -frozen-clock pins every timestamp to a fixed epoch so both files are
// byte-identical across runs and worker counts. -debug ADDR serves the
// daemon's /metrics, /debug/vars and /debug/pprof routes while running:
//
//	capsim -scenario examples/scenarios/strong-mobility.json -quick \
//	    -frozen-clock -metrics-out out/metrics.txt -trace-out out/trace.json
//
// Daemon mode: -serve ADDR turns capsim into the long-running scenario
// service (see README "Scenario service"): POST a scenario JSON to
// /runs and fetch status/report/manifest by run id, with a bounded
// admission queue, content-addressed result cache under -cache-dir,
// and graceful drain on SIGINT/SIGTERM:
//
//	capsim -serve :8080 -cache-dir out/cache -quick
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hybridcap/internal/capacity"
	"hybridcap/internal/cellcache"
	"hybridcap/internal/experiments"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/obs"
	"hybridcap/internal/rng"
	"hybridcap/internal/routing"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scenario"
	"hybridcap/internal/server"
	"hybridcap/internal/traffic"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: the daemon drains
	// gracefully, and an in-flight sweep stops scheduling grid cells
	// promptly instead of running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		os.Exit(1)
	}
}

// errModeConflict is returned when more than one mode flag is set.
var errModeConflict = errors.New("modes are exclusive, pick one")

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	var (
		n           = fs.Int("n", 4096, "number of mobile stations")
		alpha       = fs.Float64("alpha", 0.3, "network extension exponent: f(n) = n^alpha")
		kExp        = fs.Float64("K", 0.6, "BS count exponent: k = n^K (negative = no BSs)")
		phi         = fs.Float64("phi", 1, "backbone exponent: k*c(n) = n^phi")
		mExp        = fs.Float64("M", 1, "cluster count exponent: m = n^M (1 = uniform)")
		rExp        = fs.Float64("R", 0, "cluster radius exponent: r = n^-R")
		scheme      = fs.String("scheme", "best", "a routing scheme name (see -list-schemes) or best")
		listSchemes = fs.Bool("list-schemes", false, "print the routing scheme registry with descriptions and exit")
		placement   = fs.String("placement", "matched", "matched | uniform | grid")
		seed        = fs.Uint64("seed", 1, "random seed")
		bsOutage    = fs.Float64("bs-outage", 0, "fraction of base stations failed (nested outage sets)")
		edgeOutage  = fs.Float64("edge-outage", 0, "fraction of backbone edges failed")
		erasure     = fs.Float64("erasure", 0, "per-slot wireless erasure probability (packet sims)")
		faultSeed   = fs.Uint64("fault-seed", 1, "seed of the deterministic fault plan")
		outageCurve = fs.Bool("outage-curve", false, "sweep the BS outage fraction 0..1 and print the capacity curve")
		runIDs      = fs.String("run", "", "regenerate experiments: comma-separated ids (T1, F1, F2, F3L, F3R, E1..E15) or all (uses -out/-quick/-seeds/-workers)")
		scenarioArg = fs.String("scenario", "", "run a declarative scenario JSON file through the grid engine (uses -out/-quick/-seeds/-workers)")
		shardArg    = fs.String("shard", "", "with -scenario: run only shard i of k (\"i/k\", e.g. 0/3) of the sweep grid; merge the shard outputs with capmerge")
		debugAddr   = fs.String("debug", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
		daemonAddr  = fs.String("serve", "", "run the scenario service on this address (POST /runs; see README \"Scenario service\")")
		cacheDir    = fs.String("cache-dir", "out/cache", "content-addressed result cache directory (with -serve)")
		maxQueue    = fs.Int("max-queue", 16, "admission queue bound; a full queue sheds with 429 (with -serve)")
		maxConc     = fs.Int("max-concurrent", 2, "concurrent scenario runs (with -serve)")
		runTimeout  = fs.Duration("run-timeout", 0, "per-run deadline, 0 = none (with -serve)")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline (with -serve)")
	)
	c := bindCommon(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	var modes []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "serve", "scenario", "run", "list-schemes":
			modes = append(modes, "-"+f.Name)
		}
	})
	if len(modes) > 1 {
		return fmt.Errorf("%w: %s", errModeConflict, strings.Join(modes, " and "))
	}
	if *shardArg != "" && *scenarioArg == "" {
		return fmt.Errorf("-shard requires -scenario")
	}
	if *debugAddr != "" {
		stopDebug, err := startDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
	}
	switch {
	case *listSchemes:
		printSchemes()
		return nil
	case *daemonAddr != "":
		return runServe(ctx, *daemonAddr, c, server.Config{
			CacheDir:      *cacheDir,
			CellCacheDir:  c.cellCache,
			MaxQueue:      *maxQueue,
			MaxConcurrent: *maxConc,
			RunTimeout:    *runTimeout,
			DrainTimeout:  *drainWait,
		})
	case *scenarioArg != "":
		sc, err := loadScenario(*scenarioArg, *shardArg)
		if err != nil {
			return err
		}
		return c.runReports(ctx, experiments.Entry{ID: sc.Name, Run: func(o experiments.Options) (*experiments.Result, error) {
			return experiments.RunScenario(ctx, sc, o)
		}})
	case *runIDs != "":
		entries, err := lookupExperiments(*runIDs)
		if err != nil {
			return err
		}
		return c.runReports(ctx, entries...)
	}

	p := scaling.Params{N: *n, Alpha: *alpha, K: *kExp, Phi: *phi, M: *mExp, R: *rExp}
	if err := p.Validate(); err != nil {
		return err
	}
	bsPlacement, err := network.ParsePlacement(*placement)
	if err != nil {
		return err
	}
	faultCfg := faults.Config{
		Seed:               *faultSeed,
		BSOutageFraction:   *bsOutage,
		EdgeOutageFraction: *edgeOutage,
		WirelessErasure:    *erasure,
	}
	if err := faultCfg.Validate(); err != nil {
		return err
	}

	build := func(fc faults.Config) (*network.Network, error) {
		cfg := network.Config{Params: p, Seed: *seed, BSPlacement: bsPlacement}
		if fc.Active() {
			plan, err := faults.New(fc)
			if err != nil {
				return nil, err
			}
			cfg.Faults = plan
		}
		return network.New(cfg)
	}
	nw, err := build(faultCfg)
	if err != nil {
		return err
	}
	tr, err := traffic.NewPermutation(p.N, rng.New(*seed).Derive("traffic").Rand())
	if err != nil {
		return err
	}

	regime, ind := capacity.Classify(p)
	fmt.Printf("params:    %v\n", p)
	fmt.Printf("instance:  k=%d m=%d f=%.3g r=%.3g c=%.4g\n",
		nw.NumBS(), p.NumClusters(), p.F(), p.ClusterRadius(), p.BandwidthC())
	if faultCfg.Active() {
		fmt.Printf("faults:    bs-outage=%.2f edge-outage=%.2f erasure=%.2f seed=%d -> %d/%d BSs live\n",
			faultCfg.BSOutageFraction, faultCfg.EdgeOutageFraction, faultCfg.WirelessErasure,
			faultCfg.Seed, nw.NumLiveBS(), nw.NumBS())
	}
	fmt.Printf("regime:    %v (f*sqrt(gamma)=%.3g, f*sqrt(gammaTilde)=%.3g)\n",
		regime, ind.MobilityIndex, ind.SubnetIndex)
	fmt.Printf("theory:    capacity %v, optimal RT %v, %v\n",
		capacity.PerNodeCapacity(p), capacity.OptimalRT(p), capacity.Dominance(p))
	fmt.Println()
	fmt.Print(capacity.FormatTableI(capacity.TableI(p)))
	fmt.Println()

	schemes, err := selectSchemes(*scheme, p)
	if err != nil {
		return err
	}
	best := 0.0
	for _, s := range schemes {
		ev, err := s.Evaluate(nw, tr)
		if err != nil {
			fmt.Printf("%-14s error: %v\n", s.Name(), err)
			continue
		}
		fmt.Printf("%-14s lambda=%.6g bottleneck=%s failures=%d degraded=%d dropped=%d\n",
			s.Name(), ev.Lambda, ev.Bottleneck, ev.Failures, ev.Degraded, ev.Dropped)
		if ev.Lambda > best {
			best = ev.Lambda
		}
	}
	fmt.Printf("best measured lambda: %.6g (theory order evaluates to %.6g at n=%d)\n",
		best, capacity.PerNodeCapacity(p).Eval(float64(p.N)), p.N)

	if *outageCurve {
		fmt.Println()
		if err := printOutageCurve(build, faultCfg, tr, schemes); err != nil {
			return err
		}
	}
	return nil
}

// lookupExperiments resolves a -run list (comma-separated ids, or "all"
// for the whole registry in presentation order) before anything runs,
// so a typo fails fast.
func lookupExperiments(ids string) ([]experiments.Entry, error) {
	if ids == "all" {
		return experiments.All(), nil
	}
	var entries []experiments.Entry
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		run, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		entries = append(entries, experiments.Entry{ID: id, Run: run})
	}
	return entries, nil
}

// printOutageCurve sweeps the BS outage fraction with the other fault
// knobs held fixed, printing one lambda column per scheme.
func printOutageCurve(build func(faults.Config) (*network.Network, error), faultCfg faults.Config, tr *traffic.Pattern, schemes []routing.Scheme) error {
	header := []string{"bs-outage"}
	for _, s := range schemes {
		header = append(header, s.Name())
	}
	fmt.Println("capacity vs BS outage fraction:")
	fmt.Println(strings.Join(header, "\t"))
	for _, q := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1} {
		fc := faultCfg
		fc.BSOutageFraction = q
		nw, err := build(fc)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, s := range schemes {
			ev, err := s.Evaluate(nw, tr)
			if err != nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.6g", ev.Lambda))
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	return nil
}

// printSchemes lists the routing registry, one scheme per line, the
// source of truth behind the -scheme flag and scenario scheme sets.
func printSchemes() {
	for _, name := range routing.Names() {
		fmt.Printf("%-15s %s\n", name, routing.Description(name))
	}
}

// selectSchemes resolves -scheme against the routing registry; "best"
// evaluates every scheme applicable to the parameter point.
func selectSchemes(name string, p scaling.Params) ([]routing.Scheme, error) {
	if name == "best" {
		names := []string{routing.NameSchemeA, routing.NameTwoHop}
		if p.HasInfrastructure() {
			names = append(names, routing.NameSchemeB, routing.NameSchemeC)
		}
		list := make([]routing.Scheme, 0, len(names))
		for _, n := range names {
			s, err := routing.ByName(n, p)
			if err != nil {
				return nil, err
			}
			list = append(list, s)
		}
		return list, nil
	}
	s, err := routing.ByName(name, p)
	if err != nil {
		return nil, err
	}
	return []routing.Scheme{s}, nil
}

// startDebug serves the shared debug routes (server.RegisterDebug) for
// the process-default registry on addr and returns the function that
// stops the listener. The address is bound before the run starts, so a
// busy or malformed one fails the command instead of leaving it running
// without the endpoint it was asked for; a listener that dies later is
// reported and fatal for the same reason.
func startDebug(addr string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug: %w", err)
	}
	mux := http.NewServeMux()
	server.RegisterDebug(mux, obs.Default())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "capsim: -debug listener on %s failed: %v\n", addr, err)
			os.Exit(1)
		}
	}()
	return func() {
		// Close only fails with the listener's own close error; the
		// run's result is already decided.
		_ = srv.Close()
		<-done
	}, nil
}

// runServe runs the scenario service until the signal context cancels,
// then drains gracefully. The daemon executes runs with the shared
// -quick/-seeds/-workers options, so a served run is byte-identical to
// the same scenario under `capsim -scenario`; -frozen-clock freezes the
// bookkeeping stamps for deterministic smoke tests.
func runServe(ctx context.Context, addr string, c *common, cfg server.Config) error {
	cfg.Workers = c.workers
	cfg.Seeds = c.seeds
	cfg.Quick = c.quick
	cfg.Clock = c.clock()
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("capsim: scenario service on %s (cache %s, queue %d, concurrency %d)\n",
		addr, srv.Store().Dir(), cfg.MaxQueue, cfg.MaxConcurrent)
	if err := srv.ListenAndServe(ctx, addr); err != nil {
		return err
	}
	fmt.Println("capsim: scenario service drained cleanly")
	return nil
}

// loadScenario loads a declarative scenario file. A -shard spec
// overrides the file's shard field and restricts the run to one block
// of the sweep grid.
func loadScenario(path, shardSpec string) (*scenario.Scenario, error) {
	sc, err := scenario.Load(path)
	if err != nil || shardSpec == "" {
		return sc, err
	}
	sc.Shard, err = parseShard(shardSpec)
	if err != nil {
		return nil, err
	}
	return sc, sc.Validate()
}

// parseShard parses a -shard spec of the form "i/k" (shard index i of k
// total shards). Range validation happens in scenario.Validate, where
// the grid size is known.
func parseShard(spec string) (*scenario.ShardSpec, error) {
	is, ks, ok := strings.Cut(spec, "/")
	if !ok {
		return nil, fmt.Errorf("-shard %q: want i/k, e.g. 0/3", spec)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return nil, fmt.Errorf("-shard %q: bad index: %w", spec, err)
	}
	k, err := strconv.Atoi(ks)
	if err != nil {
		return nil, fmt.Errorf("-shard %q: bad count: %w", spec, err)
	}
	return &scenario.ShardSpec{Index: i, Count: k}, nil
}

// common holds the flags every experiment-running mode (-run,
// -scenario, -serve) shares; each is documented by its help string.
type common struct {
	out, metricsOut, traceOut, cellCache string
	quick, frozenClock                   bool
	seeds, workers                       int
}

// bindCommon registers the shared flags on fs and returns the
// destination struct; read it after fs.Parse.
func bindCommon(fs *flag.FlagSet) *common {
	c := &common{}
	fs.StringVar(&c.out, "out", "out", "output directory for CSV/TXT artifacts")
	fs.BoolVar(&c.quick, "quick", false, "smaller sweeps for a fast smoke run")
	fs.IntVar(&c.seeds, "seeds", 0, "seeds per data point (0 = default)")
	fs.IntVar(&c.workers, "workers", 0, "parallel sweep workers (0 = all CPU cores); results are identical for every worker count")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the run's metrics registry (Prometheus text format) to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the run's span tree (JSON) to this file")
	fs.BoolVar(&c.frozenClock, "frozen-clock", false, "freeze observability timestamps at a fixed epoch (byte-reproducible -metrics-out/-trace-out)")
	fs.StringVar(&c.cellCache, "cell-cache", "", "persistent cell-result cache directory: scenario sweep cells (-scenario; T1, E3, E8, E15 under -run) replay across runs, byte-identically (empty = off)")
	return c
}

// options converts the shared flags into experiment options: ctx
// cancels the run, a fresh observability runtime on the selected clock
// publishes into the process-default registry (so engine, cache and
// fault metrics all land in one -metrics-out dump), and the -cell-cache
// store is opened when the flag is set.
func (c *common) options(ctx context.Context) (experiments.Options, error) {
	o := experiments.Options{Quick: c.quick, Seeds: c.seeds, Workers: c.workers, Obs: obs.NewRuntime(c.clock()), Ctx: ctx}
	if c.cellCache == "" {
		return o, nil
	}
	var err error
	o.CellCache, err = cellcache.NewStore(c.cellCache)
	return o, err
}

// runReports runs each entry under the shared options, printing its
// report and writing its artifacts (the report, CSV, and for scenarios
// the run manifest) under -out unless -out is empty, then writes the
// requested -metrics-out/-trace-out dumps. The signal context cancels
// an in-flight sweep promptly.
func (c *common) runReports(ctx context.Context, entries ...experiments.Entry) error {
	o, err := c.options(ctx)
	if err != nil {
		return err
	}
	for _, e := range entries {
		res, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Print(res.Text())
		if c.out == "" {
			continue
		}
		if err := res.WriteFiles(c.out); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s/%s.*\n\n", c.out, res.ID)
	}
	return c.writeObs(o.Obs)
}

// clock returns the observability clock the flags select: frozen at
// obs.Epoch under -frozen-clock, the wall clock otherwise. The command
// is the only layer allowed to construct a wall clock; everything below
// receives it by injection.
func (c *common) clock() obs.Clock {
	if c.frozenClock {
		return obs.NewFrozenClock(obs.Epoch)
	}
	return obs.ClockFunc(time.Now)
}

// writeObs finishes the run's root span and writes the -metrics-out and
// -trace-out artifacts that were requested.
func (c *common) writeObs(rt *obs.Runtime) error {
	rt.Root.End()
	if c.metricsOut != "" {
		if err := rt.WriteMetricsFile(c.metricsOut); err != nil {
			return err
		}
	}
	if c.traceOut != "" {
		return rt.WriteTraceFile(c.traceOut)
	}
	return nil
}
