package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybridcap/internal/cellcache"
	"hybridcap/internal/experiments"
	"hybridcap/internal/obs"
	"hybridcap/internal/scenario"
	"hybridcap/internal/server"
)

// The daemon-mix open loop: requests arrive at daemonRate per second
// on a seeded jittered-periodic schedule, whatever the daemon's state.
// At this rate the executor is about 35% busy on a 2-CPU host.
const (
	daemonRate   = 30.0
	daemonJitter = 0.4 // arrival offset, as a fraction of the mean gap
	// Class shares of every block of mixBlock requests; the counts are
	// exact, the order within a block is shuffled by the seed.
	hitShare    = 0.8
	replayShare = 0.15
	mixBlock    = 20
	// daemonDeadline bounds how long the client waits for the last run
	// after the schedule ends; a run still unfinished then fails.
	daemonDeadline = 60 * time.Second
	daemonMaxQueue = 64
)

// Request classes.
const (
	classCold   = "cold"
	classReplay = "replay"
	classHit    = "hit"
)

// Scenario families of the mix: strong mobility without BSs (scheme A
// does the compute) and trivial mobility with BSs (scheme C).
var (
	strongFamily = scenario.Scenario{
		Base: scenario.Exponents{Alpha: 0.3, K: -1, M: 1}, Placement: "grid", Schemes: []string{"schemeA"},
	}
	trivialFamily = scenario.Scenario{
		Base: scenario.Exponents{Alpha: 0.7, K: 0.6, Phi: 1, M: 0.2, R: 0.11}, Placement: "matched", Schemes: []string{"schemeC"},
	}
)

// Set-up scenarios fill the cell cache; every replay and stored
// scenario reads its cells from them.
var (
	setupSizes = []int{256, 512, 1024, 2048, 4096}
	setupSeeds = 2
	// Cold scenarios: a fixed shape per family, fresh names.
	coldStrongSizes  = []int{2048, 4096, 8192}
	coldTrivialSizes = []int{4096, 8192, 16384}
	coldSeeds        = 2
)

func familyScenario(fam scenario.Scenario, name, desc string, sizes []int, seeds int) *scenario.Scenario {
	sc := fam
	sc.Name, sc.Description = name, desc
	sc.Sizes = append([]int(nil), sizes...)
	sc.Seeds = seeds
	sc.Schemes = append([]string(nil), fam.Schemes...)
	return &sc
}

// setupScenarios are the scenarios whose cells the set-up computes.
func setupScenarios() []*scenario.Scenario {
	return []*scenario.Scenario{
		familyScenario(strongFamily, "mix-strong-a", "daemon mix set-up", setupSizes, setupSeeds),
		familyScenario(strongFamily, "mix-strong-b", "daemon mix set-up", setupSizes, setupSeeds),
		familyScenario(trivialFamily, "mix-trivial-a", "daemon mix set-up", setupSizes, setupSeeds),
		familyScenario(trivialFamily, "mix-trivial-b", "daemon mix set-up", setupSizes, setupSeeds),
	}
}

// variant is a set-up scenario's cell scope on another grid: a
// non-empty subset of its sizes at 1..setupSeeds seeds.
type variant struct {
	setup int
	sizes []int
	seeds int
}

// setupVariants lists every variant of every set-up scenario in a
// fixed order, the set-up grid itself last for each.
func setupVariants(setups []*scenario.Scenario) []variant {
	var out []variant
	for s := range setups {
		for mask := 1; mask < 1<<len(setupSizes); mask++ {
			var sizes []int
			for b, size := range setupSizes {
				if mask&(1<<b) != 0 {
					sizes = append(sizes, size)
				}
			}
			for seeds := 1; seeds <= setupSeeds; seeds++ {
				out = append(out, variant{s, sizes, seeds})
			}
		}
	}
	return out
}

// isSetupGrid reports whether v is its set-up scenario's own grid.
func (v variant) isSetupGrid() bool {
	return len(v.sizes) == len(setupSizes) && v.seeds == setupSeeds
}

// scenario builds the variant under its set-up scenario's name; the
// description keeps variants of one grid distinct runs.
func (v variant) scenario(setups []*scenario.Scenario, desc string) *scenario.Scenario {
	su := setups[v.setup]
	return familyScenario(scenario.Scenario{Base: su.Base, Placement: su.Placement, Schemes: su.Schemes},
		su.Name, desc, v.sizes, v.seeds)
}

// scheduleLen is the number of requests of a pass of the given length,
// and hitsPerPass an upper bound on how many of them are hits.
func scheduleLen(seconds int) int { return int(daemonRate * float64(seconds)) }

func hitsPerPass(seconds int) int {
	blocks := (scheduleLen(seconds) + mixBlock - 1) / mixBlock
	return blocks * int(math.Round(hitShare*mixBlock))
}

// storedScenarios are the results the set-up stores for hits to read:
// count distinct variants, so that no hit of a pass resubmits a run the
// daemon already holds in memory and every hit reads the result store.
func storedScenarios(setups []*scenario.Scenario, count int) []*scenario.Scenario {
	vs := setupVariants(setups)
	out := make([]*scenario.Scenario, count)
	for i := range out {
		out[i] = vs[i%len(vs)].scenario(setups, fmt.Sprintf("daemon mix stored %d", i/len(vs)))
	}
	return out
}

// mixRequest is one scheduled submission.
type mixRequest struct {
	class string
	due   time.Duration // offset from the schedule start
	sc    *scenario.Scenario
	body  []byte
	hash  string
	cells int // grid cells the scenario covers
}

// buildSchedule derives the whole open-loop schedule from the seed:
// arrival offsets, the class sequence and every scenario body. Hits
// resubmit stored scenarios, each at most once.
func buildSchedule(seed int64, seconds int, setups, stored []*scenario.Scenario) ([]mixRequest, error) {
	r := rand.New(rand.NewSource(seed))
	n := scheduleLen(seconds)
	// Classes are dealt in blocks of mixBlock with exact counts. Cold
	// runs sit at evenly spaced slots of each block, about 670 ms apart
	// at this rate, so a cold run does not queue behind another and the
	// cold tail measures compute and store writes rather than how a
	// seed happened to bunch them; hits and replays fill the other
	// slots in seeded order.
	nCold := mixBlock - int(math.Round(hitShare*mixBlock)) - int(math.Round(replayShare*mixBlock))
	coldAt := map[int]bool{}
	for k := 0; k < nCold; k++ {
		coldAt[(2*k+1)*mixBlock/(2*nCold)] = true
	}
	var rest []string
	for i := 0; i < mixBlock-nCold; i++ {
		if i < int(math.Round(hitShare*mixBlock)) {
			rest = append(rest, classHit)
		} else {
			rest = append(rest, classReplay)
		}
	}
	classes := make([]string, 0, n+mixBlock)
	for len(classes) < n {
		r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		next := 0
		for i := 0; i < mixBlock; i++ {
			if coldAt[i] {
				classes = append(classes, classCold)
			} else {
				classes = append(classes, rest[next])
				next++
			}
		}
	}
	classes = classes[:n]

	var replays []variant
	for _, v := range setupVariants(setups) {
		if !v.isSetupGrid() {
			replays = append(replays, v)
		}
	}
	r.Shuffle(len(replays), func(i, j int) { replays[i], replays[j] = replays[j], replays[i] })
	hitOrder := r.Perm(len(stored))

	gap := float64(time.Second) / daemonRate
	reqs := make([]mixRequest, n)
	var nextHit, nextReplay, nextCold int
	for i, class := range classes {
		due := time.Duration(gap * (float64(i) + 0.5 + daemonJitter*(2*r.Float64()-1)))
		var sc *scenario.Scenario
		switch class {
		case classHit:
			if nextHit == len(stored) {
				return nil, fmt.Errorf("schedule has more hits than the %d stored scenarios", len(stored))
			}
			sc = stored[hitOrder[nextHit]]
			nextHit++
		case classReplay:
			v := replays[nextReplay%len(replays)]
			sc = v.scenario(setups, fmt.Sprintf("daemon mix replay %d", nextReplay/len(replays)))
			nextReplay++
		default:
			// Three of every four cold runs are strong-mobility ones,
			// the slowest requests: about 4% of the schedule, so the
			// p98 tail lies in the middle of their group rather than on
			// its lower edge next to the trivial-mobility runs.
			fam, sizes := strongFamily, coldStrongSizes
			if nextCold%4 == 3 {
				fam, sizes = trivialFamily, coldTrivialSizes
			}
			sc = familyScenario(fam, fmt.Sprintf("mix-cold-%d-%d", seed, nextCold), "daemon mix cold run", sizes, coldSeeds)
			nextCold++
		}
		body, err := sc.Marshal()
		if err != nil {
			return nil, err
		}
		hash, err := sc.SHA256()
		if err != nil {
			return nil, err
		}
		reqs[i] = mixRequest{class: class, due: due, sc: sc, body: body, hash: hash, cells: len(sc.Sizes) * sc.Seeds}
	}
	return reqs, nil
}

// daemonConfig is the served daemon: one executor per spare CPU (the
// load generator's connection takes the other), one engine worker per
// run, wall-clock stamps, a private metrics registry.
func daemonConfig(rc *runCtx, dirs storeDirs, reg *obs.Registry) server.Config {
	return server.Config{
		CacheDir: dirs.results, CellCacheDir: dirs.cells,
		MaxQueue: daemonMaxQueue, MaxConcurrent: executors(rc), Workers: 1,
		Clock: wallClock, Registry: reg,
	}
}

// executors is the daemon's concurrent-run limit: nproc - 1, at least 1.
func executors(rc *runCtx) int {
	if rc.nproc > 2 {
		return rc.nproc - 1
	}
	return 1
}

type storeDirs struct{ results, cells string }

// daemon is a started in-process daemon behind an httptest listener.
type daemon struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &daemon{srv: srv, ts: ts, client: &http.Client{Transport: tr}}, nil
}

func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), daemonDeadline)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

func (d *daemon) post(body []byte) (server.Status, int, error) {
	resp, err := d.client.Post(d.ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, 0, err
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.Status{}, resp.StatusCode, err
	}
	return st, resp.StatusCode, nil
}

func (d *daemon) status(id string) (server.Status, error) {
	resp, err := d.client.Get(d.ts.URL + "/runs/" + id)
	if err != nil {
		return server.Status{}, err
	}
	defer resp.Body.Close()
	var st server.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (d *daemon) report(id string) ([]byte, error) {
	resp, err := d.client.Get(d.ts.URL + "/runs/" + id + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report %s: HTTP %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCanceled
}

// fillStores runs the set-up scenarios through a daemon on empty
// stores, which computes their cells, then the stored scenarios, whose
// cells it reads back, and stops it, leaving both stores filled.
func fillStores(rc *runCtx, dirs storeDirs, setups, stored []*scenario.Scenario) error {
	d, err := startDaemon(daemonConfig(rc, dirs, obs.NewRegistry()))
	if err != nil {
		return err
	}
	defer d.stop()
	for _, sc := range setups {
		if err := runToDone(d, []*scenario.Scenario{sc}); err != nil {
			return err
		}
	}
	for i := 0; i < len(stored); i += daemonMaxQueue / 2 {
		if err := runToDone(d, stored[i:min(i+daemonMaxQueue/2, len(stored))]); err != nil {
			return err
		}
	}
	return d.stop()
}

// runToDone submits scs, no more than the daemon's queue holds, and
// waits until every run is done.
func runToDone(d *daemon, scs []*scenario.Scenario) error {
	ids := make([]string, len(scs))
	for i, sc := range scs {
		body, err := sc.Marshal()
		if err != nil {
			return err
		}
		st, code, err := d.post(body)
		if err != nil || code != http.StatusAccepted {
			return fmt.Errorf("set-up %s: HTTP %d: %v", sc.Name, code, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := d.status(id)
		for err == nil && !terminal(st.State) {
			time.Sleep(5 * time.Millisecond)
			st, err = d.status(id)
		}
		if err != nil {
			return err
		}
		if st.State != server.StateDone {
			return fmt.Errorf("set-up %s: %s: %s", scs[i].Name, st.State, st.Error)
		}
	}
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// served is what the client learned about one request.
type served struct {
	sent, done time.Time // done is zero when the request failed
	id         string
	submitted  time.Time
	started    time.Time
	failure    string
}

// passResult is one run of the schedule against a restarted daemon.
type passResult struct {
	start   time.Time
	wall    time.Duration
	reqs    []served
	reports map[string][]byte // by run id
	shed    uint64
	dedup   uint64
	cache   cellcache.Stats // cell-cache counter deltas over the pass
}

func parseStamp(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}

// runPass restarts a daemon over a fresh copy of the filled stores and
// plays the schedule open-loop from this goroutine, then waits for
// every run and fetches every report.
func runPass(rc *runCtx, base storeDirs, dir string, reqs []mixRequest) (*passResult, error) {
	dirs := storeDirs{results: filepath.Join(dir, "results"), cells: filepath.Join(dir, "cells")}
	if err := copyDir(base.results, dirs.results); err != nil {
		return nil, err
	}
	if err := copyDir(base.cells, dirs.cells); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	d, err := startDaemon(daemonConfig(rc, dirs, reg))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pr := &passResult{reqs: make([]served, len(reqs)), reports: map[string][]byte{}}
	cache0 := cellcache.ReadStats()
	pr.start = time.Now()
	for i, rq := range reqs {
		if wait := time.Until(pr.start.Add(rq.due)); wait > 0 {
			time.Sleep(wait)
		}
		s := &pr.reqs[i]
		s.sent = time.Now()
		st, code, err := d.post(rq.body)
		recv := time.Now()
		switch {
		case err != nil:
			s.failure = err.Error()
		case code != http.StatusOK && code != http.StatusAccepted:
			s.failure = fmt.Sprintf("HTTP %d: %s", code, st.Error)
		case st.State == server.StateDone && st.Cached:
			s.id, s.done = st.ID, recv
		default:
			s.id = st.ID
		}
	}
	// Completion of executed runs is their FinishedAt stamp, so the
	// polling below adds no delay to what is measured.
	deadline := time.Now().Add(daemonDeadline)
	for i := range pr.reqs {
		s := &pr.reqs[i]
		if s.failure != "" || !s.done.IsZero() {
			continue
		}
		for {
			st, err := d.status(s.id)
			if err != nil {
				s.failure = err.Error()
				break
			}
			if terminal(st.State) {
				if st.State != server.StateDone {
					s.failure = st.State + ": " + st.Error
				} else {
					s.submitted, s.started, s.done = parseStamp(st.SubmittedAt), parseStamp(st.StartedAt), parseStamp(st.FinishedAt)
				}
				break
			}
			if time.Now().After(deadline) {
				s.failure = "timed out"
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var last time.Time
	for _, s := range pr.reqs {
		if s.done.After(last) {
			last = s.done
		}
	}
	pr.wall = last.Sub(pr.start.Add(reqs[0].due))
	cache1 := cellcache.ReadStats()
	pr.cache = cellcache.Stats{Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses, Puts: cache1.Puts - cache0.Puts}
	pr.shed = reg.Counter("server_shed_total").Value()
	pr.dedup = reg.Counter("server_dedup_inflight_total").Value()
	for i, s := range pr.reqs {
		if s.failure != "" {
			continue
		}
		if _, ok := pr.reports[s.id]; ok {
			continue
		}
		rep, err := d.report(s.id)
		if err != nil {
			pr.reqs[i].failure = err.Error()
			continue
		}
		pr.reports[s.id] = rep
	}
	return pr, d.stop()
}

// referenceReports computes experiments.RunScenario, without any
// cache, for every distinct scenario of the schedule.
func referenceReports(rc *runCtx, reqs []mixRequest) (map[string][]byte, error) {
	var distinct []mixRequest
	seen := map[string]bool{}
	for _, rq := range reqs {
		if !seen[rq.hash] {
			seen[rq.hash] = true
			distinct = append(distinct, rq)
		}
	}
	out := make([][]byte, len(distinct))
	errs := make([]error, len(distinct))
	forEach(rc.nproc, len(distinct), func(i int) {
		res, err := experiments.RunScenario(context.Background(), distinct[i].sc, experiments.Options{Workers: 1})
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = []byte(res.Text())
	})
	refs := map[string][]byte{}
	for i, rq := range distinct {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference %s: %w", rq.sc.Name, errs[i])
		}
		refs[rq.hash] = out[i]
	}
	return refs, nil
}

// checkPass counts failed requests and report mismatches, and returns
// each request's latency from its due time in ms (+Inf when failed).
func checkPass(o *outcome, reqs []mixRequest, pr *passResult, refs map[string][]byte) []float64 {
	lat := make([]float64, len(reqs))
	for i, rq := range reqs {
		o.attempted++
		s := pr.reqs[i]
		lat[i] = math.Inf(1)
		switch {
		case s.failure != "":
			o.mismatch(1, "%s request %d (%s): %s", rq.class, i, rq.sc.Name, s.failure)
		case s.id != rq.hash:
			o.mismatch(1, "%s request %d: served run %s, want %s", rq.class, i, s.id, rq.hash)
		case !bytes.Equal(pr.reports[s.id], refs[rq.hash]):
			o.mismatch(1, "%s request %d (%s): served report differs from RunScenario", rq.class, i, rq.sc.Name)
		default:
			lat[i] = ms(s.done.Sub(pr.start.Add(rq.due)))
		}
	}
	return lat
}

// classLatencies splits latencies by request class.
func classLatencies(reqs []mixRequest, lat []float64) map[string][]float64 {
	out := map[string][]float64{}
	for i, rq := range reqs {
		out[rq.class] = append(out[rq.class], lat[i])
	}
	return out
}

// busyFrac is the executors' busy share of the pass: summed run
// durations over executors x wall.
func busyFrac(rc *runCtx, pr *passResult) float64 {
	var busy time.Duration
	for _, s := range pr.reqs {
		if !s.started.IsZero() {
			busy += s.done.Sub(s.started)
		}
	}
	return float64(busy) / (float64(executors(rc)) * float64(pr.wall))
}

// daemonSetup prepares the daemon-mix run: kernel tables, the filled
// stores, and setupReps timed restarts of the daemon over them.
func daemonSetup(rc *runCtx, setups, stored []*scenario.Scenario) (storeDirs, []time.Duration, error) {
	base := storeDirs{results: filepath.Join(rc.scratch, "base", "results"), cells: filepath.Join(rc.scratch, "base", "cells")}
	if err := fillKernelCaches(); err != nil {
		return base, nil, err
	}
	if err := fillStores(rc, base, setups, stored); err != nil {
		return base, nil, err
	}
	firstHash, err := setups[0].SHA256()
	if err != nil {
		return base, nil, err
	}
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := buildKernelTables(); err != nil {
			return base, nil, err
		}
		d, err := startDaemon(daemonConfig(rc, base, obs.NewRegistry()))
		if err != nil {
			return base, nil, err
		}
		// Serving one stored result completes the restart.
		if st, err := d.status(firstHash); err != nil || st.State != server.StateDone {
			return base, nil, fmt.Errorf("restarted daemon does not serve %s: %v", setups[0].Name, err)
		}
		ds = append(ds, time.Since(t0))
		if err := d.stop(); err != nil {
			return base, nil, err
		}
	}
	return base, ds, nil
}

// passSeconds is the length of one pass of the schedule: the run's
// seconds, or half of them for each of the traced run's two passes.
func passSeconds(rc *runCtx) int {
	if rc.trace {
		return (rc.seconds + 1) / 2
	}
	return rc.seconds
}

// runDaemon is the daemon-mix workload.
func runDaemon(rc *runCtx) (*outcome, error) {
	o := &outcome{}
	setups := setupScenarios()
	stored := storedScenarios(setups, hitsPerPass(passSeconds(rc)))
	base, setup, err := daemonSetup(rc, setups, stored)
	if err != nil {
		return nil, err
	}
	o.add(metric{Name: "setup_s", Value: secs(medianDuration(setup)), Unit: "s", Stat: "median", Samples: len(setup)})
	if rc.trace {
		return traceDaemon(rc, o, base, setups, stored)
	}
	reqs, err := buildSchedule(rc.seed, passSeconds(rc), setups, stored)
	if err != nil {
		return nil, err
	}
	pr, err := runPass(rc, base, filepath.Join(rc.scratch, "pass"), reqs)
	if err != nil {
		return nil, err
	}
	refs, err := referenceReports(rc, reqs)
	if err != nil {
		return nil, err
	}
	lat := checkPass(o, reqs, pr, refs)
	o.add(metric{Name: "wall_s", Value: secs(pr.wall), Unit: "s", Stat: "makespan", Samples: 1})
	latencyMetrics(o, lat, ms(daemonDeadline))
	byClass := classLatencies(reqs, lat)
	for _, class := range []string{classHit, classReplay, classCold} {
		xs := byClass[class]
		v, p := tail(xs)
		o.note("%-6s p50 %9.3f ms   p%g %9.3f ms   (%d requests)", class, median(xs), p, v, len(xs))
	}
	o.note("open loop at %.0f req/s for %ds; executors %.0f%% busy; %d shed, %d deduplicated",
		daemonRate, rc.seconds, 100*busyFrac(rc, pr), pr.shed, pr.dedup)
	return o, nil
}

// traceDaemon plays the schedule twice on restarted daemons, untraced
// then traced, checks both passes served the same reports, and drives
// the layers under the request path from this package: scenario
// parse+hash of every body, result-store and cell-cache reads and
// writes on the pass's stores, and the cold runs' instance builds and
// scheme evaluations.
func traceDaemon(rc *runCtx, o *outcome, base storeDirs, setups, stored []*scenario.Scenario) (*outcome, error) {
	reqs, err := buildSchedule(rc.seed, passSeconds(rc), setups, stored)
	if err != nil {
		return nil, err
	}
	prU, err := runPass(rc, base, filepath.Join(rc.scratch, "untraced"), reqs)
	if err != nil {
		return nil, err
	}
	passDir := filepath.Join(rc.scratch, "traced")
	prT, err := runPass(rc, base, passDir, reqs)
	if err != nil {
		return nil, err
	}
	refs, err := referenceReports(rc, reqs)
	if err != nil {
		return nil, err
	}
	latU := checkPass(o, reqs, prU, refs)
	latT := checkPass(o, reqs, prT, refs)
	for id, rep := range prT.reports {
		if want, ok := prU.reports[id]; ok && !bytes.Equal(rep, want) {
			o.mismatch(1, "traced pass served run %s differently from the untraced pass", id)
		}
	}

	tr := newTracer()
	var queue []float64
	runs := map[string][]float64{}
	var replayRun time.Duration
	var replayCells int
	var busy time.Duration
	for i, rq := range reqs {
		s := prT.reqs[i]
		if s.done.IsZero() {
			continue
		}
		due := prT.start.Add(rq.due)
		root := tr.newID()
		if s.started.IsZero() {
			tr.record(tr.newID(), "http.post", root, s.sent, s.done, 1)
			busy += s.done.Sub(s.sent)
		} else {
			tr.record(tr.newID(), "server.queue", root, s.submitted, s.started, 1)
			tr.record(tr.newID(), "server.run", root, s.started, s.done, int64(rq.cells))
			queue = append(queue, ms(s.started.Sub(s.submitted)))
			runs[rq.class] = append(runs[rq.class], ms(s.done.Sub(s.started)))
			busy += s.done.Sub(s.started)
			if rq.class == classReplay {
				replayRun += s.done.Sub(s.started)
				replayCells += rq.cells
			}
		}
		tr.record(root, "request."+rq.class, 0, due, s.done, 1)
	}
	qv, _ := tail(queue)
	o.add(metric{Name: "server.queue_wait_p50_ms", Value: median(queue), Unit: "ms", Stat: "median", Samples: len(queue)})
	o.add(metric{Name: "server.queue_wait_tail_ms", Value: qv, Unit: "ms", Stat: tailStat(queue), Samples: len(queue)})
	o.add(metric{Name: "server.run_cold_p50_ms", Value: median(runs[classCold]), Unit: "ms", Stat: "median", Samples: len(runs[classCold])})
	o.add(metric{Name: "server.run_replay_p50_ms", Value: median(runs[classReplay]), Unit: "ms", Stat: "median", Samples: len(runs[classReplay])})
	if replayCells > 0 {
		o.add(metric{Name: "engine.replay_us_per_cell", Value: us(replayRun) / float64(replayCells), Unit: "us", Stat: "mean", Samples: replayCells})
	}
	o.add(metric{Name: "cellcache.hits", Value: float64(prT.cache.Hits), Unit: "count", Stat: "count", Samples: 1})
	o.add(metric{Name: "cellcache.misses", Value: float64(prT.cache.Misses), Unit: "count", Stat: "count", Samples: 1})
	o.add(metric{Name: "cellcache.puts", Value: float64(prT.cache.Puts), Unit: "count", Stat: "count", Samples: 1})
	o.add(metric{Name: "server.shed", Value: float64(prT.shed), Unit: "count", Stat: "count", Samples: 1})
	o.add(metric{Name: "server.dedup", Value: float64(prT.dedup), Unit: "count", Stat: "count", Samples: 1})
	var late []float64
	for i, rq := range reqs {
		late = append(late, ms(prT.reqs[i].sent.Sub(prT.start.Add(rq.due))))
	}
	lv, _ := tail(late)
	o.add(metric{Name: "loadgen.late_tail_ms", Value: lv, Unit: "ms", Stat: tailStat(late), Samples: len(late)})
	o.add(metric{Name: "trace.overhead_frac", Value: median(latT)/median(latU) - 1, Unit: "ratio", Stat: "ratio of median latency", Samples: len(reqs)})
	o.add(metric{Name: "trace.residual_frac", Value: 1 - float64(busy)/(float64(executors(rc))*float64(prT.wall)), Unit: "ratio", Stat: "ratio", Samples: len(reqs)})

	if err := driveStoreLayers(rc, o, tr, reqs, passDir); err != nil {
		return nil, err
	}
	if err := driveColdCells(rc, o, tr, reqs); err != nil {
		return nil, err
	}
	o.note("untraced pass makespan %.3fs, traced %.3fs, %d requests each", secs(prU.wall), secs(prT.wall), len(reqs))
	path, err := tr.write(rc.traceDir, fmt.Sprintf("daemon-mix-seed%d.jsonl", rc.seed))
	if err != nil {
		return nil, err
	}
	o.note("spans written to %s", path)
	absentLayers(o)
	return o, nil
}

func tailStat(xs []float64) string {
	_, p := tail(xs)
	return fmt.Sprintf("p%g", p)
}

// driveStoreLayers times, from this package, the store calls the
// daemon made on the traced pass: scenario parse+hash of every body,
// a result-store read of every hit's entry, a result-store write of
// every executed run's entry and a cell-cache write of every cold
// cell's value (both into scratch stores, the values read back
// untimed from the pass's stores), and a cell-cache read of every
// replayed cell.
func driveStoreLayers(rc *runCtx, o *outcome, tr *tracer, reqs []mixRequest, passDir string) error {
	var parse, rsGet, rsPut, ccGet, ccPut []float64
	for _, rq := range reqs {
		sp := tr.begin("scenario.parse_hash", 0)
		sc, err := scenario.Parse(rq.body)
		if err == nil {
			_, err = sc.SHA256()
		}
		parse = append(parse, us(sp.end(1)))
		if err != nil {
			return err
		}
	}
	results, err := server.NewStore(filepath.Join(passDir, "results"))
	if err != nil {
		return err
	}
	scratchResults, err := server.NewStore(filepath.Join(rc.scratch, "drive-results"))
	if err != nil {
		return err
	}
	cells, err := cellcache.NewStore(filepath.Join(passDir, "cells"))
	if err != nil {
		return err
	}
	scratchCells, err := cellcache.NewStore(filepath.Join(rc.scratch, "drive-cells"))
	if err != nil {
		return err
	}
	for _, rq := range reqs {
		if rq.class == classHit {
			sp := tr.begin("resultstore.get", 0)
			_, _, err := results.Get(rq.hash)
			rsGet = append(rsGet, us(sp.end(1)))
			if err != nil {
				return fmt.Errorf("result store get %s: %w", rq.sc.Name, err)
			}
			continue
		}
		e, _, err := results.Get(rq.hash)
		if err != nil {
			return fmt.Errorf("result store get %s: %w", rq.sc.Name, err)
		}
		sp := tr.begin("resultstore.put", 0)
		err = scratchResults.Put(e)
		rsPut = append(rsPut, us(sp.end(1)))
		if err != nil {
			return err
		}
		for _, c := range scenarioCells(0, rq.sc, rq.sc.Seeds) {
			scope, err := rq.sc.CellScope(c.n)
			if err != nil {
				return err
			}
			key := cellcache.Key(scope, c.n, c.cellSeed)
			if rq.class == classReplay {
				sp := tr.begin("cellcache.get", 0)
				_, _, err := cells.Get(key)
				ccGet = append(ccGet, us(sp.end(1)))
				if err != nil {
					return fmt.Errorf("cell cache get %s n=%d seed %d: %w", rq.sc.Name, c.n, c.seed, err)
				}
				continue
			}
			e, _, err := cells.Get(key)
			if err != nil {
				return fmt.Errorf("cell cache get %s n=%d seed %d: %w", rq.sc.Name, c.n, c.seed, err)
			}
			sp := tr.begin("cellcache.put", 0)
			err = scratchCells.Put(scope, c.n, c.cellSeed, e.Value)
			ccPut = append(ccPut, us(sp.end(1)))
			if err != nil {
				return err
			}
		}
	}
	o.add(metric{Name: "scenario.parse_hash_us", Value: median(parse), Unit: "us", Stat: "median", Samples: len(parse)})
	o.add(metric{Name: "resultstore.get_us", Value: median(rsGet), Unit: "us", Stat: "median", Samples: len(rsGet)})
	o.add(metric{Name: "resultstore.put_us", Value: median(rsPut), Unit: "us", Stat: "median", Samples: len(rsPut)})
	o.add(metric{Name: "cellcache.get_us", Value: median(ccGet), Unit: "us", Stat: "median", Samples: len(ccGet)})
	o.add(metric{Name: "cellcache.put_us", Value: median(ccPut), Unit: "us", Stat: "median", Samples: len(ccPut)})
	return nil
}

// driveColdCells re-drives the cells of every cold request from this
// package: instance construction, traffic and the family's scheme.
func driveColdCells(rc *runCtx, o *outcome, tr *tracer, reqs []mixRequest) error {
	var cells []sweepCell
	for _, rq := range reqs {
		if rq.class == classCold {
			cells = append(cells, scenarioCells(0, rq.sc, rq.sc.Seeds)...)
		}
	}
	var mu sync.Mutex
	var firstErr error
	forEach(rc.nproc, len(cells), func(i int) {
		if out := traceCell(tr, cells[i]); out.Err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = out.Err
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return firstErr
	}
	addRedriveMetrics(o, tr, []string{"schemeA", "schemeC"})
	return nil
}
