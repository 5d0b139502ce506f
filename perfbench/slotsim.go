package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hybridcap/internal/geom"
	"hybridcap/internal/interference"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/scheduler"
	"hybridcap/internal/sim"
	"hybridcap/internal/spatial"
	"hybridcap/internal/traffic"
)

// E11's instance: n=512 mobile nodes under strong mobility, seed 41,
// injection rate 0.002 packets/node/slot; the infrastructure run adds
// k = n^0.8 grid-placed BSs.
const (
	slotsimN      = 512
	slotsimSeed   = 41
	slotsimLambda = 0.002
)

// slotsimPass is the nominal duration of one pass (the three simulators
// at the reference slot count) on a 2-CPU host.
const slotsimPass = 1400 * time.Millisecond

// slotsimInstances are fresh copies of E11's three networks and its
// traffic; the simulators advance the networks' mobility, so every run
// needs its own.
type slotsimInstances struct {
	twoHop, multihop, infra *network.Network
	tr                      *traffic.Pattern
}

func newSlotsimInstances() (*slotsimInstances, error) {
	p := scaling.Params{N: slotsimN, Alpha: 0.15, K: -1, M: 1}
	pBS := p
	pBS.K, pBS.Phi = 0.8, 1
	in := &slotsimInstances{}
	var err error
	if in.twoHop, err = network.New(network.Config{Params: p, Seed: slotsimSeed}); err != nil {
		return nil, err
	}
	if in.multihop, err = network.New(network.Config{Params: p, Seed: slotsimSeed}); err != nil {
		return nil, err
	}
	if in.infra, err = network.New(network.Config{Params: pBS, Seed: slotsimSeed, BSPlacement: network.Grid}); err != nil {
		return nil, err
	}
	in.tr, err = traffic.NewPermutation(slotsimN, rng.New(slotsimSeed).Derive("traffic").Rand())
	return in, err
}

// simResult is one simulator run.
type simResult struct {
	name                string
	dur                 time.Duration
	injected, delivered int
	meanDelay           float64
}

// runSims runs the three simulators one after another on fresh
// instances; tr, if set, gets a span per simulator call.
func runSims(slots int, tr *tracer) ([]simResult, error) {
	in, err := newSlotsimInstances()
	if err != nil {
		return nil, err
	}
	type simFn func() (injected, delivered int, meanDelay float64, err error)
	sims := []struct {
		name string
		run  simFn
	}{
		{"twohop", func() (int, int, float64, error) {
			r, err := sim.RunTwoHop(in.twoHop, in.tr, sim.PacketConfig{Lambda: slotsimLambda, Slots: slots, Seed: slotsimSeed})
			if err != nil {
				return 0, 0, 0, err
			}
			return r.Injected, r.Delivered, r.MeanDelay, nil
		}},
		{"multihop", func() (int, int, float64, error) {
			r, err := sim.RunMultihop(in.multihop, in.tr, sim.MultihopConfig{Lambda: slotsimLambda, Slots: slots, Seed: slotsimSeed})
			if err != nil {
				return 0, 0, 0, err
			}
			return r.Injected, r.Delivered, r.MeanDelay, nil
		}},
		{"infra", func() (int, int, float64, error) {
			r, err := sim.RunInfrastructure(in.infra, in.tr, sim.InfraConfig{Lambda: slotsimLambda, Slots: slots, Seed: slotsimSeed})
			if err != nil {
				return 0, 0, 0, err
			}
			return r.Injected, r.Delivered, r.MeanDelay, nil
		}},
	}
	out := make([]simResult, 0, len(sims))
	for _, s := range sims {
		var sp *open
		if tr != nil {
			sp = tr.begin("sim."+s.name, 0)
		}
		t0 := time.Now()
		inj, del, delay, err := s.run()
		d := time.Since(t0)
		if sp != nil {
			sp.end(int64(slots))
		}
		if err != nil {
			return nil, fmt.Errorf("sim %s: %w", s.name, err)
		}
		out = append(out, simResult{name: s.name, dur: d, injected: inj, delivered: del, meanDelay: delay})
	}
	return out, nil
}

// checkSims compares a pass with the reference, one operation per
// simulator run.
func checkSims(o *outcome, ref slotsimRef, got []simResult) {
	for i, want := range ref.Runs {
		o.attempted++
		if i >= len(got) || got[i].name != want.Sim {
			o.mismatch(1, "simulator %d missing, reference %s", i, want.Sim)
			continue
		}
		want.check(o, got[i].injected, got[i].delivered, got[i].meanDelay)
	}
}

// runSlotsim is the slotsim workload: E11's three packet simulators on
// one thread, repeated.
func runSlotsim(rc *runCtx) (*outcome, error) {
	o := &outcome{}
	var setup []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := buildKernelTables(); err != nil {
			return nil, err
		}
		if _, err := newSlotsimInstances(); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0))
	}
	if err := fillKernelCaches(); err != nil {
		return nil, err
	}
	o.add(metric{Name: "setup_s", Value: secs(medianDuration(setup)), Unit: "s", Stat: "median", Samples: len(setup)})
	slots := rc.refs.Slotsim.Slots
	if rc.trace {
		return traceSlotsim(rc, o, slots, setup)
	}
	passes := passCount(rc.seconds, slotsimPass)
	var walls []time.Duration
	var lat []float64
	for p := 0; p < passes; p++ {
		runtime.GC()
		t0 := time.Now()
		res, err := runSims(slots, nil)
		walls = append(walls, time.Since(t0))
		if err != nil {
			o.attempted += len(rc.refs.Slotsim.Runs)
			o.mismatch(len(rc.refs.Slotsim.Runs), "pass %d: %v", p, err)
			continue
		}
		checkSims(o, rc.refs.Slotsim, res)
		for _, r := range res {
			lat = append(lat, ms(r.dur))
		}
	}
	o.add(metric{Name: "wall_s", Value: secs(medianDuration(walls)), Unit: "s", Stat: "median", Samples: len(walls)})
	latencyMetrics(o, lat, 1e7)
	o.note("ops are simulator runs of %d slots (two-hop, multihop, infrastructure)", slots)
	return o, nil
}

// traceReps is how many untraced/traced pass pairs a traced slotsim
// run makes; its per-layer numbers are medians over them.
const traceReps = 5

// traceSlotsim makes traceReps rounds of: one untraced pass, one
// traced pass (a span per simulator call), and a drive of the two-hop
// run's per-slot layers on a fresh copy of its instance for the same
// slot count: mobility step, position snapshot plus spatial index
// rebuild, and the S* schedule. It reports medians over the rounds.
func traceSlotsim(rc *runCtx, o *outcome, slots int, setup []time.Duration) (*outcome, error) {
	o.add(metric{Name: "mobility.cache_build_s", Value: secs(medianDuration(setup)), Unit: "s", Stat: "median", Samples: len(setup)})
	tr := newTracer()
	var wallU, wallT, step, rebuild, sstar, residual []time.Duration
	var residualFrac []float64
	perSim := map[string][]time.Duration{}
	var pairs int64
	var delivered int
	var allocs float64
	for r := 0; r < traceReps; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		untraced, err := runSims(slots, nil)
		wallU = append(wallU, time.Since(t0))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		checkSims(o, rc.refs.Slotsim, untraced)
		if r == 0 {
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(slots*len(untraced))
		}

		runtime.GC()
		t0 = time.Now()
		traced, err := runSims(slots, tr)
		wall := time.Since(t0)
		wallT = append(wallT, wall)
		if err != nil {
			return nil, err
		}
		checkSims(o, rc.refs.Slotsim, traced)
		var inSims time.Duration
		delivered = 0
		for i, res := range traced {
			u := untraced[i]
			if res.injected != u.injected || res.delivered != u.delivered || res.meanDelay != u.meanDelay {
				o.mismatch(1, "traced %s run differs from the untraced one", res.name)
			}
			delivered += res.delivered
			inSims += res.dur
			perSim[res.name] = append(perSim[res.name], res.dur)
		}
		residualFrac = append(residualFrac, 1-float64(inSims)/float64(wall))

		in, err := newSlotsimInstances()
		if err != nil {
			return nil, err
		}
		st, rb, ss, np := driveSlotLayers(tr, in.twoHop, slots)
		step, rebuild, sstar = append(step, st), append(rebuild, rb), append(sstar, ss)
		residual = append(residual, perSim["twohop"][r]-st-rb-ss)
		pairs = np
	}
	for _, name := range []string{"twohop", "multihop", "infra"} {
		o.add(metric{Name: "sim." + name + "_s", Value: secs(medianDuration(perSim[name])), Unit: "s", Stat: "median", Samples: len(perSim[name])})
	}
	perSlot := func(ds []time.Duration) float64 { return us(medianDuration(ds)) / float64(slots) }
	o.add(metric{Name: "sim.allocs_per_slot", Value: allocs, Unit: "count", Stat: "mean", Samples: 3 * slots})
	o.add(metric{Name: "sim.delivered_pkts", Value: float64(delivered), Unit: "count", Stat: "sum", Samples: 3})
	o.add(metric{Name: "mobility.step_us_per_slot", Value: perSlot(step), Unit: "us", Stat: "median", Samples: len(step)})
	o.add(metric{Name: "spatial.rebuild_us_per_slot", Value: perSlot(rebuild), Unit: "us", Stat: "median", Samples: len(rebuild)})
	o.add(metric{Name: "scheduler.sstar_us_per_slot", Value: perSlot(sstar), Unit: "us", Stat: "median", Samples: len(sstar)})
	o.add(metric{Name: "scheduler.pairs_per_slot", Value: float64(pairs) / float64(slots), Unit: "count", Stat: "mean", Samples: slots})
	o.add(metric{Name: "sim.residual_us_per_slot", Value: perSlot(residual), Unit: "us", Stat: "median", Samples: len(residual)})
	o.add(metric{Name: "trace.overhead_frac", Value: float64(medianDuration(wallT))/float64(medianDuration(wallU)) - 1, Unit: "ratio", Stat: "ratio of medians", Samples: traceReps})
	o.add(metric{Name: "trace.residual_frac", Value: median(residualFrac), Unit: "ratio", Stat: "median", Samples: traceReps})
	o.note("pass medians: untraced %.3fs, traced %.3fs; sim.residual = two-hop run minus its driven step/rebuild/S* layers",
		secs(medianDuration(wallU)), secs(medianDuration(wallT)))
	path, err := tr.write(rc.traceDir, fmt.Sprintf("slotsim-seed%d.jsonl", rc.seed))
	if err != nil {
		return nil, err
	}
	o.note("spans written to %s", path)
	absentLayers(o)
	return o, nil
}

// driveSlotLayers replays the two-hop simulator's per-slot mobility
// and scheduling calls on nw for slots slots, with a span per call, and
// returns the time in each layer and the number of scheduled pairs.
func driveSlotLayers(tr *tracer, nw *network.Network, slots int) (step, rebuild, sstar time.Duration, pairs int64) {
	model := interference.NewModel(sim.DefaultSimCT/math.Sqrt(float64(nw.NumMS())), 0)
	pos := make([]geom.Point, 0, nw.NumMS())
	var ix *spatial.Index
	var buf []interference.Transmission
	for slot := 0; slot < slots; slot++ {
		sp := tr.begin("mobility.step", 0)
		nw.Step()
		step += sp.end(1)
		sp = tr.begin("spatial.rebuild", 0)
		pos = nw.MSPositions(pos)
		if ix == nil {
			ix = spatial.New(pos, model.GuardRadius())
		} else {
			ix.Rebuild(pos)
		}
		rebuild += sp.end(1)
		sp = tr.begin("scheduler.sstar", 0)
		buf = scheduler.SStarPairsInto(model, ix, buf)
		sstar += sp.end(int64(len(buf)))
		pairs += int64(len(buf))
	}
	return step, rebuild, sstar, pairs
}
