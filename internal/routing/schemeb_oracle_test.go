package routing

import (
	"errors"
	"math"
	"testing"

	"hybridcap/internal/backbone"
	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

// schemeBPerPair is the reference for SchemeB.Evaluate's backbone
// loading: the same grouping and settlement, but one AddGroupFlow of
// unit rate per MS pair, in pair order, as phase II reads literally.
func schemeBPerPair(s SchemeB, nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	g, bb, err := s.prepare(nw, tr)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{Detail: map[string]float64{}}
	infraLoad := make([]float64, len(g.ms))
	degraded := 0
	for src, dst := range tr.DestOf {
		gs, gd := g.of[src], g.of[dst]
		ok := g.usable(gs) && g.usable(gd)
		if ok && gs != gd {
			if err := bb.AddGroupFlow(g.bs[gs], g.bs[gd], 1); err != nil {
				if !errors.Is(err, backbone.ErrNoRoute) {
					return nil, err
				}
				ok = false
			}
		}
		switch {
		case ok:
			infraLoad[gs]++
			infraLoad[gd]++
		case nw.Faults() != nil:
			degraded++
		default:
			if !g.usable(gs) {
				ev.Failures++
			}
			if !g.usable(gd) {
				ev.Failures++
			}
		}
	}
	return s.settle(nw, tr, g, ev, infraLoad, bb.SustainableScale(), degraded)
}

// TestSchemeBMatchesPerPairLoading pins scheme B's grouped backbone
// loading to the per-pair reference bit for bit, for squarelet and
// cluster grouping, healthy and under BS outages with failed and
// derated edges. It also checks the property the grouped loading rests
// on: every live BS is in exactly one group and no dead BS is in any.
// A negative Phi makes the backbone bind below the air interfaces in
// every case, so the infrastructure rate is set by the loaded edges.
func TestSchemeBMatchesPerPairLoading(t *testing.T) {
	strong := scaling.Params{N: 2048, Alpha: 0.3, K: 0.8, Phi: -0.5, M: 1}
	weak := scaling.Params{N: 2048, Alpha: 0.45, K: 0.7, Phi: -0.5, M: 0.4, R: 0.25}
	faulty := &faults.Config{Seed: 5, BSOutageFraction: 0.2, EdgeOutageFraction: 0.15, EdgeDerating: 0.6}
	cases := []struct {
		name      string
		p         scaling.Params
		placement network.BSPlacement
		scheme    SchemeB
		faults    *faults.Config
	}{
		{"squarelet", strong, network.Grid, SchemeB{}, nil},
		{"squarelet-faulted", strong, network.Grid, SchemeB{}, faulty},
		{"cluster", weak, network.Matched, SchemeB{GroupBy: ByCluster}, nil},
		{"cluster-faulted", weak, network.Matched, SchemeB{GroupBy: ByCluster}, faulty},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := network.Config{Params: c.p, Seed: 17, BSPlacement: c.placement}
			if c.faults != nil {
				plan, err := faults.New(*c.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = plan
			}
			nw, err := network.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := traffic.NewPermutation(c.p.N, rng.New(17).Derive("traffic").Rand())
			if err != nil {
				t.Fatal(err)
			}

			g, _, err := c.scheme.prepare(nw, tr)
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]int, nw.NumBS())
			for _, members := range g.bs {
				for _, b := range members {
					seen[b]++
				}
			}
			for b, n := range seen {
				want := 0
				if nw.BSIsLive(b) {
					want = 1
				}
				if n != want {
					t.Fatalf("BS %d (live %v) is in %d groups, want %d", b, nw.BSIsLive(b), n, want)
				}
			}

			got, err := c.scheme.Evaluate(nw, tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := schemeBPerPair(c.scheme, nw, tr)
			if err != nil {
				t.Fatal(err)
			}
			same := func(what string, a, b float64) {
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s = %v, per-pair reference %v", what, a, b)
				}
			}
			same("Lambda", got.Lambda, want.Lambda)
			same("lambdaBackbone", got.Detail["lambdaBackbone"], want.Detail["lambdaBackbone"])
			if got.Bottleneck != want.Bottleneck {
				t.Errorf("Bottleneck = %q, per-pair reference %q", got.Bottleneck, want.Bottleneck)
			}
			if got.Degraded != want.Degraded || got.Dropped != want.Dropped || got.Failures != want.Failures {
				t.Errorf("degraded/dropped/failures = %d/%d/%d, per-pair reference %d/%d/%d",
					got.Degraded, got.Dropped, got.Failures, want.Degraded, want.Dropped, want.Failures)
			}
			if math.IsInf(got.Detail["lambdaBackbone"], 1) {
				t.Errorf("backbone carried no load (detail %v)", got.Detail)
			}
			if got.Detail["lambdaBackbone"] >= got.Detail["lambdaAccess"] {
				t.Errorf("backbone rate %v does not bind below access rate %v", got.Detail["lambdaBackbone"], got.Detail["lambdaAccess"])
			}
		})
	}
}
