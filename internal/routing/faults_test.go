package routing

import (
	"fmt"
	"testing"

	"hybridcap/internal/faults"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/scaling"
	"hybridcap/internal/traffic"
)

func infraDominantParams(n int) scaling.Params {
	// K > 1 - Alpha: the hybrid rate k/n dominates the ad hoc 1/f, so
	// outages have visible room to degrade before hitting the floor.
	return scaling.Params{N: n, Alpha: 0.4, K: 0.8, Phi: 1, M: 1}
}

func faultedInstance(t *testing.T, p scaling.Params, seed uint64, fc faults.Config) (*network.Network, *traffic.Pattern) {
	t.Helper()
	plan, err := faults.New(fc)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := network.New(network.Config{Params: p, Seed: seed, BSPlacement: network.Grid, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.NewPermutation(p.N, rng.New(seed).Derive("traffic").Rand())
	if err != nil {
		t.Fatal(err)
	}
	return nw, tr
}

// Capacity must be non-increasing in the BS outage fraction: the nested
// outage sets only ever remove BSs, and the scheme can always fall back
// to the BS-free transport.
func TestSchemeBOutageMonotone(t *testing.T) {
	p := infraDominantParams(1024)
	scheme := SchemeB{Fallback: SchemeA{}}
	prev := 0.0
	for i, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		nw, tr := faultedInstance(t, p, 21, faults.Config{Seed: 4, BSOutageFraction: q})
		ev, err := scheme.Evaluate(nw, tr)
		if err != nil {
			t.Fatalf("outage %.2f: %v", q, err)
		}
		if ev.Lambda <= 0 {
			t.Fatalf("outage %.2f: lambda = %v, want positive (graceful degradation)", q, ev.Lambda)
		}
		if i > 0 && ev.Lambda > prev*(1+1e-9) {
			t.Errorf("lambda increased with outage: %.6g -> %.6g at q=%.2f", prev, ev.Lambda, q)
		}
		prev = ev.Lambda
	}
}

// At outage fraction zero an installed (but empty) plan must not change
// the healthy scheme-B evaluation.
func TestSchemeBEmptyPlanMatchesHealthy(t *testing.T) {
	p := infraDominantParams(1024)
	nwF, trF := faultedInstance(t, p, 22, faults.Config{Seed: 4})
	nwH, err := network.New(network.Config{Params: p, Seed: 22, BSPlacement: network.Grid})
	if err != nil {
		t.Fatal(err)
	}
	evF, err := (SchemeB{Fallback: SchemeA{}}).Evaluate(nwF, trF)
	if err != nil {
		t.Fatal(err)
	}
	evH, err := (SchemeB{}).Evaluate(nwH, trF)
	if err != nil {
		t.Fatal(err)
	}
	if evF.Lambda != evH.Lambda {
		t.Errorf("empty plan changed lambda: %v vs %v", evF.Lambda, evH.Lambda)
	}
	if evF.Degraded != 0 || evF.Dropped != 0 {
		t.Errorf("empty plan degraded=%d dropped=%d, want 0/0", evF.Degraded, evF.Dropped)
	}
}

// Total outage: every pair degrades onto the fallback and the rate is
// exactly the fallback's, with no hard error.
func TestSchemeBTotalOutageFallsBack(t *testing.T) {
	p := infraDominantParams(1024)
	nw, tr := faultedInstance(t, p, 23, faults.Config{Seed: 4, BSOutageFraction: 1})
	ev, err := (SchemeB{Fallback: SchemeA{}}).Evaluate(nw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Degraded != len(tr.DestOf) {
		t.Errorf("Degraded = %d, want all %d pairs", ev.Degraded, len(tr.DestOf))
	}
	if ev.Bottleneck != "fallback" {
		t.Errorf("Bottleneck = %q, want fallback", ev.Bottleneck)
	}
	evA, err := (SchemeA{}).Evaluate(nw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Lambda != evA.Lambda {
		t.Errorf("total-outage lambda %v != schemeA lambda %v", ev.Lambda, evA.Lambda)
	}
}

type brokenScheme struct{}

func (brokenScheme) Name() string { return "broken" }
func (brokenScheme) Evaluate(*network.Network, *traffic.Pattern) (*Evaluation, error) {
	return nil, fmt.Errorf("broken transport")
}

// When the fallback itself cannot serve, degraded pairs become dropped
// and the evaluation still returns without a hard error.
func TestSchemeBDropsWithoutFallback(t *testing.T) {
	p := infraDominantParams(1024)
	nw, tr := faultedInstance(t, p, 24, faults.Config{Seed: 4, BSOutageFraction: 1})
	ev, err := (SchemeB{Fallback: brokenScheme{}}).Evaluate(nw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Dropped != len(tr.DestOf) {
		t.Errorf("Dropped = %d, want all %d pairs", ev.Dropped, len(tr.DestOf))
	}
	if ev.Degraded != 0 {
		t.Errorf("Degraded = %d, want 0", ev.Degraded)
	}
	if ev.Lambda != 0 || ev.Bottleneck != "dropped" {
		t.Errorf("lambda=%v bottleneck=%q, want 0/dropped", ev.Lambda, ev.Bottleneck)
	}
}

// Scheme C under a partial outage serves every cell from a live BS and
// reroutes around dead backbone edges without erroring.
func TestSchemeCUnderFaults(t *testing.T) {
	p := scaling.Params{N: 1024, Alpha: 0, K: 0.7, Phi: 1, M: 1}
	nw, tr := faultedInstance(t, p, 25, faults.Config{Seed: 6, BSOutageFraction: 0.5, EdgeOutageFraction: 0.5})
	ev, err := (SchemeC{Delta: -1}).Evaluate(nw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Lambda <= 0 {
		t.Errorf("lambda = %v, want positive", ev.Lambda)
	}
	if ev.Failures != 0 {
		t.Errorf("Failures = %d under fault plan, want 0 (degrade, not fail)", ev.Failures)
	}
}

// Scheme C with every BS dead serves everything over its fallback.
func TestSchemeCTotalOutage(t *testing.T) {
	p := scaling.Params{N: 1024, Alpha: 0, K: 0.7, Phi: 1, M: 1}
	nw, tr := faultedInstance(t, p, 26, faults.Config{Seed: 6, BSOutageFraction: 1})
	ev, err := (SchemeC{Delta: -1}).Evaluate(nw, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.Degraded + ev.Dropped; got != len(tr.DestOf) {
		t.Errorf("degraded+dropped = %d, want all %d pairs", got, len(tr.DestOf))
	}
}

// RemoveBS on a network with a fault plan renumbers the surviving BSs;
// scheme B must still build its backbone over them.
func TestSchemeBAfterRemoveBSWithPlan(t *testing.T) {
	nw, tr := faultedInstance(t, infraDominantParams(1024), 3, faults.Config{Seed: 2, BSOutageFraction: 0.2})
	if err := nw.RemoveBS(0.5, 1); err != nil {
		t.Fatal(err)
	}
	ev, err := SchemeB{}.Evaluate(nw, tr)
	if err != nil {
		t.Fatalf("scheme B after RemoveBS: %v", err)
	}
	if ev.Lambda <= 0 {
		t.Errorf("lambda = %v, want positive", ev.Lambda)
	}
}
