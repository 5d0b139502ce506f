package routing

import (
	"fmt"
	"math"

	"hybridcap/internal/backbone"
	"hybridcap/internal/geom"
	"hybridcap/internal/linkcap"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// GroupBy selects how scheme B groups MSs with the BSs that serve them.
type GroupBy int

// Grouping modes. BySquarelet is Definition 12's constant-area
// tessellation (the uniformly dense regime); ByCluster replaces
// squarelets with clusters, the modification used in the proof of
// Theorem 7 for the weak-mobility regime.
const (
	BySquarelet GroupBy = iota + 1
	ByCluster
)

// String implements fmt.Stringer.
func (g GroupBy) String() string {
	switch g {
	case BySquarelet:
		return "squarelet"
	case ByCluster:
		return "cluster"
	default:
		return fmt.Sprintf("GroupBy(%d)", int(g))
	}
}

// SchemeB is the optimal infrastructure routing scheme of Definition 12,
// in three phases: (I) the source MS relays its traffic to all BSs in
// its group, (II) those BSs forward over the wired backbone to the BSs
// of the destination group, (III) which deliver to the destination MS.
// Theorem 5 (strong mobility) and Theorem 7 (weak mobility, with
// clusters as groups) show it sustains Theta(min(k^2 c/n, k/n)).
//
// Under an installed fault plan (network.Config.Faults) the scheme
// degrades per pair instead of failing: a pair whose source or
// destination group lost every live serving BS — or whose groups lost
// every usable backbone edge — is rerouted over the Fallback wireless
// transport and counted in Evaluation.Degraded; if the fallback cannot
// serve either, the pair is shed and counted in Evaluation.Dropped.
// Neither counter zeroes Lambda the way Failures does.
type SchemeB struct {
	// GroupBy selects squarelet (default) or cluster grouping.
	GroupBy GroupBy
	// Cells is the number of squarelet cells per side for BySquarelet;
	// zero selects the largest side (up to 4) whose every squarelet
	// holds a live BS.
	Cells int
	// AccessRT overrides the MS-BS transmission range. Zero selects the
	// S* range cT/sqrt(n) for squarelet grouping and the subnet-optimal
	// r*sqrt(m/n) of Table I for cluster grouping.
	AccessRT float64
	// CT is the constant in the default S* range.
	CT float64
	// Fallback serves fault-degraded pairs; nil selects SchemeA (the
	// paper's BS-free multihop transport). It must not be a scheme that
	// itself requires infrastructure.
	Fallback Scheme
}

// Name implements Scheme.
func (s SchemeB) Name() string { return "schemeB" }

// Evaluate implements Scheme.
func (s SchemeB) Evaluate(nw *network.Network, tr *traffic.Pattern) (*Evaluation, error) {
	g, bb, err := s.prepare(nw, tr)
	if err != nil {
		return nil, err
	}
	plan := nw.Faults()
	ev := &Evaluation{Detail: map[string]float64{}}

	// Classify pairs: infrastructure-routable pairs load their groups'
	// air interfaces and the backbone; the rest degrade to the fallback
	// when a fault plan is installed, or count as legacy failures on a
	// healthy network (finite-size artifact: a group without BSs).
	//
	// Every live BS sits in exactly one group, so the wired edges
	// between groups A and B are loaded by A->B and B->A pairs only,
	// each adding the same share 1/|E_AB|. Count the routable pairs per
	// unordered group pair here and load each pair's compiled edges once
	// below: every edge still takes its share m_AB times in sequence,
	// bit-identical to one unit flow per MS pair.
	type groupLoad struct {
		flow  *backbone.GroupFlow
		pairs int
	}
	loads := make(map[cellEdge]*groupLoad)
	var order []*groupLoad
	loadOf := func(gs, gd int) *groupLoad {
		key := cellEdge{from: min(gs, gd), to: max(gs, gd)}
		l, ok := loads[key]
		if !ok {
			l = &groupLoad{flow: bb.CompileGroupFlow(g.bs[key.from], g.bs[key.to])}
			loads[key] = l
			order = append(order, l)
		}
		return l
	}
	infraLoad := make([]float64, len(g.ms))
	degraded := 0
	for src, dst := range tr.DestOf {
		gs, gd := g.of[src], g.of[dst]
		ok := g.usable(gs) && g.usable(gd)
		var load *groupLoad
		if ok && gs != gd {
			load = loadOf(gs, gd)
			ok = load.flow.Routable()
		}
		switch {
		case ok:
			infraLoad[gs]++
			infraLoad[gd]++
			if load != nil {
				load.pairs++
			}
		case plan != nil:
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
	for _, l := range order {
		if l.pairs == 0 {
			continue
		}
		if err := l.flow.AddN(1, l.pairs); err != nil {
			return nil, fmt.Errorf("routing: backbone flow: %w", err)
		}
	}
	return s.settle(nw, tr, g, ev, infraLoad, bb.SustainableScale(), degraded)
}

// schemeBGroups is scheme B's grouping of one instance: the MS and
// live-BS members of every group, the group of every MS, each group's
// air-interface service rate (phases I and III) and the access range
// behind it.
type schemeBGroups struct {
	ms, bs  [][]int
	of      []int
	service []float64
	rt      float64
}

// usable reports whether group i has live air-interface service.
func (g *schemeBGroups) usable(i int) bool { return g.service[i] > 0 }

// prepare groups the instance and builds the wired backbone with its
// surviving edge capacities (phase II), unloaded.
func (s SchemeB) prepare(nw *network.Network, tr *traffic.Pattern) (*schemeBGroups, *backbone.Backbone, error) {
	if err := validate(nw, tr); err != nil {
		return nil, nil, err
	}
	if nw.NumBS() == 0 {
		return nil, nil, fmt.Errorf("routing: scheme B requires base stations")
	}
	groupBy := s.GroupBy
	if groupBy == 0 {
		groupBy = BySquarelet
	}

	g := &schemeBGroups{}
	switch groupBy {
	case BySquarelet:
		cells := s.Cells
		if cells <= 0 {
			cells = defaultSquareletSide(nw)
		}
		grid := geom.NewGridCells(cells)
		g.ms = cellMembersOf(grid, nw.HomePoints())
		g.bs = make([][]int, grid.NumCells())
		livePos, liveIDs := nw.LiveBSPositions()
		for i, y := range livePos {
			c := grid.CellIndexOf(y)
			g.bs[c] = append(g.bs[c], liveIDs[i])
		}
		g.of = make([]int, nw.NumMS())
		for i, h := range nw.HomePoints() {
			g.of[i] = grid.CellIndexOf(h)
		}
	case ByCluster:
		g.ms = nw.MSClusterMembers()
		g.bs = nw.BSClusterMembers() // live BSs only
		g.of = make([]int, nw.NumMS())
		copy(g.of, nw.Placement.ClusterOf)
	default:
		return nil, nil, fmt.Errorf("routing: unknown grouping %v", groupBy)
	}

	a, err := linkcap.NewAnalytic(nw, s.CT)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: scheme B: %w", err)
	}
	g.rt = s.AccessRT
	if g.rt <= 0 {
		g.rt = defaultAccessRT(nw, groupBy, a)
	}

	bb, err := backbone.New(nw.NumBS(), nw.Cfg.Params.BandwidthC())
	if err != nil {
		return nil, nil, fmt.Errorf("routing: %w", err)
	}
	if plan := nw.Faults(); plan != nil || nw.BSAlive != nil {
		if err := bb.ApplyFaults(plan, nw.BSAlive); err != nil {
			return nil, nil, fmt.Errorf("routing: %w", err)
		}
	}

	// Per-group air-interface service (phases I & III): the group's
	// service rate is the summed, per-BS-capped MS-BS capacity over its
	// live BSs (Lemma 9 machinery with the Lemma 8 cap).
	rnd := rng.New(0xB).Derive("schemeB").Rand()
	endpoints := make([]float64, len(g.ms))
	for src, dst := range tr.DestOf {
		endpoints[g.of[src]]++
		endpoints[g.of[dst]]++
	}
	g.service = make([]float64, len(g.ms))
	for i := range g.ms {
		if endpoints[i] == 0 {
			continue
		}
		for _, b := range g.bs[i] {
			g.service[i] += groupCapMSBS(a, nw.HomePoints(), g.ms[i], nw.BSPos[b], g.rt, rnd)
		}
	}
	return g, bb, nil
}

// settle turns the classified loads into the scheme's rate: the
// slowest of the groups' air interfaces and the loaded backbone, then,
// under a fault plan, the fallback transport for the degraded pairs.
func (s SchemeB) settle(nw *network.Network, tr *traffic.Pattern, g *schemeBGroups, ev *Evaluation, infraLoad []float64, lambdaBackbone float64, degraded int) (*Evaluation, error) {
	plan := nw.Faults()
	lambdaAccess := math.Inf(1)
	for i := range g.ms {
		if infraLoad[i] == 0 {
			continue
		}
		if r := g.service[i] / infraLoad[i]; r < lambdaAccess {
			lambdaAccess = r
		}
	}

	ev.Detail["lambdaAccess"] = lambdaAccess
	ev.Detail["lambdaBackbone"] = lambdaBackbone
	ev.Detail["groups"] = float64(len(g.ms))
	ev.Detail["accessRT"] = g.rt
	ev.Detail["liveBS"] = float64(nw.NumLiveBS())

	ev.Lambda = lambdaAccess
	ev.Bottleneck = "access"
	if lambdaBackbone < ev.Lambda {
		ev.Lambda = lambdaBackbone
		ev.Bottleneck = "backbone"
	}

	// Degraded pairs ride the fallback wireless transport. Its rate is
	// evaluated on the full permutation (wireless transport sustains the
	// same order on any sub-pattern); the slowest transport in use
	// bounds the uniform per-pair rate.
	if plan != nil {
		fb := s.Fallback
		if fb == nil {
			fb = SchemeA{}
		}
		lambdaFallback := 0.0
		if fev, ferr := fb.Evaluate(nw, tr); ferr == nil && fev.Lambda > 0 {
			lambdaFallback = fev.Lambda
		}
		ev.Detail["lambdaFallback"] = lambdaFallback
		if degraded > 0 {
			if lambdaFallback > 0 {
				ev.Degraded = degraded
				if lambdaFallback < ev.Lambda {
					ev.Lambda = lambdaFallback
					ev.Bottleneck = "fallback"
				}
			} else {
				// Not even the fallback transport can serve these pairs:
				// shed them, keep serving the infrastructure-routable rest.
				ev.Dropped = degraded
			}
		}
		// The scheme may also abandon the crippled infrastructure
		// entirely: if routing every pair over the fallback beats the
		// mixed plan, it does, so the rate never falls below the pure
		// ad hoc floor while a working fallback exists.
		if lambdaFallback > 0 && lambdaFallback > ev.Lambda {
			ev.Lambda = lambdaFallback
			ev.Bottleneck = "fallback"
			ev.Degraded = len(tr.DestOf)
			ev.Dropped = 0
		}
	}

	if math.IsInf(ev.Lambda, 1) {
		if ev.Failures == 0 && ev.Dropped == 0 {
			return nil, fmt.Errorf("routing: scheme B found no loaded groups")
		}
		// Every pair failed or was dropped; nothing is served.
		ev.Lambda = 0
		if ev.Dropped > 0 {
			ev.Bottleneck = "dropped"
		}
	}
	return finish(ev), nil
}

// defaultSquareletSide picks the largest constant tessellation (up to
// 4x4, Definition 12 only requires constant element area) whose every
// squarelet contains at least one live BS. At the asymptotic scale every
// choice works w.h.p. (k = omega(1) BSs per constant-area squarelet);
// at finite n a too-fine grid leaves squarelets BS-less.
func defaultSquareletSide(nw *network.Network) int {
	livePos, _ := nw.LiveBSPositions()
	for side := 4; side >= 2; side-- {
		g := geom.NewGridCells(side)
		//lint:ignore hotalloc grid probe runs once per evaluation over at most three candidate tessellations, outside the slot loop
		counts := make([]int, g.NumCells())
		for _, y := range livePos {
			counts[g.CellIndexOf(y)]++
		}
		ok := true
		for _, c := range counts {
			if c == 0 {
				ok = false
				break
			}
		}
		if ok {
			return side
		}
	}
	return 1
}

// defaultAccessRT picks the Table-I optimal access transmission range
// for the grouping mode.
func defaultAccessRT(nw *network.Network, groupBy GroupBy, a *linkcap.Analytic) float64 {
	if groupBy == ByCluster {
		p := nw.Cfg.Params
		m := float64(p.NumClusters())
		n := float64(p.N)
		return p.ClusterRadius() * math.Sqrt(m/n)
	}
	return a.RT()
}
