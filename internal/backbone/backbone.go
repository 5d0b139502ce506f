// Package backbone models the wired infrastructure of Section II.B: all
// k base stations are connected pairwise with bandwidth c(n) and wired
// transmissions cause no wireless interference. The package tracks
// per-edge load induced by a routing scheme (phase II of scheme B) and
// reports the largest sustainable rate before some edge overloads —
// the feasibility condition used in the proofs of Theorems 5 and 7.
//
// A backbone may additionally carry a fault plan: failed edges (or
// edges incident to a dead BS) have zero capacity and reject load,
// surviving edges may be derated, and group flows spread only over the
// surviving edges — degrading toward ErrNoRoute when two groups lose
// their last usable edge.
package backbone

import (
	"errors"
	"fmt"
	"math"

	"hybridcap/internal/faults"
)

// ErrNoRoute is reported when no usable wired edge connects two BS
// groups; callers degrade the affected traffic to wireless transport
// instead of treating the whole evaluation as failed.
var ErrNoRoute = errors.New("backbone: no usable edges between groups")

// Backbone is a complete wired graph over k BSs with uniform edge
// capacity C, accumulating symmetric per-edge loads. Fault plans turn
// it into a partial graph with per-edge capacity factors.
type Backbone struct {
	k    int
	c    float64
	load []float64 // upper-triangular packed: edge (i,j), i<j
	// factor holds per-edge capacity multipliers (0 = edge down); nil
	// means every edge is healthy at factor 1.
	factor []float64
}

// New builds a backbone over k BSs with per-edge capacity c.
func New(k int, c float64) (*Backbone, error) {
	if k < 0 {
		return nil, fmt.Errorf("backbone: negative k %d", k)
	}
	if c <= 0 || math.IsNaN(c) {
		return nil, fmt.Errorf("backbone: edge capacity must be positive, got %g", c)
	}
	return &Backbone{k: k, c: c, load: make([]float64, k*(k-1)/2)}, nil
}

// K returns the number of base stations.
func (b *Backbone) K() int { return b.k }

// EdgeCapacity returns the healthy per-edge capacity c(n).
func (b *Backbone) EdgeCapacity() float64 { return b.c }

// ApplyFaults installs a fault plan: an edge incident to a dead BS
// (alive[i] == false) is down, and every other edge gets the plan's
// capacity factor. Either argument may be nil (no plan = factor 1 for
// edges between alive BSs; nil alive = every BS alive). Accumulated
// loads are preserved; apply faults before adding load.
func (b *Backbone) ApplyFaults(plan *faults.Plan, alive []bool) error {
	if alive != nil && len(alive) != b.k {
		return fmt.Errorf("backbone: alive mask size %d, want %d", len(alive), b.k)
	}
	if plan == nil && alive == nil {
		b.factor = nil
		return nil
	}
	b.factor = make([]float64, len(b.load))
	for i := 0; i < b.k; i++ {
		for j := i + 1; j < b.k; j++ {
			if alive != nil && (!alive[i] || !alive[j]) {
				continue // factor stays 0
			}
			if plan != nil {
				b.factor[b.idx(i, j)] = plan.EdgeFactor(i, j)
			} else {
				b.factor[b.idx(i, j)] = 1
			}
		}
	}
	return nil
}

func (b *Backbone) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Packed index of (i, j), i < j, in row-major upper triangle.
	return i*(2*b.k-i-1)/2 + (j - i - 1)
}

func (b *Backbone) factorAt(e int) float64 {
	if b.factor == nil {
		return 1
	}
	return b.factor[e]
}

// EdgeUsable reports whether the edge (i, j) exists and survived the
// fault plan.
func (b *Backbone) EdgeUsable(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= b.k || j >= b.k {
		return false
	}
	return b.factorAt(b.idx(i, j)) > 0
}

// EdgeCapacityOf returns the surviving capacity of edge (i, j):
// c(n) times its fault factor.
func (b *Backbone) EdgeCapacityOf(i, j int) float64 {
	if i == j || i < 0 || j < 0 || i >= b.k || j >= b.k {
		return 0
	}
	return b.c * b.factorAt(b.idx(i, j))
}

// LiveEdges returns the number of edges with positive capacity.
func (b *Backbone) LiveEdges() int {
	if b.factor == nil {
		return len(b.load)
	}
	live := 0
	for _, f := range b.factor {
		if f > 0 {
			live++
		}
	}
	return live
}

// AddLoad adds rate to the undirected edge (i, j). Loading a failed
// edge is an error: routing must steer around dead infrastructure.
func (b *Backbone) AddLoad(i, j int, rate float64) error {
	if i == j {
		return fmt.Errorf("backbone: self edge %d", i)
	}
	if i < 0 || j < 0 || i >= b.k || j >= b.k {
		return fmt.Errorf("backbone: edge (%d,%d) out of range k=%d", i, j, b.k)
	}
	if rate < 0 {
		return fmt.Errorf("backbone: negative rate %g", rate)
	}
	e := b.idx(i, j)
	if b.factorAt(e) <= 0 {
		return fmt.Errorf("backbone: edge (%d,%d) is down: %w", i, j, ErrNoRoute)
	}
	b.load[e] += rate
	return nil
}

// HasRoute reports whether at least one usable wired edge connects the
// two BS groups.
func (b *Backbone) HasRoute(groupA, groupB []int) bool {
	for _, i := range groupA {
		for _, j := range groupB {
			if b.EdgeUsable(i, j) {
				return true
			}
		}
	}
	return false
}

// AddGroupFlow spreads a total rate uniformly over the usable edges
// between two disjoint BS groups, the way scheme B's phase II shares
// squarelet traffic across BS pairs. Overlapping members and failed
// edges are skipped; if no usable edge remains, ErrNoRoute is returned
// (wrapped) and no load is added.
func (b *Backbone) AddGroupFlow(groupA, groupB []int, rate float64) error {
	if rate < 0 {
		return fmt.Errorf("backbone: negative rate %g", rate)
	}
	pairs := 0
	for _, i := range groupA {
		for _, j := range groupB {
			if b.EdgeUsable(i, j) {
				pairs++
			}
		}
	}
	if pairs == 0 {
		return fmt.Errorf("backbone: groups (sizes %d, %d): %w", len(groupA), len(groupB), ErrNoRoute)
	}
	per := rate / float64(pairs)
	for _, i := range groupA {
		for _, j := range groupB {
			if b.EdgeUsable(i, j) {
				if err := b.AddLoad(i, j, per); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// GroupFlow is a compiled AddGroupFlow: the usable edges between two
// disjoint BS groups resolved once, so repeated flows between the same
// groups replay a flat edge list instead of rescanning the |A|x|B|
// pair matrix per flow. It is compiled against the current fault
// state; recompile after ApplyFaults.
type GroupFlow struct {
	b          *Backbone
	edges      []int
	lenA, lenB int
}

// CompileGroupFlow resolves the usable edges between two disjoint
// groups, in the same scan order AddGroupFlow loads them.
func (b *Backbone) CompileGroupFlow(groupA, groupB []int) *GroupFlow {
	f := &GroupFlow{b: b, lenA: len(groupA), lenB: len(groupB)}
	for _, i := range groupA {
		for _, j := range groupB {
			if b.EdgeUsable(i, j) {
				f.edges = append(f.edges, b.idx(i, j))
			}
		}
	}
	return f
}

// Routable reports whether at least one usable edge connects the
// groups — the compiled HasRoute.
func (f *GroupFlow) Routable() bool { return len(f.edges) > 0 }

// Add spreads rate uniformly over the compiled edges, exactly as
// AddGroupFlow would on the same groups: the same per-edge share added
// to the same edges in the same order, so accumulated loads are
// bit-identical.
func (f *GroupFlow) Add(rate float64) error {
	if rate < 0 {
		return fmt.Errorf("backbone: negative rate %g", rate)
	}
	if len(f.edges) == 0 {
		return fmt.Errorf("backbone: groups (sizes %d, %d): %w", f.lenA, f.lenB, ErrNoRoute)
	}
	per := rate / float64(len(f.edges))
	for _, e := range f.edges {
		f.b.load[e] += per
	}
	return nil
}

// AddN is times calls of Add(rate) in one pass. Every edge still takes
// times sequential += of the same per-edge share, so its load is
// bit-identical to the repeated calls; the sum is computed once per
// distinct starting load (a fresh backbone starts every edge at zero)
// rather than once per edge. The cost is O(times + |edges|) when the
// edges share one starting load.
func (f *GroupFlow) AddN(rate float64, times int) error {
	if rate < 0 {
		return fmt.Errorf("backbone: negative rate %g", rate)
	}
	if len(f.edges) == 0 {
		return fmt.Errorf("backbone: groups (sizes %d, %d): %w", f.lenA, f.lenB, ErrNoRoute)
	}
	per := rate / float64(len(f.edges))
	var from, to float64
	known := false
	for _, e := range f.edges {
		start := f.b.load[e]
		if !known || math.Float64bits(start) != math.Float64bits(from) {
			from, to, known = start, start, true
			for t := 0; t < times; t++ {
				to += per
			}
		}
		f.b.load[e] = to
	}
	return nil
}

// MaxLoad returns the largest per-edge load.
func (b *Backbone) MaxLoad() float64 {
	max := 0.0
	for _, l := range b.load {
		if l > max {
			max = l
		}
	}
	return max
}

// Utilization returns the largest load/capacity ratio over surviving
// edges: above 1 means some edge is overloaded.
func (b *Backbone) Utilization() float64 {
	max := 0.0
	for e, l := range b.load {
		if l == 0 {
			continue
		}
		cap := b.c * b.factorAt(e)
		if cap <= 0 {
			return math.Inf(1)
		}
		if r := l / cap; r > max {
			max = r
		}
	}
	return max
}

// SustainableScale returns the largest factor by which all accumulated
// loads can be scaled while keeping every edge within its surviving
// capacity. If the loads were accumulated at unit per-node rate, this
// is exactly the per-node rate the backbone can sustain (infinite when
// no load).
func (b *Backbone) SustainableScale() float64 {
	scale := math.Inf(1)
	for e, l := range b.load {
		if l == 0 {
			continue
		}
		cap := b.c * b.factorAt(e)
		if cap <= 0 {
			return 0
		}
		if r := cap / l; r < scale {
			scale = r
		}
	}
	return scale
}

// Reset clears accumulated loads (fault factors are kept).
func (b *Backbone) Reset() {
	for i := range b.load {
		b.load[i] = 0
	}
}

// TotalLoad returns the sum of all edge loads (useful as a conservation
// check in tests).
func (b *Backbone) TotalLoad() float64 {
	sum := 0.0
	for _, l := range b.load {
		sum += l
	}
	return sum
}

// CutCapacity returns the total surviving wired capacity crossing a
// node partition — for the healthy complete graph c * |inside| *
// |outside|, the quantity that upper-bounds lambda in Lemma 7
// (mu_B ~ k^2 c for a balanced cut). Fault plans shrink it by the
// failed and derated crossing edges.
func (b *Backbone) CutCapacity(inside []bool) (float64, error) {
	if len(inside) != b.k {
		return 0, fmt.Errorf("backbone: partition size %d, want %d", len(inside), b.k)
	}
	if b.factor == nil {
		in := 0
		for _, v := range inside {
			if v {
				in++
			}
		}
		out := b.k - in
		return b.c * float64(in) * float64(out), nil
	}
	sum := 0.0
	for i := 0; i < b.k; i++ {
		for j := i + 1; j < b.k; j++ {
			if inside[i] != inside[j] {
				sum += b.c * b.factorAt(b.idx(i, j))
			}
		}
	}
	return sum, nil
}
