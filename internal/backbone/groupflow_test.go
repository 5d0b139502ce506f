package backbone

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hybridcap/internal/faults"
)

// twinBackbones builds two identical backbones over k BSs with the
// same fault state and the same preloaded edges: roughly half of the
// usable edges start from a random load, the rest from zero, so a
// group flow's edges start from a mix of equal and distinct loads.
func twinBackbones(t *testing.T, r *rand.Rand, k int, p *faults.Plan, alive []bool) (*Backbone, *Backbone) {
	t.Helper()
	var twins [2]*Backbone
	for i := range twins {
		b, err := New(k, 1+r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		if p != nil || alive != nil {
			if err := b.ApplyFaults(p, alive); err != nil {
				t.Fatal(err)
			}
		}
		twins[i] = b
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !twins[0].EdgeUsable(i, j) || r.Intn(2) == 0 {
				continue
			}
			rate := r.Float64() / 3
			for _, b := range twins {
				if err := b.AddLoad(i, j, rate); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return twins[0], twins[1]
}

// splitGroups draws two disjoint non-empty groups of random sizes from
// a permutation of the k BS ids.
func splitGroups(r *rand.Rand, k int) ([]int, []int) {
	ids := r.Perm(k)
	na := 1 + r.Intn(k-1)
	nb := 1 + r.Intn(k-na)
	return ids[:na], ids[na : na+nb]
}

func sameLoads(t *testing.T, got, want *Backbone, what string) {
	t.Helper()
	for e := range want.load {
		if math.Float64bits(got.load[e]) != math.Float64bits(want.load[e]) {
			t.Fatalf("%s: edge %d load %v, want %v from repeated Add", what, e, got.load[e], want.load[e])
		}
	}
}

// TestAddNMatchesRepeatedAdd pins AddN(rate, m) to m calls of
// Add(rate), bit for bit on every edge, over random group sizes,
// healthy and faulted backbones, and edges that start from different
// loads.
func TestAddNMatchesRepeatedAdd(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	plans := []struct {
		name  string
		cfg   *faults.Config
		alive bool
	}{
		{name: "healthy"},
		{name: "derated+dead", cfg: &faults.Config{Seed: 3, EdgeOutageFraction: 0.3, EdgeDerating: 0.37}, alive: true},
	}
	for _, pc := range plans {
		for trial := 0; trial < 40; trial++ {
			k := 3 + r.Intn(30)
			var p *faults.Plan
			var alive []bool
			if pc.cfg != nil {
				p = plan(t, *pc.cfg)
			}
			if pc.alive {
				alive = make([]bool, k)
				for j := range alive {
					alive[j] = r.Intn(5) != 0
				}
			}
			ga, gb := splitGroups(r, k)
			rate := []float64{1, 1.0 / 3, r.Float64() * 5}[trial%3]
			for _, m := range []int{0, 1, 2, 7, 5000} {
				x, y := twinBackbones(t, r, k, p, alive)
				fx, fy := x.CompileGroupFlow(ga, gb), y.CompileGroupFlow(ga, gb)
				if !fx.Routable() {
					if err := fx.AddN(rate, m); !errors.Is(err, ErrNoRoute) {
						t.Fatalf("%s: AddN on unroutable groups: err = %v, want ErrNoRoute", pc.name, err)
					}
					sameLoads(t, x, y, pc.name+" unroutable")
					continue
				}
				if err := fx.AddN(rate, m); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < m; i++ {
					if err := fy.Add(rate); err != nil {
						t.Fatal(err)
					}
				}
				sameLoads(t, x, y, pc.name)
			}
		}
	}
}

// TestAddNRepeatedEdges covers overlapping groups, whose compiled list
// holds the same edge twice: each occurrence still adds its share m
// times in sequence, as repeated Add calls do.
func TestAddNRepeatedEdges(t *testing.T) {
	x, _ := New(3, 1)
	y, _ := New(3, 1)
	g := []int{0, 1, 2}
	if err := x.CompileGroupFlow(g, g).AddN(0.1, 9); err != nil {
		t.Fatal(err)
	}
	fy := y.CompileGroupFlow(g, g)
	for i := 0; i < 9; i++ {
		if err := fy.Add(0.1); err != nil {
			t.Fatal(err)
		}
	}
	sameLoads(t, x, y, "overlapping groups")
}

func TestAddNErrors(t *testing.T) {
	b, _ := New(4, 1)
	f := b.CompileGroupFlow([]int{0, 1}, []int{2, 3})
	if err := f.AddN(-1, 3); err == nil {
		t.Error("negative rate accepted")
	}
	if got := b.TotalLoad(); got != 0 {
		t.Errorf("rejected AddN left load %v", got)
	}
	if err := b.ApplyFaults(nil, []bool{true, true, false, false}); err != nil {
		t.Fatal(err)
	}
	dead := b.CompileGroupFlow([]int{0, 1}, []int{2, 3})
	if err := dead.AddN(1, 3); !errors.Is(err, ErrNoRoute) {
		t.Errorf("AddN over dead edges: err = %v, want ErrNoRoute", err)
	}
	if got := b.TotalLoad(); got != 0 {
		t.Errorf("unroutable AddN left load %v", got)
	}
}
