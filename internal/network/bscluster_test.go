package network

import (
	"math/rand"
	"testing"

	"hybridcap/internal/faults"
	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/scaling"
)

// bruteBSCluster is the all-pairs reference for BSCluster: the centre
// at the smallest squared torus distance, the lowest index on ties.
func bruteBSCluster(nw *Network) []int {
	out := make([]int, len(nw.BSPos))
	for j, y := range nw.BSPos {
		best, bestD := 0, geom.Dist2(y, nw.Placement.ClusterCenters[0])
		for c, ctr := range nw.Placement.ClusterCenters {
			if d := geom.Dist2(y, ctr); d < bestD {
				best, bestD = c, d
			}
		}
		out[j] = best
	}
	return out
}

func checkBSCluster(t *testing.T, nw *Network, what string) {
	t.Helper()
	want := bruteBSCluster(nw)
	if len(nw.BSCluster) != len(want) {
		t.Fatalf("%s: BSCluster has %d entries, want %d", what, len(nw.BSCluster), len(want))
	}
	for j := range want {
		if nw.BSCluster[j] != want[j] {
			t.Fatalf("%s: BS %d at %v assigned to cluster %d, brute force says %d",
				what, j, nw.BSPos[j], nw.BSCluster[j], want[j])
		}
	}
}

func TestBSClusterMatchesBruteForce(t *testing.T) {
	params := map[string]scaling.Params{
		"clustered": {N: 2048, Alpha: 0.4, K: 0.7, M: 0.5, R: 0.3},
		"many":      {N: 4096, Alpha: 0.5, K: 0.9, M: 0.8, R: 0.45},
		"m=1":       {N: 512, Alpha: 0.25, K: 0.5, M: 0, R: 0.2},
		"m>=n":      {N: 1024, Alpha: 0.25, K: 0.8, M: 1},
	}
	for name, p := range params {
		for _, placement := range []BSPlacement{Matched, Uniform, Grid} {
			for seed := uint64(1); seed <= 3; seed++ {
				nw, err := New(Config{Params: p, Seed: seed, BSPlacement: placement})
				if err != nil {
					t.Fatal(err)
				}
				what := name + "/" + placement.String()
				checkBSCluster(t, nw, what)
				if err := nw.RemoveBS(0.4, seed); err != nil {
					t.Fatal(err)
				}
				checkBSCluster(t, nw, what+" after RemoveBS")
			}
		}
	}
}

// TestBSClusterTies places BSs exactly equidistant from two or four
// centres, including across the 0/1 wrap line, with the centre indices
// shuffled so the lowest index is not the first one a search meets.
func TestBSClusterTies(t *testing.T) {
	const side = 8
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		var centres []geom.Point
		for _, cell := range r.Perm(side * side) {
			centres = append(centres, geom.Point{X: (float64(cell%side) + 0.5) / side, Y: (float64(cell/side) + 0.5) / side})
		}
		var bs []geom.Point
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				x, y := float64(i)/side, float64(j)/side
				bs = append(bs,
					geom.Point{X: x, Y: y},            // four centres tie
					geom.Point{X: x, Y: y + 0.5/side}, // two centres tie
					geom.Point{X: x + 0.5/side, Y: y}, // two centres tie
					geom.Point{X: 0, Y: r.Float64()},  // on the wrap line
					geom.Point{X: r.Float64(), Y: 0},  // on the wrap line
					geom.Point{X: r.Float64(), Y: r.Float64()})
			}
		}
		nw := &Network{Placement: &mobility.Placement{ClusterCenters: centres}, BSPos: bs}
		nw.assignBSClusters()
		checkBSCluster(t, nw, "lattice ties")
	}
	// Two centres straddling the wrap line, a BS on it halfway between.
	nw := &Network{
		Placement: &mobility.Placement{ClusterCenters: []geom.Point{{X: 0.875, Y: 0.5}, {X: 0.125, Y: 0.5}}},
		BSPos:     []geom.Point{{X: 0, Y: 0.5}, {X: 0.5, Y: 0.5}, {X: 0, Y: 0}},
	}
	nw.assignBSClusters()
	checkBSCluster(t, nw, "wrap ties")
	for j, c := range nw.BSCluster {
		if c != 0 {
			t.Errorf("BS %d on the tie assigned to centre %d, want 0", j, c)
		}
	}
}

// TestRemoveBSKeepsFaultMask is the regression for RemoveBS on a
// network with a fault plan: the outage mask follows the renumbered
// survivors, so it keeps the new BS count and the plan's pattern.
func TestRemoveBSKeepsFaultMask(t *testing.T) {
	p := scaling.Params{N: 1024, Alpha: 0.4, K: 0.8, Phi: 1, M: 1}
	nw := faultyNet(t, p, 3, faults.Config{Seed: 2, BSOutageFraction: 0.2})
	if err := nw.RemoveBS(0.5, 1); err != nil {
		t.Fatal(err)
	}
	want := nw.Faults().BSAlive(nw.NumBS())
	if len(nw.BSAlive) != len(want) {
		t.Fatalf("BSAlive has %d entries for %d BSs", len(nw.BSAlive), nw.NumBS())
	}
	for j := range want {
		if nw.BSAlive[j] != want[j] {
			t.Fatalf("BSAlive[%d] = %v, plan says %v", j, nw.BSAlive[j], want[j])
		}
	}
	if live, down := nw.NumLiveBS(), nw.Faults().NumBSDown(nw.NumBS()); live != nw.NumBS()-down {
		t.Errorf("NumLiveBS = %d, want %d", live, nw.NumBS()-down)
	}
}
