package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"hybridcap"
	"hybridcap/internal/measure"
)

// resultFromRefs builds a T1 result carrying exactly the reference
// outputs, standing in for a sweep that reproduced them.
func resultFromRefs(t table1Ref) *hybridcap.ExperimentResult {
	res := &hybridcap.ExperimentResult{Fits: map[string]*measure.Fit{}}
	for _, s := range t.Series {
		res.Series = append(res.Series, &measure.Series{Name: s.Name,
			X: append([]float64(nil), s.X...), Y: append([]float64(nil), s.Y...)})
	}
	for name, e := range t.Fits {
		res.Fits[name] = &measure.Fit{Exponent: e}
	}
	return res
}

func TestTable1CheckFailsOnPerturbedReference(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	res := resultFromRefs(refs.Table1)
	o := &outcome{}
	refs.Table1.check(o, res)
	if o.failed != 0 {
		t.Fatalf("unperturbed reference fails: %v", o.mismatches)
	}

	perturbed, _ := loadReferences()
	y := perturbed.Table1.Series[3].Y
	y[2] = math.Nextafter(y[2], 1)
	o = &outcome{}
	perturbed.Table1.check(o, res)
	if o.failed != perturbed.Table1.Seeds || len(o.mismatches) != 1 {
		t.Fatalf("one-ulp point change: failed %d, mismatches %v", o.failed, o.mismatches)
	}

	perturbed, _ = loadReferences()
	perturbed.Table1.Fits["weak-BS"] += 1e-12
	o = &outcome{}
	perturbed.Table1.check(o, res)
	if o.failed != 1 {
		t.Fatalf("perturbed fit: failed %d, mismatches %v", o.failed, o.mismatches)
	}
}

func TestSlotsimCheckFailsOnPerturbedReference(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	var got []simResult
	for _, r := range refs.Slotsim.Runs {
		got = append(got, simResult{name: r.Sim, injected: r.Injected, delivered: r.Delivered, meanDelay: r.MeanDelay})
	}
	o := &outcome{}
	checkSims(o, refs.Slotsim, got)
	if o.failed != 0 || o.attempted != len(got) {
		t.Fatalf("unperturbed: failed %d of %d: %v", o.failed, o.attempted, o.mismatches)
	}
	for _, field := range []string{"injected", "delivered", "mean_delay"} {
		perturbed, _ := loadReferences()
		r := &perturbed.Slotsim.Runs[1]
		switch field {
		case "injected":
			r.Injected++
		case "delivered":
			r.Delivered--
		default:
			r.MeanDelay = math.Nextafter(r.MeanDelay, 0)
		}
		o := &outcome{}
		checkSims(o, perturbed.Slotsim, got)
		if o.failed != 1 {
			t.Errorf("perturbed %s: failed %d", field, o.failed)
		}
	}
}

func TestDaemonCheckFailsOnDifferentReport(t *testing.T) {
	setups := setupScenarios()
	reqs, err := buildSchedule(3, 2, setups, storedScenarios(setups, hitsPerPass(2)))
	if err != nil {
		t.Fatal(err)
	}
	pr := &passResult{reqs: make([]served, len(reqs)), reports: map[string][]byte{}}
	refs := map[string][]byte{}
	for i, rq := range reqs {
		pr.reqs[i] = served{id: rq.hash, sent: pr.start, done: pr.start.Add(rq.due + 1)}
		pr.reports[rq.hash] = []byte("report " + rq.hash)
		refs[rq.hash] = []byte("report " + rq.hash)
	}
	o := &outcome{}
	lat := checkPass(o, reqs, pr, refs)
	if o.failed != 0 || o.attempted != len(reqs) {
		t.Fatalf("matching reports: failed %d of %d", o.failed, o.attempted)
	}
	for _, l := range lat {
		if math.IsInf(l, 0) {
			t.Fatal("a matching request has no latency")
		}
	}
	refs[reqs[0].hash] = []byte("another report")
	o = &outcome{}
	lat = checkPass(o, reqs, pr, refs)
	if o.failed == 0 || !math.IsInf(lat[0], 1) {
		t.Fatalf("differing report not counted: failed %d, latency %v", o.failed, lat[0])
	}
}

// Every hit must read the result store: it resubmits a stored
// scenario that no earlier request of the pass has put in memory.
func TestHitsReadDistinctStoredEntries(t *testing.T) {
	setups := setupScenarios()
	for _, seconds := range []int{1, 10, 20, 33} {
		stored := storedScenarios(setups, hitsPerPass(seconds))
		storedHash := map[string]bool{}
		for _, sc := range stored {
			h, err := sc.SHA256()
			if err != nil {
				t.Fatal(err)
			}
			if storedHash[h] {
				t.Fatalf("stored scenario %s %q repeats", sc.Name, sc.Description)
			}
			storedHash[h] = true
		}
		reqs, err := buildSchedule(9, seconds, setups, stored)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		hits := 0
		for _, rq := range reqs {
			if rq.class == classHit {
				hits++
				if seen[rq.hash] || !storedHash[rq.hash] {
					t.Fatalf("%ds: hit %s is not a fresh stored entry", seconds, rq.sc.Name)
				}
			} else if storedHash[rq.hash] {
				t.Fatalf("%ds: %s request %s resubmits a stored entry", seconds, rq.class, rq.sc.Name)
			}
			seen[rq.hash] = true
		}
		if hits == 0 {
			t.Fatalf("%ds: schedule has no hits", seconds)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	setups := setupScenarios()
	stored := storedScenarios(setups, hitsPerPass(20))
	a, err := buildSchedule(5, 20, setups, stored)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildSchedule(5, 20, setups, stored)
	c, _ := buildSchedule(6, 20, setups, stored)
	same := func(x, y []mixRequest) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].hash != y[i].hash || x[i].due != y[i].due || x[i].class != y[i].class {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	count := map[string]int{}
	hashes := map[string]string{}
	for _, rq := range a {
		count[rq.class]++
		if rq.class != classHit {
			if prev, dup := hashes[rq.hash]; dup {
				t.Fatalf("%s request repeats a %s scenario", rq.class, prev)
			}
			hashes[rq.hash] = rq.class
		}
	}
	n := len(a)
	if n%mixBlock != 0 || count[classHit] != int(math.Round(hitShare*float64(n))) || count[classReplay] != int(math.Round(replayShare*float64(n))) {
		t.Fatalf("class counts %v of %d", count, n)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 90 || v != quantile(xs, 0.9) {
		t.Fatalf("100 samples: p%g = %v", p, v)
	}
	if _, p := tail(xs[:12]); p != 100 {
		t.Fatalf("12 samples: p%g, want the maximum", p)
	}
	xs = append(xs, math.Inf(1))
	if v, _ := tail(xs); math.IsInf(v, 0) {
		t.Fatal("one failure out of 101 reaches the p90 tail")
	}
}

func TestRegIncBeta(t *testing.T) {
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.3, 1, 1, 0.3},
		{0.5, 7.5, 7.5, 0.5},
		{0.2, 2, 3, 1 - 0.8*0.8*0.8*(1+3*0.2)}, // 1 - P(Bin(4, 0.2) <= 1)
		{0.9, 60.1, 540.9, 1},
	} {
		if got := regIncBeta(c.x, c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%g(%g, %g) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(99 - i)
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-50) > 1e-9 {
		t.Fatalf("median of 1..99 = %v", got)
	}
	if got := hdQuantile([]float64{4, 4, 4}, 0.1); math.Abs(got-4) > 1e-12 {
		t.Fatalf("p10 of a constant sample = %v", got)
	}
	if p10, p50 := hdQuantile(xs, 0.1), hdQuantile(xs, 0.5); !(p10 > 9 && p10 < 11 && p10 < p50) {
		t.Fatalf("p10 of 1..99 = %v", p10)
	}
	// Two clusters with a gap at the median: moving one sample across
	// the gap moves the order-statistic median by the whole gap and the
	// Harrell-Davis median by a fraction of it.
	two := func(low int) []float64 {
		var s []float64
		for i := 0; i < 101; i++ {
			if i < low {
				s = append(s, 10+float64(i)/1000)
			} else {
				s = append(s, 20+float64(i)/1000)
			}
		}
		return s
	}
	a, b := two(50), two(51)
	if dq := quantile(b, 0.5) - quantile(a, 0.5); dq > -9 {
		t.Fatalf("order statistic moved by %v, want about -10", dq)
	}
	if dh := hdQuantile(b, 0.5) - hdQuantile(a, 0.5); dh < -2.5 || dh >= 0 {
		t.Fatalf("Harrell-Davis median moved by %v", dh)
	}
	if v := hdQuantile(append(xs, math.Inf(1)), 0.9); !math.IsInf(v, 1) {
		t.Fatalf("a failure within reach of p90 gives %v", v)
	}
	if v := hdQuantile(append(xs, math.Inf(1)), 0.1); math.IsInf(v, 0) {
		t.Fatal("a failure reaches p10")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists this program
// reports in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench/")
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(b.EndToEnd), sorted(endToEndMetrics); !equal(got, want) {
		t.Errorf("end_to_end %v, program reports %v", got, want)
	}
	if got, want := names(b.PerLayer), sorted(perLayerMetrics); !equal(got, want) {
		t.Errorf("per_layer %v, program reports %v", got, want)
	}
	for _, m := range b.PerLayer {
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %s, program %s", m.Name, m.Unit, u)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
