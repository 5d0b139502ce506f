package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenReports pins every experiment's rendered report to the
// pre-refactor snapshots in testdata/golden (generated at Quick, 2
// seeds, serial execution). The engine promises byte-identical output
// for every worker count, so the comparison runs with a parallel pool:
// any drift in seed derivation, grid order, aggregation arithmetic or
// row formatting — from the engine, the scenario layer, or a future
// refactor — fails here with a diffable report.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot: %v", err)
			}
			res, err := e.Run(Options{Quick: true, Seeds: 2, Workers: 8})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if got := res.Text(); got != string(want) {
				t.Errorf("%s: report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
					e.ID, path, got, want)
			}
		})
	}
}

// TestGoldenTable1Full pins the full-size Table-I report (the default
// sizes up to n=16384 and 3 seeds) to testdata/golden/T1-full.txt.
// The quick goldens stop at n=2048, where the limited-backbone cells
// that dominate scheme B's cost are small; this run covers them.
func TestGoldenTable1Full(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size Table-I sweep")
	}
	path := filepath.Join("testdata", "golden", "T1-full.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot: %v", err)
	}
	res, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Text(); got != string(want) {
		t.Errorf("T1 full-size report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
