package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridcap/internal/cellcache"
)

func TestBindParsesSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := bindCommon(fs)
	if err := fs.Parse([]string{"-out", "artifacts", "-quick", "-seeds", "5", "-workers", "3"}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.out != "artifacts" || !c.quick || c.seeds != 5 || c.workers != 3 {
		t.Errorf("parsed %+v", c)
	}
	o, err := c.options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !o.Quick || o.Seeds != 5 || o.Workers != 3 || o.Obs == nil || o.CellCache != nil {
		t.Errorf("options %+v", o)
	}
}

func TestBindDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := bindCommon(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.out != "out" || c.quick || c.seeds != 0 || c.workers != 0 || c.cellCache != "" {
		t.Errorf("defaults %+v", c)
	}
}

// golden is the experiments package's pinned report for id (Quick, 2
// seeds).
func golden(t *testing.T, id string) string {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// runReport runs capsim with args plus -out into a fresh directory and
// returns the written <id>.txt.
func runReport(t *testing.T, id string, args ...string) string {
	t.Helper()
	out := t.TempDir()
	if err := run(context.Background(), append(args, "-out", out)); err != nil {
		t.Fatalf("capsim %v: %v", args, err)
	}
	got, err := os.ReadFile(filepath.Join(out, id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// -run writes the same report bytes as the experiments package's
// goldens, for every worker count.
func TestRunMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		id   string
		args []string
	}{
		{"T1", []string{"-run", "T1", "-quick", "-seeds", "2"}},
		{"E15", []string{"-run", "E15", "-quick", "-seeds", "2", "-workers", "1"}},
		{"E15", []string{"-run", " E15 ", "-quick", "-seeds", "2", "-workers", "8"}},
	} {
		if got := runReport(t, c.id, c.args...); got != golden(t, c.id) {
			t.Errorf("capsim %v: %s.txt drifted from the golden:\n%s", c.args, c.id, got)
		}
	}
}

// -cell-cache reaches -run: a second identical run replays every cell
// from the store and still writes the golden bytes.
func TestRunCellCacheReplays(t *testing.T) {
	args := []string{"-run", "T1", "-quick", "-seeds", "2", "-cell-cache", t.TempDir()}
	want := golden(t, "T1")
	before := cellcache.ReadStats()
	if got := runReport(t, "T1", args...); got != want {
		t.Errorf("cold run drifted from the golden:\n%s", got)
	}
	mid := cellcache.ReadStats()
	if mid.Puts == before.Puts {
		t.Fatal("cold run stored no cells: -cell-cache was ignored")
	}
	if got := runReport(t, "T1", args...); got != want {
		t.Errorf("warm run drifted from the golden:\n%s", got)
	}
	after := cellcache.ReadStats()
	if misses, hits := after.Misses-mid.Misses, after.Hits-mid.Hits; misses != 0 || hits == 0 {
		t.Errorf("warm run: %d hits, %d misses; want all hits", hits, misses)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), []string{"-run", "E99", "-out", t.TempDir()}); err == nil || !strings.Contains(err.Error(), "E99") {
		t.Errorf("unknown id: err = %v, want one naming E99", err)
	}
}

func TestModesAreExclusive(t *testing.T) {
	// A canceled context makes a mode that wrongly starts (the daemon
	// above all) return at once instead of hanging the test.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		args  []string
		named []string
	}{
		{[]string{"-serve", "127.0.0.1:0", "-scenario", "x.json"}, []string{"-serve", "-scenario"}},
		{[]string{"-scenario", "x.json", "-run", "T1"}, []string{"-scenario", "-run"}},
		{[]string{"-run", "T1", "-list-schemes"}, []string{"-run", "-list-schemes"}},
		{[]string{"-serve", "127.0.0.1:0", "-run", "all", "-list-schemes"}, []string{"-serve", "-run", "-list-schemes"}},
	} {
		err := run(ctx, c.args)
		if !errors.Is(err, errModeConflict) {
			t.Errorf("capsim %v: err = %v, want a mode conflict", c.args, err)
			continue
		}
		for _, name := range c.named {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("capsim %v: %q does not name %s", c.args, err, name)
			}
		}
	}
	if err := run(ctx, []string{"-shard", "0/2", "-run", "T1"}); err == nil || !strings.Contains(err.Error(), "-shard requires -scenario") {
		t.Errorf("-shard without -scenario: err = %v", err)
	}
}

func TestParseShard(t *testing.T) {
	sp, err := parseShard("1/3")
	if err != nil || sp.Index != 1 || sp.Count != 3 {
		t.Errorf("parseShard(1/3) = %+v, %v", sp, err)
	}
	for _, spec := range []string{"", "3", "1-3", "a/3", "1/b", "/3", "1/"} {
		if _, err := parseShard(spec); err == nil {
			t.Errorf("parseShard(%q) accepted", spec)
		}
	}
}

// A -debug address that cannot be bound fails the command up front.
func TestDebugBusyAddressFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run(context.Background(), []string{"-debug", ln.Addr().String(), "-list-schemes"})
	if err == nil || !strings.Contains(err.Error(), "-debug") {
		t.Errorf("busy -debug address: err = %v", err)
	}
}
