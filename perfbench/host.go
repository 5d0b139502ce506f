package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// fingerprint identifies the host and code a result was measured on.
// Results are comparable only between equal fingerprints (the source
// identity aside, which is what a comparison varies).
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision when the checkout is a repository,
	// "" otherwise.
	Commit string `json:"commit,omitempty"`
	// SourceSHA256 digests the module's .go files and go.mod, so a
	// record names the code it measured even outside git.
	SourceSHA256 string `json:"source_sha256"`
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

// sameHost reports whether two fingerprints describe the same machine
// and toolchain.
func sameHost(a, b fingerprint) bool {
	return a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.GOOS == b.GOOS &&
		a.GOARCH == b.GOARCH && a.CPUModel == b.CPUModel && a.GoVersion == b.GoVersion
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// dot-directories (build output, VCS metadata), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// readRecord finds the record line in a saved benchmark output.
func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var wrap map[string]record
		if err := json.Unmarshal([]byte(line), &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r := wrap["record"]
		return &r, nil
	}
	return nil, fmt.Errorf("%s: no record line", path)
}

// compareFiles prints the ratio of every metric two results share, or
// refuses when they come from different hosts or workloads.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if !sameHost(a.Host, b.Host) {
		fmt.Fprintf(w, "incomparable: different hosts\n  %+v\n  %+v\n", a.Host, b.Host)
		return nil
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Fprintf(w, "incomparable: %s/%ds/trace=%v vs %s/%ds/trace=%v\n",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
		return nil
	}
	bm := map[string]metric{}
	for _, m := range b.Metrics {
		bm[m.Name] = m
	}
	for _, ma := range a.Metrics {
		mb, ok := bm[ma.Name]
		if !ok || ma.Stat != mb.Stat || ma.Samples != mb.Samples {
			fmt.Fprintf(w, "  %-34s incomparable statistics\n", ma.Name)
			continue
		}
		ratio := mb.Value / ma.Value
		fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %-6s x%.4f\n", ma.Name, ma.Value, mb.Value, ma.Unit, ratio)
	}
	return nil
}
