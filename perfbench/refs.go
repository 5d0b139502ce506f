package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"hybridcap"
)

// referencesJSON holds the exact outputs the workloads must reproduce.
// Regenerate it with `perfbench -write-refs` only when a change is
// meant to alter the program's outputs, and say so in the change.
//
//go:embed references.json
var referencesJSON []byte

type references struct {
	Table1  table1Ref  `json:"table1"`
	Slotsim slotsimRef `json:"slotsim"`
}

// table1Ref is the full-size Table-I sweep: every series point and
// every fitted exponent, bit-exact (JSON round-trips float64 exactly).
type table1Ref struct {
	Seeds  int                `json:"seeds"`
	Series []seriesRef        `json:"series"`
	Fits   map[string]float64 `json:"fits"`
}

type seriesRef struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// slotsimRef is E11's three packet simulations at Slots slots.
type slotsimRef struct {
	Slots int      `json:"slots"`
	Runs  []simRef `json:"runs"`
}

type simRef struct {
	Sim       string  `json:"sim"`
	Injected  int     `json:"injected"`
	Delivered int     `json:"delivered"`
	MeanDelay float64 `json:"mean_delay"`
}

func loadReferences() (*references, error) {
	return parseReferences(referencesJSON)
}

func parseReferences(data []byte) (*references, error) {
	var r references
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	if r.Table1.Seeds < 1 || len(r.Table1.Series) == 0 || len(r.Slotsim.Runs) == 0 || r.Slotsim.Slots < 1 {
		return nil, fmt.Errorf("references: incomplete")
	}
	return &r, nil
}

// cells is the number of grid cells behind the reference sweep.
func (t table1Ref) cells() int {
	n := 0
	for _, s := range t.Series {
		n += len(s.X) * t.Seeds
	}
	return n
}

// check compares a Table-I result with the reference; each differing
// point counts its seeds' cells as failed, each differing fit one.
func (t table1Ref) check(o *outcome, res *hybridcap.ExperimentResult) {
	if len(res.Series) != len(t.Series) {
		o.mismatch(t.cells(), "T1 has %d series, reference %d", len(res.Series), len(t.Series))
		return
	}
	for i, want := range t.Series {
		got := res.Series[i]
		if got.Name != want.Name || len(got.X) != len(want.X) || len(got.Y) != len(want.Y) {
			o.mismatch(len(want.X)*t.Seeds, "T1 series %d is %s with %d points, reference %s with %d",
				i, got.Name, len(got.X), want.Name, len(want.X))
			continue
		}
		for p := range want.X {
			if got.X[p] != want.X[p] || got.Y[p] != want.Y[p] {
				o.mismatch(t.Seeds, "T1 %s point n=%v: got %v, reference %v", want.Name, want.X[p], got.Y[p], want.Y[p])
			}
		}
	}
	for name, want := range t.Fits {
		fit, ok := res.Fits[name]
		if !ok || fit.Exponent != want {
			got := "missing"
			if ok {
				got = fmt.Sprint(fit.Exponent)
			}
			o.mismatch(1, "T1 fit %s: got %s, reference %v", name, got, want)
		}
	}
}

// check compares one simulator's report with its reference.
func (s simRef) check(o *outcome, injected, delivered int, meanDelay float64) {
	if injected != s.Injected || delivered != s.Delivered || meanDelay != s.MeanDelay {
		o.mismatch(1, "%s: injected %d delivered %d mean delay %v, reference %d %d %v",
			s.Sim, injected, delivered, meanDelay, s.Injected, s.Delivered, s.MeanDelay)
	}
}

// referenceSlots is the slot count of the slotsim references.
const referenceSlots = 1500

// printReferences computes the reference outputs from the current code
// and writes them as references.json content.
func printReferences(w io.Writer) error {
	res, err := hybridcap.RunExperiment("T1", hybridcap.ExperimentOptions{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	r := references{Table1: table1Ref{Seeds: 3, Fits: map[string]float64{}}, Slotsim: slotsimRef{Slots: referenceSlots}}
	for _, s := range res.Series {
		r.Table1.Series = append(r.Table1.Series, seriesRef{Name: s.Name, X: s.X, Y: s.Y})
	}
	for name, fit := range res.Fits {
		r.Table1.Fits[name] = fit.Exponent
	}
	sims, err := runSims(referenceSlots, nil)
	if err != nil {
		return err
	}
	for _, s := range sims {
		r.Slotsim.Runs = append(r.Slotsim.Runs, simRef{Sim: s.name, Injected: s.injected, Delivered: s.delivered, MeanDelay: s.meanDelay})
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
