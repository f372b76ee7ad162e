// Package experiments is the reproduction harness: one registered runner per
// reconstructed table and figure of the paper's evaluation (see DESIGN.md §7
// for the index and EXPERIMENTS.md for paper-vs-measured notes).
//
// Each experiment regenerates its workload from a seed, runs the relevant
// algorithm line-up, and prints the rows/series the corresponding table or
// figure would plot.  The Quick flag shrinks workloads so the whole suite
// stays test-friendly; Full scale is what cmd/mbabench runs by default.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// RunConfig controls one experiment invocation.
type RunConfig struct {
	// Seed drives every workload and randomised algorithm; the same seed
	// reproduces the run bit for bit.
	Seed uint64
	// Quick shrinks workloads (used by tests and smoke runs).
	Quick bool
	// Reps is the number of repetitions averaged per data point; 0 means
	// the experiment's default.
	Reps int
}

func (cfg RunConfig) reps(def int) int {
	if cfg.Reps > 0 {
		return cfg.Reps
	}
	return def
}

// pick returns quick when cfg.Quick is set, else full.
func (cfg RunConfig) pick(full, quick int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

// Experiment is one reconstructed table or figure.
type Experiment struct {
	// ID is the DESIGN.md identifier (e.g. "R-Fig4").
	ID string
	// Title is the one-line description shown in listings.
	Title string
	// Expected states the paper-shape expectation the run should exhibit.
	Expected string
	// Run executes the experiment, writing its table to w.
	Run func(w io.Writer, cfg RunConfig) error
}

var registry = map[string]Experiment{}

// register adds an experiment to the registry at package init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID (tables first, then figures in
// numeric order thanks to the naming scheme).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
	}
	return e, nil
}

// RunOne executes a single experiment with its standard header and footer.
func RunOne(w io.Writer, e Experiment, cfg RunConfig) error {
	fmt.Fprintf(w, "==== %s — %s (seed=%d quick=%v) ====\n", e.ID, e.Title, cfg.Seed, cfg.Quick)
	if err := e.Run(w, cfg); err != nil {
		return err
	}
	fmt.Fprintf(w, "expected shape: %s\n\n", e.Expected)
	return nil
}
