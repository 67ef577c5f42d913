package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment regenerates one figure/table of the paper.
type Experiment struct {
	Name        string
	Description string
	Run         func(io.Writer, Config) error
}

// Experiments returns the registry of all reproducible figures, in
// presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig2-1", "changes on array C per level (fixed chunks)", Fig2_1},
		{"fig2-2", "sigmoid model of cluster count vs log level", Fig2_2},
		{"fig4-1", "graph statistics vs fraction α", Fig4_1},
		{"fig4-2", "serial execution time (init / sweeping / standard)", Fig4_2},
		{"fig4-3", "memory usage (sweeping vs standard)", Fig4_3},
		{"fig5-1", "coarse-grained epoch breakdown", Fig5_1},
		{"fig5-2", "coarse-grained vs fine-grained sweeping", Fig5_2},
		{"fig6-1", "initialization speedup vs threads", Fig6_1},
		{"fig6-2", "sweeping speedup vs threads", Fig6_2},
		{"theory", "Theorem 2 scaling on k-regular and complete graphs", Theory},
		{"quality", "extension: community recovery (ONMI) on planted ground truth", Quality},
		{"ablation", "extension: chain-vs-union-find and algorithm-family comparisons", Ablation},
		{"corpus", "validation: synthetic corpus vs tweet-corpus statistics", CorpusExp},
		{"service", "extension: linkclustd load test (cold vs cached over HTTP, concurrent clients)", Service},
		{"stream", "extension: incremental ingest+snapshot vs batch from scratch (bitwise self-validating)", Stream},
		{"outofcore", "extension: disk-spilled sweep vs in-memory windowed (bitwise self-validating)", OutOfCore},
	}
}

// Lookup resolves an experiment by name; "all" runs every experiment.
func Lookup(name string) (Experiment, error) {
	if name == "all" {
		return Experiment{
			Name:        "all",
			Description: "every experiment in order",
			Run: func(w io.Writer, cfg Config) error {
				for _, e := range Experiments() {
					end := cfg.Obs.Phase(e.Name)
					err := e.Run(w, cfg)
					end()
					if err != nil {
						return fmt.Errorf("%s: %w", e.Name, err)
					}
				}
				return nil
			},
		}, nil
	}
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(Experiments())+1)
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	names = append(names, "all")
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (available: %v)", name, names)
}
