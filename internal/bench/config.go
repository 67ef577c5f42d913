// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (Section V measurements and Section VII
// experiments) on synthetic workloads, printing the same rows/series the
// paper reports. Absolute numbers differ from the paper (different machine,
// synthetic corpus, scaled-down sizes — see DESIGN.md §2); the comparisons
// each figure makes are what the harness reproduces.
package bench

import (
	"fmt"

	"linkclust/internal/coarse"
	"linkclust/internal/corpus"
	"linkclust/internal/obs"
)

// Config parameterizes a harness run.
type Config struct {
	// Corpus is the synthetic tweet corpus standing in for the paper's
	// December-2011 Twitter month.
	Corpus corpus.SynthConfig
	// Alphas are the paper's candidate-word fractions; rows are labeled
	// with these values.
	Alphas []float64
	// AlphaScale maps a paper α label to the effective vocabulary
	// fraction used against the synthetic corpus: the paper's corpus has
	// millions of candidate words while ours has tens of thousands, so
	// the same labels select a comparable graph-size progression when
	// scaled (see EXPERIMENTS.md).
	AlphaScale float64
	// Coarse is the coarse-grained parameter set; Delta0 is overridden
	// per α as in Section VII-B.
	Coarse coarse.Params
	// Delta0PerAlpha maps each α label to its initial chunk size (the
	// paper uses 100, 500, 1000, 5000, 10000 for the five fractions).
	Delta0PerAlpha map[float64]int64
	// Threads is the thread sweep of Fig. 6.
	Threads []int
	// Repeats is the number of timed repetitions per measurement; the
	// minimum is reported.
	Repeats int
	// EdgePermSeed seeds the random edge enumeration of Algorithm 2.
	EdgePermSeed uint64
	// MaxStandardEdges bounds the graphs on which the O(|E|²) standard
	// algorithm is attempted, mirroring the paper's inability to finish
	// it beyond α = 0.001.
	MaxStandardEdges int
	// Obs, when non-nil, collects per-experiment phase timers (workload
	// construction, per-figure runs) for the harness's run report. Nil
	// disables instrumentation.
	Obs *obs.Recorder
	// BenchJSON, when non-empty, is the path where machine-readable
	// microbenchmark experiments (stream, outofcore, service) write their
	// results in the linkclust/bench/v1 schema (e.g. BENCH_stream.json).
	BenchJSON string
}

// Size selects a preset workload scale.
type Size string

const (
	// SizeSmall finishes every experiment in seconds; graphs reach ~10⁴
	// incident pairs.
	SizeSmall Size = "small"
	// SizeMedium is the default; graphs reach ~10⁶ incident pairs.
	SizeMedium Size = "medium"
	// SizeLarge approaches the paper's scale and takes minutes.
	SizeLarge Size = "large"
)

// DefaultConfig returns the harness configuration for a preset size.
func DefaultConfig(size Size) (Config, error) {
	cfg := Config{
		Alphas:     []float64{0.0001, 0.0005, 0.001, 0.005, 0.01},
		Coarse:     coarse.DefaultParams(),
		Threads:    []int{1, 2, 4, 6},
		Repeats:    3,
		AlphaScale: 100,
		Delta0PerAlpha: map[float64]int64{
			0.0001: 100,
			0.0005: 500,
			0.001:  1000,
			0.005:  5000,
			0.01:   10000,
		},
		EdgePermSeed:     42,
		MaxStandardEdges: 4096,
	}
	base := corpus.DefaultSynthConfig()
	switch size {
	case SizeSmall:
		base.Vocab = 4000
		base.Docs = 6000
		base.Topics = 16
		cfg.MaxStandardEdges = 6000
	case SizeMedium:
		base.Vocab = 10000
		base.Docs = 25000
		base.Topics = 30
	case SizeLarge:
		base.Vocab = 20000
		base.Docs = 60000
		base.Topics = 40
		cfg.MaxStandardEdges = 8192
	default:
		return Config{}, fmt.Errorf("bench: unknown size %q (want small, medium or large)", size)
	}
	cfg.Corpus = base
	return cfg, nil
}

// delta0For returns the initial chunk size for an α label.
func (c Config) delta0For(alpha float64) int64 {
	if d, ok := c.Delta0PerAlpha[alpha]; ok {
		return d
	}
	return c.Coarse.Delta0
}

// coarseFor returns the coarse parameters specialized to an α label.
func (c Config) coarseFor(alpha float64, workers int) coarse.Params {
	p := c.Coarse
	p.Delta0 = c.delta0For(alpha)
	p.Workers = workers
	return p
}
