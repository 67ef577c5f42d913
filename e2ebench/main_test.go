package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"linkclust/internal/graph"
)

// tinyScale keeps every workload to a fraction of a second per stretch.
var tinyScale = scale{
	vocab: 500, docs: 800, topics: 4,
	passFraction:  0.2,
	poolFractions: []float64{0.1, 0.2},
	spillOf:       []int{1},
	resubmitOf:    []int{1},
	coarseOf:      []int{0},
	streamEdges:   400,
	trickle:       64, batch: 16,
	setups: 2,
}

func tinyEnv(t *testing.T) *env {
	return &env{seed: 7, workers: 2, scale: tinyScale, workDir: t.TempDir(), reference: serialReference}
}

func TestWorkloadsPassGate(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, info, spans, err := measureAll(context.Background(), tinyEnv(t), workloads[name], traced, 400*time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range catalog {
				if _, ok := res.Metrics[m.name]; ok != (m.perLayer == traced) {
					t.Errorf("%s traced=%v: metric %s printed=%v", name, traced, m.name, ok)
				}
			}
			if traced && len(spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
			if info["seed"] != uint64(7) || info["workers"] != 2 {
				t.Errorf("%s: info misses the seed or workers: %v", name, info)
			}
		}
	}
}

func TestCorruptReferenceFailsGate(t *testing.T) {
	for _, name := range workloadNames() {
		e := tinyEnv(t)
		e.reference = func(g *graph.Graph, coarseSweep bool) (string, error) {
			sha, err := serialReference(g, coarseSweep)
			return strings.Repeat("0", len(sha)), err
		}
		res, _, _, err := measureAll(context.Background(), e, workloads[name], false, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference passed the gate (failed=%d of %d)", name, res.Failed, res.Attempted)
		}
	}
}

// The daemon pool's variants add isolated vertices so that the daemon sees
// a new graph; the serial reference of the base graph must hold for them.
func TestIsolatedVerticesKeepReference(t *testing.T) {
	e := tinyEnv(t)
	e.info = map[string]any{}
	pool, err := daemonPool(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool {
		g, err := graph.Read(strings.NewReader(b.text(9)))
		if err != nil {
			t.Fatal(err)
		}
		for _, coarseSweep := range []bool{false, true} {
			want := b.sweepRef
			if coarseSweep {
				want = b.coarseRef
			}
			if got, err := serialReference(g, coarseSweep); err != nil || got != want {
				t.Errorf("variant reference %s (err %v), base %s", got, err, want)
			}
		}
	}
}

func TestCheckCores(t *testing.T) {
	for _, tc := range []struct {
		workers, concurrency, gomaxprocs, cpus int
		ok                                     bool
	}{
		{2, 1, 2, 2, true},
		{1, 1, 1, 1, true},
		{4, 1, 2, 2, false},
		{2, 2, 2, 2, false},
		{2, 1, 8, 2, false},
		{0, 1, 2, 2, false},
	} {
		err := checkCores(tc.workers, tc.concurrency, tc.gomaxprocs, tc.cpus)
		if (err == nil) != tc.ok {
			t.Errorf("checkCores(%d, %d, %d, %d) = %v, want ok=%v", tc.workers, tc.concurrency, tc.gomaxprocs, tc.cpus, err, tc.ok)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	var declared []metric
	for _, m := range bj.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end metric %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		declared = append(declared, m)
	}
	for _, m := range bj.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		declared = append(declared, m)
	}
	if len(declared) != len(catalog) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark prints %d", len(declared), len(catalog))
	}
	seen := map[string]bool{}
	for i, m := range catalog {
		d := declared[i]
		if d.Name != m.name || d.Unit != m.unit || (i < len(bj.EndToEnd)) == m.perLayer {
			t.Errorf("metric %d: BENCHMARK.json has %s [%s], benchmark prints %s [%s] perLayer=%v", i, d.Name, d.Unit, m.name, m.unit, m.perLayer)
		}
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("metric %s [%s]: bad or repeated name or unit", m.name, m.unit)
		}
		seen[m.name] = true
	}
}
