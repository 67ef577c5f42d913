package coarse

import (
	"slices"
	"testing"
	"testing/quick"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// testGraph builds a moderately sized random graph whose link structure has
// a meaningful similarity spread.
func testGraph(seed uint64) *graph.Graph {
	return graph.ErdosRenyi(40, 0.25, rng.New(seed))
}

func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int32]int32)
	rev := make(map[int32]int32)
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := rev[b[i]]; ok && y != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestNextModeTruthTable(t *testing.T) {
	cases := []struct {
		c1, c2, c3 bool
		want       Mode
	}{
		{false, true, false, ModeHead},
		{true, true, false, ModeTail},
		{false, false, false, ModeRollback},
		{true, false, false, ModeRollback},
		{false, true, true, ModeDone},
		{true, true, true, ModeDone},
		{false, false, true, ModeDone}, // C3 outranks soundness
		{true, false, true, ModeDone},
	}
	for _, tc := range cases {
		if got := NextMode(tc.c1, tc.c2, tc.c3); got != tc.want {
			t.Errorf("NextMode(%v,%v,%v) = %v, want %v", tc.c1, tc.c2, tc.c3, got, tc.want)
		}
	}
}

func TestModeStrings(t *testing.T) {
	pairs := map[Mode]string{
		ModeHead: "head", ModeTail: "tail", ModeRollback: "rollback",
		ModeDone: "done", Mode(0): "invalid",
	}
	for m, want := range pairs {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	kinds := map[EpochKind]string{
		EpochHeadFresh: "head/fresh", EpochTailFresh: "tail/fresh",
		EpochRollback: "rollback", EpochReused: "reused", EpochKind(0): "invalid",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("EpochKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestParamsValidation(t *testing.T) {
	g := graph.PaperExample()
	pl := core.Similarity(g)
	bad := []Params{
		{Gamma: 1, Phi: 10, Delta0: 10, Eta0: 2},
		{Gamma: 2, Phi: 0, Delta0: 10, Eta0: 2},
		{Gamma: 2, Phi: 10, Delta0: 0, Eta0: 2},
		{Gamma: 2, Phi: 10, Delta0: 10, Eta0: 1},
	}
	for i, p := range bad {
		if _, err := Sweep(g, pl, p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestCoarsePrefixProperty: the coarse sweep's final partition must equal
// the partition obtained by serially replaying exactly the incident pairs
// it processed (it consumes a prefix of the sorted work list, rollbacks
// notwithstanding).
func TestCoarsePrefixProperty(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := testGraph(seed)
		pl := core.Similarity(g)
		params := Params{Gamma: 2, Phi: 5, Delta0: 8, Eta0: 4, Workers: 1}
		res, err := Sweep(g, pl, params)
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorkList(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		ref := core.NewChain(g.NumEdges())
		var done int64
		for p := 0; p < w.numPairs() && done < res.OpsProcessed; p++ {
			ops, err := w.opsOf(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				ref.Merge(op[0], op[1])
			}
			done += w.opCount(p)
		}
		if done != res.OpsProcessed {
			t.Fatalf("seed %d: OpsProcessed %d is not a whole-pair prefix (got %d)", seed, res.OpsProcessed, done)
		}
		if !samePartition(ref.Assignments(), res.Chain.Assignments()) {
			t.Fatalf("seed %d: coarse partition differs from serial prefix replay", seed)
		}
	}
}

func TestCoarseStopsAtPhi(t *testing.T) {
	g := testGraph(7)
	pl := core.Similarity(g)
	res, err := Sweep(g, pl, Params{Gamma: 2, Phi: 10, Delta0: 4, Eta0: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Either stopped below phi or exhausted the list.
	if res.FinalClusters > 10 && res.OpsProcessed < res.TotalOps {
		t.Fatalf("stopped early with %d clusters > phi", res.FinalClusters)
	}
	if res.FinalClusters <= 10 && res.FractionProcessed() >= 1 {
		t.Logf("note: phi reached exactly at the end of the list")
	}
}

func TestCoarseSoundness(t *testing.T) {
	// Between consecutive committed levels the cluster-count ratio stays
	// within gamma, except for atomic single-pair chunks and the final
	// C3-terminated level.
	g := testGraph(3)
	pl := core.Similarity(g)
	gamma := 1.5
	res, err := Sweep(g, pl, Params{Gamma: gamma, Phi: 3, Delta0: 4, Eta0: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := g.NumEdges()
	for i, ep := range res.Epochs {
		if ep.Kind == EpochRollback {
			continue
		}
		ratio := float64(prev) / float64(ep.Clusters)
		final := ep.Clusters <= 3
		if ratio > gamma+1e-9 && ep.Pairs > 1 && ep.Kind != EpochReused && !final {
			t.Fatalf("epoch %d (%v): ratio %v exceeds gamma %v (prev=%d now=%d)",
				i, ep.Kind, ratio, gamma, prev, ep.Clusters)
		}
		prev = ep.Clusters
	}
}

func TestCoarseEpochAccounting(t *testing.T) {
	g := testGraph(5)
	pl := core.Similarity(g)
	res, err := Sweep(g, pl, Params{Gamma: 1.3, Phi: 2, Delta0: 3, Eta0: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var processed, wasted int64
	levels := int32(0)
	for _, ep := range res.Epochs {
		switch ep.Kind {
		case EpochRollback:
			wasted += ep.OpsProcessed
			if ep.Level != 0 {
				t.Fatalf("rollback epoch carries level %d", ep.Level)
			}
		case EpochReused:
			levels++
			if ep.Level != levels {
				t.Fatalf("reused epoch level %d, want %d", ep.Level, levels)
			}
		default:
			levels++
			processed += ep.OpsProcessed
			if ep.Level != levels {
				t.Fatalf("epoch level %d, want %d", ep.Level, levels)
			}
		}
	}
	if levels != res.Levels {
		t.Fatalf("levels %d, epochs imply %d", res.Levels, levels)
	}
	// Reused states move ops from wasted to processed.
	if processed > res.OpsProcessed {
		t.Fatalf("fresh-epoch ops %d exceed result's OpsProcessed %d", processed, res.OpsProcessed)
	}
	if res.OpsProcessed+res.OpsWasted != processed+wasted {
		t.Fatalf("ops ledger unbalanced: %d+%d vs %d+%d",
			res.OpsProcessed, res.OpsWasted, processed, wasted)
	}
	if res.OpsProcessed > res.TotalOps {
		t.Fatalf("processed %d > total %d", res.OpsProcessed, res.TotalOps)
	}
}

func TestCoarseClusterCountsMonotone(t *testing.T) {
	g := testGraph(9)
	pl := core.Similarity(g)
	res, err := Sweep(g, pl, Params{Gamma: 2, Phi: 2, Delta0: 5, Eta0: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := g.NumEdges() + 1
	for _, ep := range res.Epochs {
		if ep.Kind == EpochRollback {
			continue
		}
		if ep.Clusters > prev {
			t.Fatalf("committed cluster count rose: %d after %d", ep.Clusters, prev)
		}
		prev = ep.Clusters
	}
}

func TestCoarseDendrogramConsistent(t *testing.T) {
	// Replaying the emitted merge stream reproduces the final partition.
	g := testGraph(11)
	pl := core.Similarity(g)
	res, err := Sweep(g, pl, Params{Gamma: 2, Phi: 4, Delta0: 6, Eta0: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	uf := core.NewChain(g.NumEdges())
	for _, m := range res.Merges {
		uf.Merge(m.A, m.B)
	}
	if !samePartition(uf.Assignments(), res.Chain.Assignments()) {
		t.Fatal("merge stream does not reproduce the final partition")
	}
	// Levels on the stream never decrease and never exceed res.Levels.
	lastLevel := int32(0)
	for _, m := range res.Merges {
		if m.Level < lastLevel || m.Level > res.Levels {
			t.Fatalf("merge level %d out of order (last %d, max %d)", m.Level, lastLevel, res.Levels)
		}
		lastLevel = m.Level
	}
}

func TestCoarseParallelMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g := testGraph(seed)
		pl := core.Similarity(g)
		params := Params{Gamma: 2, Phi: 4, Delta0: 8, Eta0: 4, Workers: 1}
		serial, err := Sweep(g, pl, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 6} {
			params.Workers = workers
			par, err := Sweep(g, pl, params)
			if err != nil {
				t.Fatal(err)
			}
			if par.Levels != serial.Levels {
				t.Fatalf("seed %d workers %d: levels %d vs %d", seed, workers, par.Levels, serial.Levels)
			}
			if !samePartition(par.Chain.Assignments(), serial.Chain.Assignments()) {
				t.Fatalf("seed %d workers %d: partitions differ", seed, workers)
			}
			if par.OpsProcessed != serial.OpsProcessed {
				t.Fatalf("seed %d workers %d: ops %d vs %d", seed, workers, par.OpsProcessed, serial.OpsProcessed)
			}
		}
	}
}

func TestCoarseTriggersRollbackAndReuse(t *testing.T) {
	// A tight gamma with aggressive chunk growth must trigger rollbacks.
	g := graph.Complete(12) // dense: clusters collapse fast
	pl := core.Similarity(g)
	res, err := Sweep(g, pl, Params{Gamma: 1.2, Phi: 2, Delta0: 64, Eta0: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rollbacks := 0
	for _, ep := range res.Epochs {
		if ep.Kind == EpochRollback {
			rollbacks++
		}
	}
	if rollbacks == 0 {
		t.Fatal("expected rollbacks under tight gamma and aggressive growth")
	}
}

func TestCoarseEmptyAndTinyGraphs(t *testing.T) {
	params := DefaultParams()
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).Build(nil),
		graph.NewBuilder(3).Build(nil),
		graph.DisjointEdges(3),
		graph.Path(3),
	} {
		pl := core.Similarity(g)
		res, err := Sweep(g, pl, params)
		if err != nil {
			t.Fatalf("graph with %d edges: %v", g.NumEdges(), err)
		}
		if res.FinalClusters > g.NumEdges() {
			t.Fatalf("clusters %d > edges %d", res.FinalClusters, g.NumEdges())
		}
	}
}

func TestCoarseDeterministic(t *testing.T) {
	g := testGraph(13)
	pl := core.Similarity(g)
	params := Params{Gamma: 2, Phi: 4, Delta0: 8, Eta0: 4, Workers: 1}
	a, err := Sweep(g, pl, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(g, pl, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Merges) != len(b.Merges) || a.Levels != b.Levels {
		t.Fatalf("nondeterministic shape: %d/%d merges, %d/%d levels",
			len(a.Merges), len(b.Merges), a.Levels, b.Levels)
	}
	for i := range a.Merges {
		if a.Merges[i] != b.Merges[i] {
			t.Fatalf("merge %d differs", i)
		}
	}
}

func TestFixedChunksMatchesStrictSweep(t *testing.T) {
	g := testGraph(17)
	pl := core.Similarity(g)
	tr, err := FixedChunks(g, pl, 10)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := core.Sweep(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalOps != strict.PairsProcessed {
		t.Fatalf("ops: %d vs %d", tr.TotalOps, strict.PairsProcessed)
	}
	last := tr.Clusters[len(tr.Clusters)-1]
	if last != strict.NumClusters() {
		t.Fatalf("final clusters %d vs strict %d", last, strict.NumClusters())
	}
	// Identical op sequence => identical total change count.
	var sum int64
	for _, c := range tr.Changes {
		sum += c
	}
	if sum != strict.Chain.Changes() {
		t.Fatalf("total changes %d vs strict %d", sum, strict.Chain.Changes())
	}
	// Cluster counts non-increasing, cumulative ops increasing to K2.
	prev := g.NumEdges() + 1
	for i, c := range tr.Clusters {
		if c > prev {
			t.Fatalf("chunk %d: clusters rose to %d", i, c)
		}
		prev = c
	}
	if tr.Ops[len(tr.Ops)-1] != tr.TotalOps {
		t.Fatalf("cumulative ops end at %d, want %d", tr.Ops[len(tr.Ops)-1], tr.TotalOps)
	}
}

func TestFixedChunksBadChunkSize(t *testing.T) {
	g := graph.PaperExample()
	pl := core.Similarity(g)
	if _, err := FixedChunks(g, pl, 0); err == nil {
		t.Fatal("chunk size 0 accepted")
	}
}

func TestFixedChunksSingleChunk(t *testing.T) {
	g := graph.PaperExample()
	pl := core.Similarity(g)
	tr, err := FixedChunks(g, pl, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLevels() != 1 {
		t.Fatalf("one giant chunk yielded %d levels", tr.NumLevels())
	}
	if tr.Clusters[0] != 1 {
		t.Fatalf("K_{2,4} should collapse to 1 cluster, got %d", tr.Clusters[0])
	}
}

// TestCoarseQuickRandomParams drives random graphs through random valid
// parameter sets and asserts the structural invariants that must hold for
// any configuration: the prefix property, ops accounting, monotone cluster
// counts, and the dendrogram replay.
func TestCoarseQuickRandomParams(t *testing.T) {
	f := func(seed uint64, gRaw, pRaw, dRaw uint8) bool {
		src := rng.New(seed)
		n := 10 + int(gRaw%25)
		g := graph.ErdosRenyi(n, 0.25, src)
		params := Params{
			Gamma:  1.1 + float64(gRaw%30)/10, // 1.1 .. 4.0
			Phi:    1 + int(pRaw%20),
			Delta0: 1 + int64(dRaw%64),
			Eta0:   1.5 + float64(dRaw%8),
		}
		pl := core.Similarity(g)
		res, err := Sweep(g, pl, params)
		if err != nil {
			return false
		}
		// Ops ledger.
		if res.OpsProcessed < 0 || res.OpsProcessed > res.TotalOps || res.OpsWasted < 0 {
			return false
		}
		// Prefix property.
		w, err := buildWorkList(g, pl)
		if err != nil {
			return false
		}
		ref := core.NewChain(g.NumEdges())
		var done int64
		for p := 0; p < w.numPairs() && done < res.OpsProcessed; p++ {
			ops, err := w.opsOf(p)
			if err != nil {
				return false
			}
			for _, op := range ops {
				ref.Merge(op[0], op[1])
			}
			done += w.opCount(p)
		}
		if done != res.OpsProcessed {
			return false
		}
		if !samePartition(ref.Assignments(), res.Chain.Assignments()) {
			return false
		}
		// Dendrogram replay.
		uf := core.NewChain(g.NumEdges())
		for _, m := range res.Merges {
			uf.Merge(m.A, m.B)
		}
		if !samePartition(uf.Assignments(), res.Chain.Assignments()) {
			return false
		}
		// Monotone committed cluster counts.
		prev := g.NumEdges() + 1
		for _, ep := range res.Epochs {
			if ep.Kind == EpochRollback {
				continue
			}
			if ep.Clusters > prev {
				return false
			}
			prev = ep.Clusters
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGammaTildeConfigurable(t *testing.T) {
	g := testGraph(21)
	pl := core.Similarity(g)
	// Invalid values rejected.
	for _, gt := range []float64{0.5, 1.0, 2.5} {
		p := Params{Gamma: 2, Phi: 5, Delta0: 8, Eta0: 4, GammaTilde: gt}
		if _, err := Sweep(g, pl, p); err == nil {
			t.Errorf("GammaTilde %v accepted", gt)
		}
	}
	// A valid explicit value runs and respects the prefix property.
	p := Params{Gamma: 2, Phi: 5, Delta0: 8, Eta0: 4, GammaTilde: 1.9}
	res, err := Sweep(g, pl, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels == 0 {
		t.Fatal("no levels committed")
	}
	// Zero keeps the paper's default and must behave like before.
	p.GammaTilde = 0
	if _, err := Sweep(g, pl, p); err != nil {
		t.Fatal(err)
	}
}

// TestCoarseUnsortedMatchesPresorted sweeps Phase I's unsorted output,
// which the work list sorts one similarity bucket at a time as the chunks
// reach it, and the same list sorted up front: every output — merges,
// epochs, op counts, final partition — must be identical, and a sweep that
// stops early must leave the unsorted list's tail unsorted.
func TestCoarseUnsortedMatchesPresorted(t *testing.T) {
	g := graph.ErdosRenyi(300, 0.06, rng.New(21))
	for _, workers := range []int{1, 4} {
		params := DefaultParams()
		params.Workers = workers
		sorted := core.Similarity(g)
		sorted.Sort()
		want, err := Sweep(g, sorted, params)
		if err != nil {
			t.Fatal(err)
		}
		pl := core.Similarity(g)
		got, err := Sweep(g, pl, params)
		if err != nil {
			t.Fatal(err)
		}
		if want.OpsProcessed+want.OpsWasted >= want.TotalOps || pl.Sorted() {
			t.Fatalf("T=%d: %d of %d ops processed, list sorted %v: want an early stop over a partly sorted list",
				workers, want.OpsProcessed+want.OpsWasted, want.TotalOps, pl.Sorted())
		}
		if !slices.Equal(got.Merges, want.Merges) || !slices.Equal(got.Epochs, want.Epochs) ||
			got.Levels != want.Levels || got.OpsProcessed != want.OpsProcessed ||
			got.OpsWasted != want.OpsWasted || got.TotalOps != want.TotalOps ||
			got.FinalClusters != want.FinalClusters {
			t.Fatalf("T=%d: unsorted sweep differs from the presorted one", workers)
		}
		if !slices.Equal(got.Chain.Assignments(), want.Chain.Assignments()) {
			t.Fatalf("T=%d: final partitions differ", workers)
		}
	}
}
