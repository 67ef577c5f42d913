package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"linkclust"
)

// pipeline produces a small corpus and graph through the actual subcommands.
func pipeline(t *testing.T) string {
	t.Helper()
	var tweets bytes.Buffer
	if err := run(context.Background(), []string{"synth", "-vocab", "300", "-docs", "800", "-topics", "6", "-seed", "3"}, nil, &tweets); err != nil {
		t.Fatal(err)
	}
	if tweets.Len() == 0 {
		t.Fatal("synth produced nothing")
	}
	var g bytes.Buffer
	if err := run(context.Background(), []string{"graph", "-alpha", "0.3"}, &tweets, &g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(g.String(), "vertices ") {
		t.Fatalf("graph output malformed: %.60s", g.String())
	}
	return g.String()
}

func TestPipelineStats(t *testing.T) {
	gtext := pipeline(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"stats"}, strings.NewReader(gtext), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vertices", "edges", "K1", "K2", "density"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestClusterSweep(t *testing.T) {
	gtext := pipeline(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-communities", "3"}, strings.NewReader(gtext), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"algorithm", "levels", "final clusters", "best cut", "community 1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("cluster output missing %q:\n%s", want, out.String())
		}
	}
}

func TestClusterCoarseAndParallel(t *testing.T) {
	gtext := pipeline(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "coarse", "-phi", "10", "-delta0", "50", "-workers", "2"},
		strings.NewReader(gtext), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pairs processed") {
		t.Fatalf("coarse output missing pairs processed:\n%s", out.String())
	}
}

func TestClusterBaselines(t *testing.T) {
	gtext := pipeline(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"cluster", "-algo", "nbm"}, strings.NewReader(gtext), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "matrix bytes") {
		t.Fatalf("nbm output:\n%s", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"cluster", "-algo", "slink"}, strings.NewReader(gtext), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SLINK") {
		t.Fatalf("slink output:\n%s", out.String())
	}
}

func TestClusterMergesFlag(t *testing.T) {
	gtext := pipeline(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-merges"}, strings.NewReader(gtext), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "level 1:") {
		t.Fatalf("merge stream missing:\n%s", out.String())
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"cluster", "-algo", "quantum"},
		{"graph", "-alpha", "7"},
		{"stats", "-in", "/nonexistent/file"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, strings.NewReader(""), &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestGraphEmptyCorpusFails(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"graph"}, strings.NewReader("\n\n"), &out); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestClusterNewickOutput(t *testing.T) {
	gtext := pipeline(t)
	path := t.TempDir() + "/dendro.nwk"
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-newick", path}, strings.NewReader(gtext), &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), ";") || !strings.Contains(string(data), "(") {
		t.Fatalf("newick output malformed: %.80s", data)
	}
	if !strings.Contains(out.String(), "dendrogram written") {
		t.Fatalf("missing confirmation:\n%s", out.String())
	}
}

func TestSimilCacheAndReuse(t *testing.T) {
	gtext := pipeline(t)
	dir := t.TempDir()
	gpath := dir + "/graph.txt"
	if err := os.WriteFile(gpath, []byte(gtext), 0o644); err != nil {
		t.Fatal(err)
	}
	ppath := dir + "/pairs.bin"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"simil", "-in", gpath, "-out", ppath, "-workers", "2"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("simil output:\n%s", out.String())
	}

	// Clustering from the cache must match clustering from scratch.
	var fromCache, fromScratch bytes.Buffer
	if err := run(context.Background(), []string{"cluster", "-in", gpath, "-pairs", ppath, "-algo", "sweep"}, nil, &fromCache); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"cluster", "-in", gpath, "-algo", "sweep"}, nil, &fromScratch); err != nil {
		t.Fatal(err)
	}
	if fromCache.String() != fromScratch.String() {
		t.Fatalf("cached pairs changed the result:\n%s\nvs\n%s", fromCache.String(), fromScratch.String())
	}
}

// TestClusterPairsChecked feeds -pairs files that must be refused before any
// sweep runs: a pair list computed from another graph, which CheckPairs
// rejects, and a file in the retired version-1 format.
func TestClusterPairsChecked(t *testing.T) {
	dir := t.TempDir()
	gpath := dir + "/graph.txt"
	if err := os.WriteFile(gpath, []byte(pipeline(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var other bytes.Buffer
	if err := run(context.Background(), []string{"synth", "-vocab", "300", "-docs", "800", "-topics", "6", "-seed", "4"}, nil, &other); err != nil {
		t.Fatal(err)
	}
	opath := dir + "/other.txt"
	f, err := os.Create(opath)
	if err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"graph", "-alpha", "0.3"}, &other, f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	foreign := dir + "/foreign.bin"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"simil", "-in", opath, "-out", foreign}, nil, &out); err != nil {
		t.Fatal(err)
	}
	// Version 1: magic, version, unsorted, one pair (0,1) with similarity
	// 0.5 and its one common neighbor, 2.
	v1 := []byte("LCPL\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00" +
		"\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\xe0\x3f" +
		"\x01\x00\x00\x00\x02\x00\x00\x00")
	old := dir + "/v1.bin"
	if err := os.WriteFile(old, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ pairs, want string }{
		{foreign, "common neighbors"},
		{old, "unsupported pair list version 1"},
	} {
		for _, algo := range []string{"sweep", "coarse"} {
			rpath := dir + "/run.json"
			out.Reset()
			err := run(context.Background(), []string{"cluster", "-in", gpath, "-pairs", tc.pairs, "-algo", algo, "-report", rpath}, nil, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s -algo %s: err = %v, want one containing %q", tc.pairs, algo, err, tc.want)
			}
			data, rerr := os.ReadFile(rpath)
			if rerr != nil {
				t.Fatalf("partial report not written: %v", rerr)
			}
			var rep linkclust.RunReport
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			loaded := false
			for _, p := range rep.Phases {
				if p.Path != "read-graph" && p.Path != "load-pairs" {
					t.Fatalf("%s -algo %s: phase %q ran before the pair list was refused", tc.pairs, algo, p.Path)
				}
				loaded = loaded || p.Path == "load-pairs"
			}
			if !loaded {
				t.Fatalf("%s -algo %s: report has no load-pairs phase: %+v", tc.pairs, algo, rep.Phases)
			}
		}
	}
}

func TestSaveMerges(t *testing.T) {
	gtext := pipeline(t)
	path := t.TempDir() + "/merges.bin"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-save-merges", path}, strings.NewReader(gtext), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 || string(data[:4]) != "LCMG" {
		t.Fatalf("merge file malformed: %x", data[:min(16, len(data))])
	}
}

func TestSimilRequiresOut(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"simil"}, strings.NewReader("vertices 2\nedge 0 1 1\n"), &out); err == nil {
		t.Fatal("simil without -out accepted")
	}
}

func TestClusterDotOutput(t *testing.T) {
	gtext := pipeline(t)
	path := t.TempDir() + "/graph.dot"
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-dot", path}, strings.NewReader(gtext), &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "graph linkclust {") || !strings.Contains(string(data), "--") {
		t.Fatalf("DOT malformed: %.100s", data)
	}
}

// TestClusterDotAndCommunities sets -dot and -communities together: the DOT
// file must colour edges by the same best cut the printed communities and
// density come from.
func TestClusterDotAndCommunities(t *testing.T) {
	// Two K4s sharing vertex 3, plus a triangle hanging off vertex 6: the
	// best cut keeps the three dense groups apart.
	var gb strings.Builder
	gb.WriteString("vertices 9\n")
	for _, clique := range [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}, {6, 7, 8}} {
		for i, u := range clique {
			for _, v := range clique[i+1:] {
				fmt.Fprintf(&gb, "edge %d %d 1\n", u, v)
			}
		}
	}
	gtext := gb.String()
	path := t.TempDir() + "/graph.dot"
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-dot", path, "-communities", "1000"}, strings.NewReader(gtext), &out)
	if err != nil {
		t.Fatal(err)
	}
	dotFile, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	g, err := linkclust.ReadGraph(strings.NewReader(gtext))
	if err != nil {
		t.Fatal(err)
	}
	res, err := linkclust.ClusterCtx(context.Background(), g, linkclust.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	theta, density, labels := linkclust.BestCut(g, linkclust.NewDendrogram(res))
	var wantDOT bytes.Buffer
	if err := linkclust.WriteDOT(&wantDOT, g, func(e int32) int32 { return labels[e] }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dotFile, wantDOT.Bytes()) {
		t.Fatal("DOT colouring differs from the best cut")
	}
	comms := linkclust.Communities(g, labels)
	if len(comms) < 2 {
		t.Fatalf("best cut has %d communities; need several to tell cuts apart", len(comms))
	}
	if want := fmt.Sprintf("best cut: sim >= %.6g, partition density %.4f\n", theta, density); !strings.Contains(out.String(), want) {
		t.Fatalf("output missing %q:\n%s", want, out.String())
	}
	for i, c := range comms {
		want := fmt.Sprintf("community %d: %d links, %d nodes:", i+1, len(c.Edges), len(c.Nodes))
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestAnalyzeFromSavedMerges(t *testing.T) {
	gtext := pipeline(t)
	dir := t.TempDir()
	gpath := dir + "/graph.txt"
	if err := os.WriteFile(gpath, []byte(gtext), 0o644); err != nil {
		t.Fatal(err)
	}
	mpath := dir + "/merges.bin"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"cluster", "-in", gpath, "-algo", "sweep", "-save-merges", mpath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"analyze", "-in", gpath, "-merges", mpath, "-cuts", "5"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim>=", "clusters", "density", "coverage", "max partition density"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("analyze output missing %q:\n%s", want, out.String())
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"analyze"}, strings.NewReader("vertices 2\nedge 0 1 1\n"), &out); err == nil {
		t.Fatal("analyze without -merges accepted")
	}
	if err := run(context.Background(), []string{"analyze", "-merges", "/nonexistent"}, strings.NewReader("vertices 2\nedge 0 1 1\n"), &out); err == nil {
		t.Fatal("missing merges file accepted")
	}
}

// TestClusterEngineFlagMatchesPlain runs every accepted engine name at
// worker counts 1, 2, 4 and 8 and requires the saved merge stream to equal
// the default run's byte for byte, with the engine that ran named in the
// banner (the retired names auto and serial run the in-memory engine); an
// unknown engine must fail naming the valid ones.
func TestClusterEngineFlagMatchesPlain(t *testing.T) {
	gtext := pipeline(t)
	dir := t.TempDir()
	plain := dir + "/plain.bin"
	var out bytes.Buffer
	if err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-save-merges", plain}, strings.NewReader(gtext), &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"auto", "serial", "parallel", "spill"} {
		ran := "parallel"
		if engine == "spill" {
			ran = "spill"
		}
		for _, workers := range []string{"1", "2", "4", "8"} {
			path := dir + "/" + engine + workers + ".bin"
			out.Reset()
			err := run(context.Background(), []string{"cluster", "-algo", "sweep", "-engine", engine, "-workers", workers, "-save-merges", path},
				strings.NewReader(gtext), &out)
			if err != nil {
				t.Fatalf("-engine %s -workers %s: %v", engine, workers, err)
			}
			if !strings.Contains(out.String(), "engine="+ran) {
				t.Fatalf("-engine %s run not labeled engine=%s:\n%s", engine, ran, out.String())
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("-engine %s -workers %s changed the merge stream", engine, workers)
			}
		}
	}
	err = run(context.Background(), []string{"cluster", "-engine", "pipelined"}, strings.NewReader(gtext), &out)
	if err == nil || !strings.Contains(err.Error(), "want auto, serial, parallel, spill") {
		t.Fatalf("unknown engine error = %v, want one naming the valid engines", err)
	}
}

func TestClusterSpillDirRequiresSweep(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"cluster", "-algo", "coarse", "-spill-dir", t.TempDir()}, strings.NewReader("vertices 2\nedge 0 1 1\n"), &out)
	if err == nil {
		t.Fatal("-spill-dir accepted with -algo coarse")
	}
}

// TestClusterTimeoutWritesPartialReport exercises the -timeout flag: an
// already-expired deadline must abort the run with the context's error, and
// the run report must still be written, tagged with that error.
func TestClusterTimeoutWritesPartialReport(t *testing.T) {
	gtext := pipeline(t)
	rpath := t.TempDir() + "/run.json"
	var out bytes.Buffer
	err := run(context.Background(),
		[]string{"cluster", "-algo", "sweep", "-timeout", "1ns", "-report", rpath},
		strings.NewReader(gtext), &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	data, rerr := os.ReadFile(rpath)
	if rerr != nil {
		t.Fatalf("partial report not written: %v", rerr)
	}
	if !strings.Contains(string(data), "deadline exceeded") {
		t.Fatalf("partial report missing error tag:\n%s", data)
	}
}

// TestSimilTimeout covers the same flag on the simil subcommand.
func TestSimilTimeout(t *testing.T) {
	gtext := pipeline(t)
	ppath := t.TempDir() + "/pairs.bin"
	var out bytes.Buffer
	err := run(context.Background(),
		[]string{"simil", "-out", ppath, "-timeout", "1ns"},
		strings.NewReader(gtext), &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestClusterCanceledContext models SIGINT: the signal context arrives
// already canceled and the run must unwind with context.Canceled.
func TestClusterCanceledContext(t *testing.T) {
	gtext := pipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := run(ctx, []string{"cluster", "-algo", "sweep", "-workers", "4"}, strings.NewReader(gtext), &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestInterruptedRunReportCompleteJSON pins the SIGINT report contract: by
// the time run() returns on the signal path — the moment main is first
// allowed to raise exit code 130 — the partial run report must already be
// a complete, parseable JSON document tagged with the interrupting error.
// (The old main exited through a path that could cross the report writer's
// defers; run() returning is now the join point.)
func TestInterruptedRunReportCompleteJSON(t *testing.T) {
	gtext := pipeline(t)
	rpath := t.TempDir() + "/interrupted.json"
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // SIGINT already delivered
	var out bytes.Buffer
	err := run(ctx, []string{"cluster", "-algo", "sweep", "-workers", "4", "-report", rpath},
		strings.NewReader(gtext), &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	data, rerr := os.ReadFile(rpath)
	if rerr != nil {
		t.Fatalf("partial report not flushed before run returned: %v", rerr)
	}
	var rep struct {
		Schema string            `json:"schema"`
		Meta   map[string]string `json:"meta"`
	}
	if uerr := json.Unmarshal(data, &rep); uerr != nil {
		t.Fatalf("interrupted run left malformed report JSON: %v\n%s", uerr, data)
	}
	if rep.Schema != "linkclust/run-report/v1" {
		t.Fatalf("report schema = %q", rep.Schema)
	}
	if !strings.Contains(rep.Meta["error"], "canceled") {
		t.Fatalf("report meta.error = %q, want the cancellation tag", rep.Meta["error"])
	}
	// The atomic temp file must not linger next to the report.
	if _, serr := os.Stat(rpath + ".tmp"); !os.IsNotExist(serr) {
		t.Fatalf("temp report file left behind: %v", serr)
	}
}
