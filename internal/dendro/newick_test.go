package dendro

import (
	"bytes"
	"strings"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

func TestNewickPaperExample(t *testing.T) {
	g, d := paperDendrogram(t)
	var buf bytes.Buffer
	err := d.WriteNewick(&buf, func(e int32) string {
		edge := g.Edge(int(e))
		return g.Label(int(edge.U)) + "-" + g.Label(int(edge.V))
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// K_{2,4} is link-connected: exactly one tree.
	if strings.Count(out, ";") != 1 {
		t.Fatalf("want 1 tree, got:\n%s", out)
	}
	// All 8 leaves present.
	for _, leaf := range []string{"a-c", "a-d", "a-e", "a-f", "b-c", "b-d", "b-e", "b-f"} {
		if !strings.Contains(out, leaf) {
			t.Fatalf("leaf %s missing:\n%s", leaf, out)
		}
	}
	// Balanced parentheses.
	if strings.Count(out, "(") != strings.Count(out, ")") {
		t.Fatalf("unbalanced parentheses:\n%s", out)
	}
	// 7 merges -> 7 internal nodes -> 7 '(' .
	if strings.Count(out, "(") != 7 {
		t.Fatalf("want 7 internal nodes, got %d:\n%s", strings.Count(out, "("), out)
	}
}

func TestNewickForest(t *testing.T) {
	// A perfect matching never merges: n trees of single leaves.
	g := graph.DisjointEdges(3)
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	var buf bytes.Buffer
	if err := d.WriteNewick(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 trees, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "e0") || !strings.Contains(out, "e2") {
		t.Fatalf("default leaf names missing:\n%s", out)
	}
}

func TestNewickBranchLengthsNonNegative(t *testing.T) {
	g := graph.ErdosRenyi(20, 0.3, rng.New(4))
	res, err := core.Sweep(g, core.Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	d := New(g.NumEdges(), res.Merges)
	var buf bytes.Buffer
	if err := d.WriteNewick(&buf, nil); err != nil {
		t.Fatal(err)
	}
	for _, tok := range strings.FieldsFunc(buf.String(), func(r rune) bool {
		return r == '(' || r == ')' || r == ',' || r == ';' || r == '\n'
	}) {
		if i := strings.LastIndex(tok, ":"); i >= 0 {
			if strings.HasPrefix(tok[i+1:], "-") {
				t.Fatalf("negative branch length in %q", tok)
			}
		}
	}
}

func TestNewickSanitize(t *testing.T) {
	if got := sanitizeNewick("a b(c):d;e"); got != "a_b_c__d_e" {
		t.Fatalf("sanitize = %q", got)
	}
}

func TestNewickCoarseStream(t *testing.T) {
	// Coarse merges (shared levels, possibly multi-way fusions expressed
	// pairwise) must still serialize.
	merges := []core.Merge{
		{Level: 1, A: 0, B: 1, Into: 0, Sim: 0.9},
		{Level: 1, A: 2, B: 3, Into: 2, Sim: 0.9},
		{Level: 2, A: 0, B: 2, Into: 0, Sim: 0.5},
	}
	d := New(5, merges)
	var buf bytes.Buffer
	if err := d.WriteNewick(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, ";") != 2 { // joined tree + lone e4
		t.Fatalf("want 2 trees:\n%s", out)
	}
}
