package core

import (
	"bytes"
	"strings"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

func TestPairListRoundTrip(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.2, rng.New(1))
	pl := Similarity(g)
	pl.Sort()
	var buf bytes.Buffer
	if err := WritePairList(&buf, pl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPairList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sorted() {
		t.Fatal("sorted flag lost")
	}
	if len(got.Pairs) != len(pl.Pairs) {
		t.Fatalf("%d pairs, want %d", len(got.Pairs), len(pl.Pairs))
	}
	for i := range pl.Pairs {
		a, b := &pl.Pairs[i], &got.Pairs[i]
		if a.U != b.U || a.V != b.V || a.Sim != b.Sim {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a, b)
		}
		if len(a.Common) != len(b.Common) {
			t.Fatalf("pair %d commons differ", i)
		}
		for j := range a.Common {
			if a.Common[j] != b.Common[j] {
				t.Fatalf("pair %d common %d differs", i, j)
			}
		}
	}
}

func TestPairListRoundTripUnsorted(t *testing.T) {
	g := graph.PaperExample()
	pl := Similarity(g)
	var buf bytes.Buffer
	if err := WritePairList(&buf, pl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPairList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sorted() {
		t.Fatal("unsorted list decoded as sorted")
	}
	// The decoded list must drive an identical sweep.
	a, err := Sweep(g, pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(g, got)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Merges) != len(b.Merges) {
		t.Fatalf("sweeps differ: %d vs %d merges", len(a.Merges), len(b.Merges))
	}
	for i := range a.Merges {
		if a.Merges[i] != b.Merges[i] {
			t.Fatalf("merge %d differs", i)
		}
	}
}

func TestMergesRoundTrip(t *testing.T) {
	g := graph.ErdosRenyi(30, 0.25, rng.New(2))
	res, err := Sweep(g, Similarity(g))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMerges(&buf, g.NumEdges(), res.Merges); err != nil {
		t.Fatal(err)
	}
	n, merges, err := ReadMerges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumEdges() {
		t.Fatalf("edge count %d, want %d", n, g.NumEdges())
	}
	if len(merges) != len(res.Merges) {
		t.Fatalf("%d merges, want %d", len(merges), len(res.Merges))
	}
	for i := range merges {
		if merges[i] != res.Merges[i] {
			t.Fatalf("merge %d differs: %+v vs %+v", i, merges[i], res.Merges[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"LCPL",                     // truncated header
		"LCMG",                     // truncated header
		"LCPL\xff\xff\xff\xff",     // bad version
		"LCMG\x01\x00\x00\x00\x05", // truncated counts
		strings.Repeat("LCPL", 3),  // magic then garbage
	}
	for _, in := range cases {
		if _, err := ReadPairList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadPairList accepted %q", in)
		}
		if _, _, err := ReadMerges(strings.NewReader(in)); err == nil {
			t.Errorf("ReadMerges accepted %q", in)
		}
	}
}

func TestDecodeRejectsTruncatedBody(t *testing.T) {
	g := graph.PaperExample()
	pl := Similarity(g)
	var buf bytes.Buffer
	if err := WritePairList(&buf, pl); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 13} {
		if _, err := ReadPairList(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsOutOfRangeMergeIDs(t *testing.T) {
	var buf bytes.Buffer
	merges := []Merge{{Level: 1, A: 0, B: 9, Into: 0, Sim: 0.5}} // B out of range for n=3
	if err := WriteMerges(&buf, 3, merges); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadMerges(&buf); err == nil {
		t.Fatal("out-of-range merge accepted")
	}
}

func TestEmptyCollectionsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePairList(&buf, &PairList{}); err != nil {
		t.Fatal(err)
	}
	pl, err := ReadPairList(&buf)
	if err != nil || len(pl.Pairs) != 0 {
		t.Fatalf("empty pair list: %v, %d pairs", err, len(pl.Pairs))
	}
	buf.Reset()
	if err := WriteMerges(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	n, merges, err := ReadMerges(&buf)
	if err != nil || n != 0 || len(merges) != 0 {
		t.Fatalf("empty merges: %v n=%d len=%d", err, n, len(merges))
	}
}
