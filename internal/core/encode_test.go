package core

import (
	"bytes"
	"fmt"
	"math"
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
	if want := 16 + pairRecordFixed*len(pl.Pairs); buf.Len() != want {
		t.Fatalf("encoded %d bytes, want a 16-byte header and %d-byte records: %d", buf.Len(), pairRecordFixed, want)
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
		if a, b := pl.Pairs[i], got.Pairs[i]; a != b {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a, b)
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
	requireIdenticalSweep(t, "decoded list", b, a)
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

// TestCheckPairsNamesFirstFailure plants one bad pair of each kind CheckPairs
// rejects, alone and behind a count mismatch, and requires the error to
// name the first failing pair in list order.
func TestCheckPairsNamesFirstFailure(t *testing.T) {
	g := graph.ErdosRenyi(40, 0.2, rng.New(1))
	for name, plant := range map[string]func(p *Pair){
		"count":     func(p *Pair) { p.N++ },
		"swapped":   func(p *Pair) { p.U, p.V = p.V, p.U },
		"range":     func(p *Pair) { p.V = int32(g.NumVertices()) },
		"nan":       func(p *Pair) { p.Sim = math.NaN() },
		"order":     func(p *Pair) { p.Sim = 2 },
		"no-common": func(p *Pair) { p.N = 0 },
	} {
		for _, at := range []int{3, 7} {
			pl := Similarity(g)
			pl.Sort()
			plant(&pl.Pairs[at])
			if at == 7 {
				pl.Pairs[3].N--
			}
			want := fmt.Sprintf("pair 3 (%d,%d)", pl.Pairs[3].U, pl.Pairs[3].V)
			if err := CheckPairs(g, pl); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s at %d: error %v, want one naming %s", name, at, err, want)
			}
		}
	}
	pl := Similarity(g)
	pl.Sort()
	if err := CheckPairs(g, pl); err != nil {
		t.Fatalf("Phase I's sorted list: %v", err)
	}
}
