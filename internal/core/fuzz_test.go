package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
	"linkclust/internal/spill"
)

// fuzzGraph decodes an arbitrary byte string into a small graph: the first
// byte sets the vertex count (2..24), each following triple (u, v, w) adds
// one edge with a positive weight. Invalid triples (self-loops, duplicates)
// are skipped, mirroring how a lenient loader would treat them.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%23
	b := graph.NewBuilder(n)
	for i := 1; i+2 < len(data); i += 3 {
		u := int(data[i]) % n
		v := int(data[i+1]) % n
		w := 0.25 + float64(data[i+2]%8)/4
		if u == v {
			continue
		}
		_ = b.AddEdge(u, v, w) // duplicates rejected; that's fine
	}
	if b.NumEdges() == 0 {
		return nil
	}
	return b.Build(nil)
}

// FuzzSweep drives serial and parallel sweeps over arbitrary small graphs
// and checks the structural invariants of Algorithm 2's output:
//
//   - every chain F(i) terminates at a self-loop, with pointers that never
//     increase (writes to array C always write cluster minima),
//   - every merge event has Into == min(A, B) and consecutive levels,
//   - merge similarities are non-increasing along the level sequence
//     (the pair list is swept in descending similarity order),
//   - the parallel engine reproduces the serial stream exactly at several
//     worker counts, from Phase I's order and from a seeded shuffle of it.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 1})
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 2, 0, 0})
	f.Add([]byte{2, 0, 1, 7})
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		f := oracleFamily{name: "fuzz", g: g}
		ref := oracleReference(t, f)
		serial := ref.serial
		c := serial.Chain.c
		for i := range c {
			if c[i] > int32(i) {
				t.Fatalf("chain invariant violated: c[%d] = %d > %d", i, c[i], i)
			}
			x := int32(i)
			for steps := 0; c[x] != x; steps++ {
				if steps > len(c) {
					t.Fatalf("chain from %d does not terminate at a self-loop", i)
				}
				if c[x] > x {
					t.Fatalf("chain from %d increases: c[%d] = %d", i, x, c[x])
				}
				x = c[x]
			}
		}
		for i, m := range serial.Merges {
			into := m.A
			if m.B < into {
				into = m.B
			}
			if m.Into != into {
				t.Fatalf("merge %d: Into = %d, want min(%d,%d)", i, m.Into, m.A, m.B)
			}
			if m.Level != int32(i+1) {
				t.Fatalf("merge %d: Level = %d, want %d", i, m.Level, i+1)
			}
			if i > 0 && m.Sim > serial.Merges[i-1].Sim {
				t.Fatalf("merge %d: similarity rose %v -> %v", i, serial.Merges[i-1].Sim, m.Sim)
			}
		}
		runCells(t, f, ref, []int{1, 2, 5, 8}, pathInMemory)
		// Phase I's order is one unsorted order among many; the engine
		// sorts any of them only as far as it reads.
		h := fnv.New64a()
		h.Write(data)
		src := rng.New(h.Sum64())
		for _, workers := range []int{1, 2, 5, 8} {
			pl := Similarity(g)
			src.Shuffle(len(pl.Pairs), func(i, j int) { pl.Pairs[i], pl.Pairs[j] = pl.Pairs[j], pl.Pairs[i] })
			runCells(t, oracleFamily{name: "shuffled", g: g, pl: pl}, ref, []int{workers}, pathInMemory)
		}
	})
}

// FuzzSimilarity drives the initialization phase (Algorithm 1) over
// arbitrary small graphs and checks the wedge-major kernel against the
// legacy hash-map reference: after Sort, the pair lists must be element-wise
// identical — same keys, bitwise-equal similarities, identical
// common-neighbor counts — serially and at several worker counts, and the
// ops AppendOps regenerates must be exactly the legacy kernel's
// common-neighbor lists. It also checks the structural invariants of map M:
// canonical key order U < V, no duplicate keys after sorting, and
// similarities within (0, 1].
func FuzzSimilarity(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 1})
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 2, 0, 0})
	f.Add([]byte{2, 0, 1, 7})
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		legacy := legacyPairList(g)
		legacy.Sort()
		for i, p := range legacy.Pairs {
			if p.U >= p.V {
				t.Fatalf("pair %d: key (%d,%d) not canonical", i, p.U, p.V)
			}
			if i > 0 && legacy.Pairs[i-1].U == p.U && legacy.Pairs[i-1].V == p.V {
				t.Fatalf("pair %d: duplicate key (%d,%d)", i, p.U, p.V)
			}
			if !(p.Sim > 0 && p.Sim <= 1) {
				t.Fatalf("pair %d: similarity %v outside (0, 1]", i, p.Sim)
			}
		}
		requireIdenticalSorted(t, "fuzz wedge vs legacy", Similarity(g), legacy)
		for _, workers := range []int{2, 5, 8} {
			requireIdenticalSorted(t, "fuzz parallel wedge vs legacy", SimilarityParallel(g, workers), legacy)
		}
		requireOpsMatchLegacy(t, "fuzz ops vs legacy", g)
	})
}

// FuzzSpillRoundTrip drives the out-of-core spill file. Hostile bytes come
// first: written as a spill file's whole contents under a valid CRC trailer,
// they must read back as a typed spill error or as exactly the list they
// encode — never a panic. Then an arbitrary graph's pair list, in Phase I
// order or sorted, is written by the spilled sweep's writer and read back:
// the list and its sorted flag must survive bitwise. Finally one byte flip
// or truncation (position fuzzer-chosen) is applied to that file, and the
// read-back must fail with a typed spill error, never return a list.
func FuzzSpillRoundTrip(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 1}, uint32(7), false)
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 2, 0, 0}, uint32(33), true)
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint32(0), false)
	f.Fuzz(func(t *testing.T, data []byte, mutOff uint32, truncate bool) {
		ctx := context.Background()
		dir := t.TempDir()
		hostile, err := spill.Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer hostile.Remove()
		if hostile.Write(data) != nil || hostile.Finish() != nil {
			t.Fatal("writing hostile bytes failed")
		}
		if back, err := readSpill(ctx, hostile); err != nil {
			requireSpillError(t, "hostile contents", err)
		} else {
			if len(data) != pairListHeaderSize+pairRecordFixed*len(back.Pairs) {
				t.Fatalf("%d hostile bytes read back as %d pairs", len(data), len(back.Pairs))
			}
			for i := range back.Pairs {
				rec := data[pairListHeaderSize+i*pairRecordFixed:][:pairRecordFixed]
				if !bytes.Equal(appendPairRecord(nil, &back.Pairs[i]), rec) {
					t.Fatalf("hostile pair %d read back as %+v, not its record", i, back.Pairs[i])
				}
			}
		}

		g := fuzzGraph(data)
		if g == nil {
			return
		}
		pl := Similarity(g)
		if mutOff&1 == 1 {
			pl.Sort()
		}
		sf, err := spill.Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Remove()
		if err := writeSpill(ctx, sf, pl); err != nil {
			t.Fatal(err)
		}
		back, err := readSpill(ctx, sf)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if back.Sorted() != pl.Sorted() || len(back.Pairs) != len(pl.Pairs) {
			t.Fatalf("round trip: %d pairs sorted=%v, wrote %d sorted=%v", len(back.Pairs), back.Sorted(), len(pl.Pairs), pl.Sorted())
		}
		for i := range pl.Pairs {
			if !bytes.Equal(appendPairRecord(nil, &back.Pairs[i]), appendPairRecord(nil, &pl.Pairs[i])) {
				t.Fatalf("round trip: pair %d is %+v, wrote %+v", i, back.Pairs[i], pl.Pairs[i])
			}
		}

		raw, err := os.ReadFile(sf.Path())
		if err != nil {
			t.Fatal(err)
		}
		if truncate {
			raw = raw[:int(mutOff)%len(raw)]
		} else {
			raw[int(mutOff)%len(raw)] ^= 0x01 | byte(mutOff>>8)
		}
		if err := os.WriteFile(sf.Path(), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSpill(ctx, sf); err == nil {
			t.Fatal("mutated spill file read back cleanly")
		} else {
			requireSpillError(t, "mutated file", err)
		}
	})
}

// FuzzSimilarityKernels drives the parallel wedge kernel (count-then-fill
// into a CSR layout) over arbitrary small graphs at several worker counts:
// it must reproduce the serial kernel's pair list bitwise in its pre-Sort
// master order, not just as a set, and the serial kernel's counts N must be
// the lengths of the legacy kernel's common-neighbor lists.
func FuzzSimilarityKernels(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 1})
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 2, 0, 0})
	f.Add([]byte{2, 0, 1, 7})
	f.Add([]byte{24, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		serial := Similarity(g)
		for _, workers := range []int{3, 8} {
			requireIdenticalPreSort(t, fmt.Sprintf("fuzz parallel T=%d vs serial", workers), SimilarityParallel(g, workers), serial)
		}
		requireIdenticalSorted(t, "fuzz serial vs legacy", serial, legacyPairList(g))
	})
}

// FuzzReadPairList feeds hostile pair-list files to the boundary a file
// crosses before a sweep: ReadPairList and then CheckPairs against a fixed
// small graph. Neither may panic, and every list both accept must sweep at
// T=1 and T=2 to exactly the serial oracle's merge stream — the engine
// trusts the counts N past closure, so a list CheckPairs lets through must
// be one whose counts are right.
func FuzzReadPairList(f *testing.F) {
	g := fuzzGraph([]byte{9, 0, 1, 2, 1, 2, 3, 2, 0, 1, 2, 3, 5, 3, 4, 7, 4, 5, 1, 5, 3, 2, 3, 6, 6, 6, 7, 1, 7, 8, 4, 8, 6, 2, 1, 4, 3})
	encode := func(pl *PairList) []byte {
		var buf bytes.Buffer
		if err := WritePairList(&buf, pl); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	unsorted := Similarity(g)
	f.Add(encode(unsorted))
	sorted := Similarity(g)
	sorted.Sort()
	f.Add(encode(sorted))
	bad := Similarity(g)
	bad.Pairs[len(bad.Pairs)/2].N++
	f.Add(encode(bad))
	v1 := encode(unsorted)
	v1[4] = 1
	f.Add(v1)
	f.Add(encode(unsorted)[:30])
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := ReadPairList(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := CheckPairs(g, pl); err != nil {
			return
		}
		f := oracleFamily{name: "checked list", g: g, pl: pl}
		runCells(t, f, oracleReference(t, f), []int{1, 2}, pathInMemory)
	})
}
