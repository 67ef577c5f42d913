package core

import (
	"context"
	"testing"

	"linkclust/internal/graph"
	"linkclust/internal/rng"
)

// TestSortCursor steps a cursor through a list big enough for 16-bit
// buckets in increments of varying size: after every SortTo the prefix must
// equal list L through the end of the bucket that holds the index asked
// for, and the end of the whole run must be list L itself. Sorting the last
// bucket sets the list's sorted flag; a list flagged sorted is left alone.
func TestSortCursor(t *testing.T) {
	g := graph.ErdosRenyi(400, 0.06, rng.New(8))
	want := Similarity(g)
	want.Sort()
	if len(want.Pairs) < bucketSmallPairs {
		t.Fatalf("%d pairs: want 16-bit buckets", len(want.Pairs))
	}
	_, offs, _ := bucketLayout(want.Pairs, 1)
	for _, step := range []int{1, 97, 2500, len(want.Pairs)} {
		pl := Similarity(g)
		c, err := NewSortCursor(context.Background(), pl, 2)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for i := 0; i < len(want.Pairs); i += step {
			if err := c.SortTo(i); err != nil {
				t.Fatal(err)
			}
			end := c.Sorted()
			if b := simBucket(want.Pairs[i].Sim, 64-bucketBits); end != offs[b+1] {
				t.Fatalf("step %d: SortTo(%d) sorted to %d, want the end of its bucket, %d", step, i, end, offs[b+1])
			}
			for j := prev; j < end; j++ {
				if cmpPairs(pl.Pairs[j], want.Pairs[j]) != 0 {
					t.Fatalf("step %d: after SortTo(%d), pair %d differs from list L", step, i, j)
				}
			}
			prev = end
		}
		if err := c.SortTo(len(want.Pairs)); err != nil {
			t.Fatal(err)
		}
		if !pl.Sorted() || c.Sorted() != len(want.Pairs) {
			t.Fatalf("step %d: whole list sorted to %d, flag %v", step, c.Sorted(), pl.Sorted())
		}
		for j := range want.Pairs {
			if cmpPairs(pl.Pairs[j], want.Pairs[j]) != 0 {
				t.Fatalf("step %d: pair %d differs from list L", step, j)
			}
		}
	}
	c, err := NewSortCursor(context.Background(), want, 2)
	if err != nil || c.Sorted() != len(want.Pairs) {
		t.Fatalf("cursor over a sorted list: sorted to %d, err %v", c.Sorted(), err)
	}
}
