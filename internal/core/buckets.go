package core

import (
	"context"
	"math"

	"linkclust/internal/par"
)

// Bucket policy of the similarity partition the sort cursor sorts by.
const (
	// bucketSmallPairs selects the reduced bucket-bit width: lists below
	// this size use bucketSmallBits so the histogram never dwarfs the input.
	// The threshold depends only on list length, keeping bucket boundaries
	// (and CtrSweepSortedPairs) worker-invariant.
	bucketSmallPairs = 1 << 13
	// bucketBits is the MSD radix width of the similarity partition — sign,
	// the full 11-bit exponent, and 4 mantissa bits, so each binade of
	// similarities splits into 16 buckets.
	bucketBits = 16
	// bucketSmallBits is the width used below bucketSmallPairs.
	bucketSmallBits = 8
)

// simBucket maps a similarity to its MSD radix bucket: the top bits of the
// descending monotonic key of its float64 representation. The key transform
// (flip all bits of negatives, set the sign bit of non-negatives, then
// complement for descending order) makes bucket ids ascend as similarity
// descends, and equal similarities always share a bucket — so emitting
// buckets in ascending id order, each fully sorted by cmpPairs, concatenates
// to exactly the list-L order of PairList.Sort.
func simBucket(sim float64, shift uint) int {
	b := math.Float64bits(sim)
	if b == 1<<63 {
		// -0 compares equal to +0 in cmpPairs, so it must share +0's bucket
		// or an equal-similarity tie could straddle a bucket boundary and
		// break the concatenated (U,V) tie order.
		b = 0
	}
	if int64(b) < 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return int(^b >> shift)
}

// bucketLayout is the histogram pass of the similarity partition: the radix
// shift for this list size, every bucket's extent in the fully sorted list
// (offs[b]:offs[b+1]), and the non-empty bucket ids in ascending order. The
// per-worker histograms are summed, so the layout is worker-invariant.
func bucketLayout(pairs []Pair, workers int) (shift uint, offs, ids []int) {
	n := len(pairs)
	bits := bucketBits
	if n < bucketSmallPairs {
		bits = bucketSmallBits
	}
	nb := 1 << bits
	shift = uint(64 - bits)
	w := max(min(workers, n), 1)
	counts := make([]int, w*nb)
	par.Do(n, w, func(t, lo, hi int) {
		row := counts[t*nb : (t+1)*nb]
		for i := lo; i < hi; i++ {
			row[simBucket(pairs[i].Sim, shift)]++
		}
	})
	offs = make([]int, nb+1)
	pos := 0
	for b := 0; b < nb; b++ {
		offs[b] = pos
		for t := 0; t < w; t++ {
			pos += counts[t*nb+b]
		}
		if pos > offs[b] {
			ids = append(ids, b)
		}
	}
	offs[nb] = pos
	return shift, offs, ids
}

// SortCursor sorts a pair list only as far as a reader needs it, in the
// filter-Kruskal manner: SortTo sorts whole similarity buckets, in ascending
// bucket order, until a given index is covered. Bucket extents are exact
// positions in list L (see bucketLayout), so every pair below Sorted() is
// the pair a full PairList.Sort would put there. A sweep that stops early
// therefore pays only for the buckets it reached.
//
// To reach a bucket the cursor first places it: pairs [0, the placed end)
// sit in their buckets' extents, unsorted within each, and the rest of the
// list holds the remaining buckets' pairs in any order. Placing splits a
// growing chunk of buckets off the rest with one sequential two-way
// partition, then moves each pair of the chunk into its bucket with the
// American-flag cycle walk. Both work in place, and the chunk is small
// enough for the walk's scattered accesses to stay in cache, which a walk
// over the whole list does not.
//
// A cursor over a list already flagged sorted does nothing: Sorted() is the
// list length. Once the last bucket is sorted the cursor sets the list's
// sorted flag. A SortCursor is not safe for concurrent use, and nobody else
// may reorder the list while the cursor is in use.
type SortCursor struct {
	shift   uint
	offs    []int // bucket b occupies offs[b]:offs[b+1] of list L
	ids     []int // non-empty bucket ids, ascending
	ctx     context.Context
	pl      *PairList
	next    int   // ids[next] is the first bucket not yet sorted
	sorted  int   // end of the sorted prefix
	placed  int   // ids[placed] is the first bucket not yet placed
	head    []int // cycle-walk scratch: next free slot per bucket
	workers int
}

// NewSortCursor returns a cursor over pl, taking the bucket histogram of an
// unsorted list. ctx cancels the bucket sorts; workers bounds the histogram
// and each bucket's sort.
func NewSortCursor(ctx context.Context, pl *PairList, workers int) (*SortCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers = par.Normalize(workers)
	c := &SortCursor{ctx: ctx, pl: pl, workers: workers}
	if pl.sorted {
		c.sorted = len(pl.Pairs)
	} else {
		c.shift, c.offs, c.ids = bucketLayout(pl.Pairs, workers)
	}
	return c, nil
}

// Sorted returns the end of the sorted prefix: pairs below it are in their
// final list-L positions.
func (c *SortCursor) Sorted() int { return c.sorted }

// SortTo sorts whole buckets, in ascending order, until pair i is in its
// final position (or the list is exhausted). It returns the context's error
// on cancellation, leaving the prefix sorted through the last whole bucket,
// or a *par.WorkerPanicError if the sort panicked.
func (c *SortCursor) SortTo(i int) error {
	for c.sorted <= i && c.next < len(c.ids) {
		b := c.ids[c.next]
		lo, hi := c.offs[b], c.offs[b+1]
		if c.next >= c.placed {
			c.place(hi)
		}
		if err := par.SortFuncCtx(c.ctx, c.pl.Pairs[lo:hi], c.workers, cmpPairs); err != nil {
			return err
		}
		c.next++
		c.sorted = hi
	}
	if c.next == len(c.ids) {
		c.pl.sorted = true
	}
	return nil
}

// extent returns the positions [lo, hi) that the bucket of similarity sim
// occupies in list L.
func (c *SortCursor) extent(sim float64) (lo, hi int) {
	b := simBucket(sim, c.shift)
	return c.offs[b], c.offs[b+1]
}

// place places the unplaced buckets that start below hi, and more: the
// chunk grows to at least an eighth of the list and at least doubles the
// placed prefix, so a reader that keeps going pays O(log) partition passes.
func (c *SortCursor) place(hi int) {
	pairs := c.pl.Pairs
	lo := c.offs[c.ids[c.placed]]
	target := max(hi, 2*lo, len(pairs)/8)
	k := c.placed
	for k < len(c.ids) && c.offs[c.ids[k]] < target {
		k++
	}
	if k < len(c.ids) {
		// Two-way partition: pairs of buckets below ids[k] to the front.
		bound := c.ids[k]
		i, j := lo, len(pairs)
		for {
			for i < j && simBucket(pairs[i].Sim, c.shift) < bound {
				i++
			}
			for i < j && simBucket(pairs[j-1].Sim, c.shift) >= bound {
				j--
			}
			if i >= j {
				break
			}
			pairs[i], pairs[j-1] = pairs[j-1], pairs[i]
			i++
			j--
		}
	}
	// American-flag cycle walk over the chunk: fill each bucket's slots in
	// turn, swapping every misplaced pair straight to the next free slot of
	// its own bucket.
	if c.head == nil {
		c.head = make([]int, len(c.offs)-1)
	}
	head := c.head
	for _, b := range c.ids[c.placed:k] {
		head[b] = c.offs[b]
	}
	for _, b := range c.ids[c.placed:k] {
		for end := c.offs[b+1]; head[b] < end; head[b]++ {
			x := pairs[head[b]]
			for xb := simBucket(x.Sim, c.shift); xb != b; xb = simBucket(x.Sim, c.shift) {
				j := head[xb]
				head[xb]++
				pairs[j], x = x, pairs[j]
			}
			pairs[head[b]] = x
		}
	}
	c.placed = k
}
