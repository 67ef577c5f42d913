package core

import (
	"slices"

	"linkclust/internal/fault"
	"linkclust/internal/par"
)

// tailCheck is one closure-pass worker's result: the ops it checked and the
// first failing op of its range, if any.
type tailCheck struct {
	ops  int64
	fail int // pair index of the first failing op; -1 when every op passed
	k    int32
	err  error // cancellation observed at a poll
}

// retire finishes a closed engine's pairs below the frontier. None of their
// ops can merge (see closeIfSpanned), so they are counted as no-op drops
// without touching the chain, after the serial sweep's edge-existence
// check: the first op in sorted order whose edge (U, k) or (V, k) is absent
// yields exactly serial Sweep's error.
//
// The pairs are checked in list order, split into one contiguous range per
// worker. Each worker polls the context and the fault.CancelWindow point
// once per sweepWindowOps ops, the engine's cancellation granularity, and
// stops at its first failing op; the earliest failure across workers is the
// first in list order. A list the sweep sorts as it reads is not sorted
// past the closing bucket; the check and the counts are order-free, and
// tailError makes a failure's report exact.
func (e *sweepEngine) retire(frontier int) error {
	lo, hi := e.tp, frontier
	if lo >= hi {
		return nil
	}
	if e.rowOf == nil {
		e.buildRows()
	}
	w := 1
	if e.workers >= 2 && hi-lo >= sweepParMinOps {
		w = e.workers
	}
	res := make([]tailCheck, w)
	par.Do(hi-lo, w, func(t, a, b int) { res[t] = e.checkTail(lo+a, lo+b) })
	var ops int64
	for _, r := range res {
		if r.err != nil {
			return r.err
		}
		if r.fail >= 0 {
			return e.tailError(r, hi)
		}
		ops += r.ops
	}
	e.res.PairsProcessed += ops
	e.tailOps += ops
	e.drops += ops
	e.tp = hi
	return nil
}

// tailError returns serial Sweep's error for a tail whose first failing op
// in list order is r's, found by a check of pairs [e.tp, frontier). A list
// sorted as the sweep reads it (e.cur set) is past closure in bucket order
// at best: its buckets are placed first, and a check again finds the first
// failing op in bucket order. Every bucket before that op's bucket passed,
// so sorting that one bucket (a no-op for a bucket already sorted) and
// checking it again from the tail cursor finds the first failing op in
// sorted order.
func (e *sweepEngine) tailError(r tailCheck, frontier int) error {
	if c := e.cur; c != nil {
		if c.placed < len(c.ids) {
			c.place(len(e.pl.Pairs))
			if r = e.checkTail(e.tp, frontier); r.err != nil {
				return r.err
			}
		}
		lo, hi := c.extent(e.pl.Pairs[r.fail].Sim)
		slices.SortFunc(e.pl.Pairs[lo:hi], cmpPairs)
		if r = e.checkTail(max(lo, e.tp), hi); r.err != nil {
			return r.err
		}
	}
	return missingEdgeError(&e.pl.Pairs[r.fail], r.k)
}

// buildRows gives every dense vertex — degree at least |V|/64 — a bitset
// row of its neighbors. A row takes |V|/8 bytes, no more than the vertex's
// 8-byte-per-neighbor packed adjacency, so the rows never outgrow adjTE.
// Sparse vertices keep their short packed adjacency, which the pass
// gallops over.
func (e *sweepEngine) buildRows() {
	n := e.g.NumVertices()
	e.words = (n + 63) / 64
	e.rowOf = make([]int32, n)
	rows := 0
	for v := range e.rowOf {
		e.rowOf[v] = -1
		if d := int(e.adjOff[v+1] - e.adjOff[v]); d > 0 && 64*d >= n {
			e.rowOf[v] = int32(rows)
			rows++
		}
	}
	e.bits = make([]uint64, rows*e.words)
	for v, r := range e.rowOf {
		if r < 0 {
			continue
		}
		row := e.bits[int(r)*e.words : int(r+1)*e.words]
		for _, h := range e.adjTE[e.adjOff[v]:e.adjOff[v+1]] {
			k := h >> 32
			row[k>>6] |= 1 << (k & 63)
		}
	}
}

// checkTail checks the ops of pairs [lo, hi) in sorted order, stopping at
// the first op whose edge (U, k) or (V, k) is absent. A dense endpoint's
// test is one bit read; a sparse endpoint's is a gallop over its packed
// adjacency, advancing monotonically because a pair's Common list ascends.
func (e *sweepEngine) checkTail(lo, hi int) tailCheck {
	pairs := e.pl.Pairs
	adjOff, adjTE := e.adjOff, e.adjTE
	rowOf, bits, words := e.rowOf, e.bits, e.words
	n := uint32(len(rowOf))
	r := tailCheck{fail: -1}
	poll := 0 // ops left before the next poll
	for i := lo; i < hi; i++ {
		pr := &pairs[i]
		if poll <= 0 {
			poll = sweepWindowOps
			fault.Hit(fault.CancelWindow)
			if e.ctx != nil {
				if err := e.ctx.Err(); err != nil {
					r.err = err
					return r
				}
			}
		}
		poll -= len(pr.Common)
		// A sparse endpoint's row offset is negative.
		ru, rv := int(rowOf[pr.U])*words, int(rowOf[pr.V])*words
		tu := adjTE[adjOff[pr.U]:adjOff[pr.U+1]]
		tv := adjTE[adjOff[pr.V]:adjOff[pr.V+1]]
		iu, iv := 0, 0
		for _, k := range pr.Common {
			ok := uint32(k) < n
			if ok {
				if ru >= 0 {
					ok = bits[ru+int(k>>6)]>>(uint(k)&63)&1 != 0
				} else {
					ok = gallopHas(tu, &iu, k)
				}
			}
			if ok {
				if rv >= 0 {
					ok = bits[rv+int(k>>6)]>>(uint(k)&63)&1 != 0
				} else {
					ok = gallopHas(tv, &iv, k)
				}
			}
			if !ok {
				r.fail, r.k = i, k
				return r
			}
		}
		r.ops += int64(len(pr.Common))
	}
	return r
}

// gallopHas advances *i over the packed adjacency t to the first entry whose
// neighbor id is not below k and reports whether that neighbor is k. Keys
// must be queried in ascending order, as a pair's Common list is.
func gallopHas(t []uint64, i *int, k int32) bool {
	key := uint64(uint32(k))
	j := *i
	if j < len(t) && t[j]>>32 < key {
		step := 1
		for j+step < len(t) && t[j+step]>>32 < key {
			j += step
			step <<= 1
		}
		lo, hi := j+1, min(j+step, len(t))
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if t[mid]>>32 < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		j = lo
	}
	*i = j
	return j < len(t) && t[j]>>32 == key
}
