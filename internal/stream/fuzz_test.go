package stream

import (
	"errors"
	"math"
	"testing"

	"linkclust/internal/core"
	"linkclust/internal/graph"
)

// fuzzWeight maps one byte onto a hostile weight distribution: zeros,
// negatives, NaN, both infinities, a subnormal, and ordinary positives.
func fuzzWeight(b byte) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return -1.5
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5:
		return 5e-324
	default:
		return 0.1 + float64(b)/64
	}
}

// FuzzStream feeds fuzzed arrival sequences — duplicates, self-loops,
// out-of-range endpoints, hostile weights — through the incremental engine
// in fuzz-chosen batch sizes and worker counts. Every batch must either be
// rejected atomically with a typed validation error (the graph.Builder
// error taxonomy) or be accepted, and after the sequence the engine's
// Snapshot must equal — bitwise — a batch Similarity + Sweep run on a
// Builder fed exactly the accepted batches. Byte layout: [n-seed, knobs, then (u, v, w)
// triples].
func FuzzStream(f *testing.F) {
	f.Add([]byte{8, 0x21, 0, 1, 9, 1, 2, 9, 0, 2, 9, 2, 2, 9})
	f.Add([]byte{4, 0x10, 1, 2, 7, 2, 1, 15, 0, 200, 9, 1, 3, 23})
	f.Add([]byte{23, 0x32, 5, 6, 6, 6, 7, 14, 5, 7, 22, 1, 5, 30, 2, 6, 38, 3, 7, 46})
	f.Add([]byte{2, 0x03, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 2 + int(data[0]%23)
		workers := 1 + int(data[1]%4)
		batchSize := 1 + int(data[1]>>4%4)
		e, err := New(Options{MaxVertices: n, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		oracle := graph.NewBuilder(n)
		payload := data[2:]
		var batch []Arrival
		flush := func() {
			if len(batch) == 0 {
				return
			}
			err := e.IngestBatch(batch)
			if err != nil {
				if !errors.Is(err, graph.ErrVertexRange) &&
					!errors.Is(err, graph.ErrSelfLoop) &&
					!errors.Is(err, graph.ErrBadWeight) {
					t.Fatalf("untyped ingest error: %v", err)
				}
			} else {
				// Accepted batches replay into the oracle; a divergence in
				// what the two sides accept is itself a bug.
				for _, a := range batch {
					if err := oracle.AddEdge(a.U, a.V, a.W); err != nil {
						t.Fatalf("oracle rejected an accepted arrival (%d,%d,%v): %v", a.U, a.V, a.W, err)
					}
				}
			}
			batch = batch[:0]
		}
		for i := 0; i+2 < len(payload); i += 3 {
			batch = append(batch, Arrival{
				// -1 lands below range; values at and above n land beyond it.
				U: int(payload[i]) - 1,
				V: int(payload[i+1]) - 1,
				W: fuzzWeight(payload[i+2]),
			})
			if len(batch) >= batchSize {
				flush()
			}
		}
		flush()
		res, err := e.Snapshot()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		og := oracle.Build(nil)
		want, err := core.Sweep(og, core.Similarity(og))
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		requireSameResult(t, "fuzzed stream vs batch", res, want)
	})
}
