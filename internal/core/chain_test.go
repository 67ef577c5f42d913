package core

import (
	"slices"
	"testing"
	"testing/quick"

	"linkclust/internal/rng"
)

// unionFind is an independent reference implementation used to validate the
// chain structure.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(i int32) int32 {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	// Union by min so roots match the chain's cluster ids.
	if ra < rb {
		u.parent[rb] = ra
	} else {
		u.parent[ra] = rb
	}
}

func TestChainInitial(t *testing.T) {
	ch := NewChain(5)
	if ch.Len() != 5 || ch.NumClusters() != 5 {
		t.Fatalf("fresh chain: len=%d clusters=%d", ch.Len(), ch.NumClusters())
	}
	for i := int32(0); i < 5; i++ {
		if ch.Find(i) != i {
			t.Fatalf("Find(%d) = %d on fresh chain", i, ch.Find(i))
		}
	}
	if ch.Changes() != 0 {
		t.Fatalf("fresh chain has %d changes", ch.Changes())
	}
}

func TestChainMergeBasic(t *testing.T) {
	ch := NewChain(4)
	c1, c2, merged := ch.Merge(2, 3)
	if !merged || c1 != 2 || c2 != 3 {
		t.Fatalf("Merge(2,3) = %d,%d,%v", c1, c2, merged)
	}
	if ch.Find(3) != 2 || ch.Find(2) != 2 {
		t.Fatalf("cluster of 3 = %d, of 2 = %d, want 2", ch.Find(3), ch.Find(2))
	}
	if ch.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3", ch.NumClusters())
	}
	// Re-merging the same pair is a no-op level-wise.
	_, _, merged = ch.Merge(2, 3)
	if merged {
		t.Fatal("re-merge reported a new merge")
	}
}

func TestChainMergeTransitive(t *testing.T) {
	ch := NewChain(6)
	ch.Merge(4, 5)
	ch.Merge(2, 4) // {2,4,5}
	ch.Merge(0, 5) // {0,2,4,5}
	for _, i := range []int32{0, 2, 4, 5} {
		if ch.Find(i) != 0 {
			t.Fatalf("Find(%d) = %d, want 0", i, ch.Find(i))
		}
	}
	if ch.Find(1) != 1 || ch.Find(3) != 3 {
		t.Fatal("untouched edges moved")
	}
	if ch.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3", ch.NumClusters())
	}
}

func TestChainFollowContainsSelfAndRoot(t *testing.T) {
	ch := NewChain(8)
	ch.Merge(6, 7)
	ch.Merge(5, 7)
	f := ch.Follow(7, nil)
	if f[0] != 7 {
		t.Fatalf("Follow(7) must start at 7: %v", f)
	}
	if f[len(f)-1] != ch.Find(7) {
		t.Fatalf("Follow terminal %d != Find %d", f[len(f)-1], ch.Find(7))
	}
}

// TestChainTheorem1 checks the paper's Theorem 1 on random merge sequences:
// min F(i) (= the chain terminal) equals the true cluster id (the minimum
// member of i's connected component).
func TestChainTheorem1(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		merges := int(mRaw % 60)
		src := rng.New(seed)
		ch := NewChain(n)
		uf := newUnionFind(n)
		for k := 0; k < merges; k++ {
			a, b := int32(src.Intn(n)), int32(src.Intn(n))
			if a == b {
				continue
			}
			ch.Merge(a, b)
			uf.union(a, b)
		}
		for i := int32(0); i < int32(n); i++ {
			if ch.Find(i) != uf.find(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChainMonotone checks the structural invariant behind Theorem 1: after
// any merge sequence, C[i] <= i everywhere (chains descend).
func TestChainMonotone(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		n := 20
		src := rng.New(seed)
		ch := NewChain(n)
		for k := 0; k < int(mRaw); k++ {
			ch.Merge(int32(src.Intn(n)), int32(src.Intn(n)))
		}
		for i, v := range ch.Snapshot() {
			if v > int32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChainSnapshotRestore(t *testing.T) {
	ch := NewChain(6)
	ch.Merge(0, 1)
	snap := ch.Snapshot()
	ch.Merge(2, 3)
	ch.Merge(0, 5)
	ch.Restore(snap)
	if ch.NumClusters() != 5 {
		t.Fatalf("after restore clusters = %d, want 5", ch.NumClusters())
	}
	if ch.Find(3) != 3 || ch.Find(5) != 5 {
		t.Fatal("restore did not undo merges")
	}
	if ch.Find(1) != 0 {
		t.Fatal("restore lost the pre-snapshot merge")
	}
}

func TestChainRestoreLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Restore with wrong length did not panic")
		}
	}()
	NewChain(3).Restore(make([]int32, 4))
}

func TestChainChangesCounter(t *testing.T) {
	ch := NewChain(4)
	ch.Merge(0, 1) // writes C[1]=0: 1 change
	if ch.Changes() != 1 {
		t.Fatalf("changes = %d, want 1", ch.Changes())
	}
	ch.Merge(0, 1) // idempotent: no change
	if ch.Changes() != 1 {
		t.Fatalf("idempotent merge changed counter: %d", ch.Changes())
	}
	ch.ResetChanges()
	if ch.Changes() != 0 {
		t.Fatal("ResetChanges did not zero")
	}
}

func TestChainAssignments(t *testing.T) {
	ch := NewChain(5)
	ch.Merge(1, 3)
	ch.Merge(2, 4)
	got := ch.Assignments()
	want := []int32{0, 1, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assignments = %v, want %v", got, want)
		}
	}
}

// TestMergeChainsPaperCounterexample reproduces Section VI-B's example:
// C0 = [1→1, 2→2, 3→2, 4→1] and C1 = [1→1, 2→2, 3→3, 4→3] (1-based). The
// naive scheme leaves two clusters; the corrected scheme yields one.
func TestMergeChainsPaperCounterexample(t *testing.T) {
	mk := func(vals []int32) *Chain {
		ch := NewChain(len(vals))
		copy(ch.c, vals)
		return ch
	}
	// 0-based translation.
	c0 := []int32{0, 1, 1, 0}
	c1 := []int32{0, 1, 2, 2}

	naive := mk(c0)
	mergeChainsNaive(naive, mk(c1))
	if n := naive.NumClusters(); n != 2 {
		t.Fatalf("naive scheme clusters = %d, expected the paper's flawed 2", n)
	}

	fixed := mk(c0)
	MergeChains(fixed, mk(c1))
	if n := fixed.NumClusters(); n != 1 {
		t.Fatalf("corrected scheme clusters = %d, want 1", n)
	}
	for i := int32(0); i < 4; i++ {
		if fixed.Find(i) != 0 {
			t.Fatalf("edge %d in cluster %d, want 0", i, fixed.Find(i))
		}
	}
}

// TestMergeChainsEqualsSerial: splitting a merge workload across two chain
// replicas and combining with MergeChains must give exactly the serial
// assignment array.
func TestMergeChainsEqualsSerial(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%24) + 2
		merges := int(mRaw % 80)
		src := rng.New(seed)
		type mv struct{ a, b int32 }
		ops := make([]mv, 0, merges)
		for k := 0; k < merges; k++ {
			a, b := int32(src.Intn(n)), int32(src.Intn(n))
			if a != b {
				ops = append(ops, mv{a, b})
			}
		}
		serial := NewChain(n)
		for _, op := range ops {
			serial.Merge(op.a, op.b)
		}
		r0, r1 := NewChain(n), NewChain(n)
		for i, op := range ops {
			if i%2 == 0 {
				r0.Merge(op.a, op.b)
			} else {
				r1.Merge(op.a, op.b)
			}
		}
		MergeChains(r0, r1)
		want := serial.Assignments()
		got := r0.Assignments()
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		// Roots resolves the same ids in one ascending pass, into a fresh
		// or a reused buffer.
		return slices.Equal(serial.Roots(nil), want) && slices.Equal(r0.Roots(make([]int32, 3, 40)), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeChainsHierarchical simulates the T-replica pairwise reduction of
// Section VI-B across several replica counts.
func TestMergeChainsHierarchical(t *testing.T) {
	for _, replicas := range []int{2, 3, 4, 6, 7} {
		src := rng.New(uint64(replicas) * 101)
		n := 40
		type mv struct{ a, b int32 }
		var ops []mv
		for k := 0; k < 120; k++ {
			a, b := int32(src.Intn(n)), int32(src.Intn(n))
			if a != b {
				ops = append(ops, mv{a, b})
			}
		}
		serial := NewChain(n)
		for _, op := range ops {
			serial.Merge(op.a, op.b)
		}
		chains := make([]*Chain, replicas)
		for i := range chains {
			chains[i] = NewChain(n)
		}
		for i, op := range ops {
			chains[i%replicas].Merge(op.a, op.b)
		}
		// Pairwise reduction as in the paper: pair active arrays until
		// at most three remain, then fold serially.
		for len(chains) > 3 {
			half := len(chains) / 2
			next := make([]*Chain, 0, half+1)
			for i := 0; i < half; i++ {
				MergeChains(chains[2*i], chains[2*i+1])
				next = append(next, chains[2*i])
			}
			if len(chains)%2 == 1 {
				next = append(next, chains[len(chains)-1])
			}
			chains = next
		}
		for _, other := range chains[1:] {
			MergeChains(chains[0], other)
		}
		want, got := serial.Assignments(), chains[0].Assignments()
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("replicas=%d: edge %d cluster %d, want %d", replicas, i, got[i], want[i])
			}
		}
	}
}

func TestMergeChainsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergeChains length mismatch did not panic")
		}
	}()
	MergeChains(NewChain(3), NewChain(4))
}

func TestChainClone(t *testing.T) {
	ch := NewChain(5)
	ch.Merge(0, 4)
	cl := ch.Clone()
	cl.Merge(1, 2)
	if ch.Find(2) != 2 {
		t.Fatal("clone mutation leaked into original")
	}
	if cl.Find(4) != 0 {
		t.Fatal("clone lost original state")
	}
	if cl.Changes() != 1 {
		t.Fatalf("clone changes = %d, want fresh counter", cl.Changes())
	}
}
