package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sync"

	"linkclust/internal/core"
	"linkclust/internal/persist"
)

// lru is a bounded map from a SHA-256 content address to V: past max
// entries it evicts the least recently used one, and max <= 0 holds
// nothing. A get hit and a put both count as a use. It is the one eviction
// policy of the daemon's five bounded maps — the pair-list and result
// tiers' memory sides, the graph registry, and the raw index's graph texts
// and request bodies — each bounded by Config.CacheEntries on its own. The
// zero value with max set is ready; the map is made on the first put, so
// an idle manager allocates none. Safe for concurrent use.
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	items map[[sha256.Size]byte]*lruNode[V]
	root  lruNode[V] // ring sentinel: root.next is the most recent use, root.prev the least
}

type lruNode[V any] struct {
	key        [sha256.Size]byte
	val        V
	prev, next *lruNode[V]
}

func (c *lru[V]) get(key [sha256.Size]byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.use(n)
	return n.val, true
}

// put adds key → v. A key already held keeps its value (content addressing
// makes it equal) and only counts as a use.
func (c *lru[V]) put(key [sha256.Size]byte, v V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[key]; ok {
		c.use(n)
		return
	}
	if c.items == nil {
		c.items = make(map[[sha256.Size]byte]*lruNode[V])
		c.root.prev, c.root.next = &c.root, &c.root
	}
	n := &lruNode[V]{key: key, val: v}
	c.items[key] = n
	c.use(n)
	if len(c.items) > c.max {
		old := c.root.prev
		old.prev.next, c.root.prev = &c.root, old.prev
		delete(c.items, old.key)
	}
}

// use moves n to the front of the ring, linking it in if it is new.
func (c *lru[V]) use(n *lruNode[V]) {
	if n.next != nil {
		n.prev.next, n.next.prev = n.next, n.prev
	}
	n.prev, n.next = &c.root, c.root.next
	c.root.next.prev = n
	c.root.next = n
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// source is where a tier lookup found its value.
type source int

const (
	miss source = iota
	fromMemory
	fromDisk
)

// tier is one side of the daemon's content-addressed cache: a memory
// LRU in front of the state directory's entries of one kind (none for a
// memory-only manager). An LCPE entry that exists and validates is the
// entry; there is no separate index. The memory side holds values no
// caller holds: put stores a copy and get hands one out.
//
// Failure policy (DESIGN.md §11): a failed entry write is skipped and
// counted, and the memory side still serves; an entry that fails
// validation or decoding is counted, removed, and read as a miss. The
// durable side is not bounded — Config.CacheEntries bounds memory only.
type tier[V any] struct {
	mem    lru[V]
	store  *persister
	kind   persist.Kind
	prefix string    // keeps the pair and result names in cache/ apart
	clone  func(V) V // the copy put stores and get hands out
	encode func(V) ([]byte, error)
	decode func([]byte) (V, error)
}

// name is the entry name of key: the prefix and the key's hex.
func (t *tier[V]) name(key [sha256.Size]byte) string {
	return t.prefix + hex.EncodeToString(key[:])
}

// get looks key up in memory, then on disk, and promotes a disk hit into
// memory.
func (t *tier[V]) get(key [sha256.Size]byte) (V, source) {
	if v, ok := t.mem.get(key); ok {
		return t.clone(v), fromMemory
	}
	var zero V
	if t.store == nil {
		return zero, miss
	}
	name := t.name(key)
	payload, err := t.store.dir.ReadEntry(t.kind, name)
	if err != nil {
		t.store.drop(t.kind, name, err)
		return zero, miss
	}
	v, err := t.decode(payload)
	if err != nil {
		// The CRC passed but the codec refused: a format skew, not bit rot.
		// Same treatment — miss, drop, recompute.
		t.store.drop(t.kind, name, persist.ErrCorrupt)
		return zero, miss
	}
	t.mem.put(key, v)
	return t.clone(v), fromDisk
}

// put stores v under key in memory and, while the persister is enabled, on
// disk.
func (t *tier[V]) put(key [sha256.Size]byte, v V) {
	if t.mem.max > 0 { // a disabled memory side takes no copy
		t.mem.put(key, t.clone(v))
	}
	if !t.store.enabled() {
		return
	}
	if payload, err := t.encode(v); err == nil {
		t.store.write(t.kind, t.name(key), payload)
	}
}

// newPairsTier holds similarity pair lists keyed by the canonical graph
// hash alone: Phase I output depends only on the graph and is bitwise
// worker-invariant. Lists are kept in the similarity kernel's unsorted
// master order and copied in and out, because the sweeps sort pair lists
// in place and a shared slice would corrupt the cache for concurrent
// readers.
func newPairsTier(max int, store *persister) *tier[*core.PairList] {
	return &tier[*core.PairList]{
		mem: lru[*core.PairList]{max: max}, store: store, kind: persist.EntryPairs, prefix: "p-",
		clone: func(pl *core.PairList) *core.PairList {
			return &core.PairList{Pairs: append([]core.Pair(nil), pl.Pairs...)}
		},
		encode: func(pl *core.PairList) ([]byte, error) {
			var buf bytes.Buffer
			err := core.WritePairList(&buf, pl)
			return buf.Bytes(), err
		},
		decode: func(payload []byte) (*core.PairList, error) {
			return core.ReadPairList(bytes.NewReader(payload))
		},
	}
}

// resultEntry is a finished result and its serialized LCMG merge document.
// Entries are immutable and shared; callers must not mutate them.
type resultEntry struct {
	result Result
	merges []byte
}

// newResultsTier holds finished results keyed by resultKey (graph hash +
// result-affecting options). Only clean, deterministic results are put —
// the caller guarantees it (see Manager.execute).
//
// Durable payload: a 4-byte little-endian JSON length, the Result JSON,
// then the merge document.
func newResultsTier(max int, store *persister) *tier[*resultEntry] {
	return &tier[*resultEntry]{
		mem: lru[*resultEntry]{max: max}, store: store, kind: persist.EntryResult, prefix: "r-",
		clone: func(e *resultEntry) *resultEntry { return e },
		encode: func(e *resultEntry) ([]byte, error) {
			rj, err := json.Marshal(&e.result)
			payload := make([]byte, 4, 4+len(rj)+len(e.merges))
			binary.LittleEndian.PutUint32(payload, uint32(len(rj)))
			return append(append(payload, rj...), e.merges...), err
		},
		decode: func(payload []byte) (*resultEntry, error) {
			if len(payload) < 4 {
				return nil, persist.ErrCorrupt
			}
			n := binary.LittleEndian.Uint32(payload)
			if uint64(n) > uint64(len(payload)-4) {
				return nil, persist.ErrCorrupt
			}
			end := 4 + int(n)
			e := &resultEntry{merges: payload[end:]}
			if err := json.Unmarshal(payload[4:end], &e.result); err != nil {
				return nil, persist.ErrCorrupt
			}
			return e, nil
		},
	}
}
