// Package intern provides the symbol-interning and dense-set primitives
// behind the analysis hot path: append-only string⇄uint32 tables (a
// single-threaded Table for build-once program indexes, a SyncTable for
// strings discovered concurrently during analysis) and a compact Bits set
// over dense IDs that replaces map[string]bool in the slicing and taint
// fixpoints.
//
// Concurrency contract: a Table is built once (decode/index time) and is
// read-only afterwards, so any number of worker goroutines may resolve IDs
// without synchronization. A SyncTable serializes interning behind a
// mutex, and its lookups take a read lock; the hot loops intern only at
// summary-build time (cold), never per fact, so the lock is off the fast
// path. Bits values are not synchronized: each worker owns its sets and
// merges happen single-threaded at phase boundaries.
package intern

import (
	"math/bits"
	"sort"
	"sync"
)

// None is the sentinel "no ID" value. Valid IDs are dense from 0, so the
// maximum uint32 can never collide with a real symbol in any program small
// enough to decode.
const None = ^uint32(0)

// Table is an append-only string⇄uint32 interner. Zero value is not ready;
// use NewTable. Not safe for concurrent interning — build it fully before
// sharing (see the package comment).
type Table struct {
	ids map[string]uint32
}

// NewTable returns an empty table with room for n symbols.
func NewTable(n int) *Table {
	return &Table{ids: make(map[string]uint32, n)}
}

// Intern returns s's ID, assigning the next dense ID on first sight.
func (t *Table) Intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.ids))
	t.ids[s] = id
	return id
}

// Lookup returns s's ID without interning. The second result is false when
// s has never been interned.
func (t *Table) Lookup(s string) (uint32, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// SyncTable is a mutex-protected interner for symbols discovered during
// analysis (heap locations, source/sink tags). Zero value is ready.
type SyncTable struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// Intern returns s's ID, assigning the next dense ID on first sight. Safe
// for concurrent use.
func (t *SyncTable) Intern(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[string]uint32{}
	}
	id = uint32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// String resolves an ID back to its symbol ("" for None/out of range).
// Safe for concurrent use with Intern: IDs are never reassigned, and the
// backing array is only appended to under the lock.
func (t *SyncTable) String(id uint32) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id == None || int(id) >= len(t.strs) {
		return ""
	}
	return t.strs[id]
}

// Bits is a dense bitset over uint32 IDs: one allocation per ~64 members,
// no hashing, and iteration in increasing ID order — which is program
// order for statement IDs, so every consumer that used to sort string keys
// gets determinism for free.
type Bits struct {
	words []uint64
}

// NewBits returns a set with capacity reserved for IDs in [0, n). The
// visible word slice stays compact — its length tracks the highest member,
// not the reservation — so two sets holding the same IDs are structurally
// identical regardless of how they were built (reflect.DeepEqual-safe).
func NewBits(n int) *Bits {
	return &Bits{words: make([]uint64, 0, (n+63)/64)}
}

// grow ensures the word backing covers id, doubling capacity so repeated
// single-bit growth stays amortized O(1) per word.
func (b *Bits) grow(id uint32) {
	w := int(id >> 6)
	if w < len(b.words) {
		return
	}
	if w < cap(b.words) {
		b.words = b.words[:w+1]
		return
	}
	c := 2 * cap(b.words)
	if c < w+1 {
		c = w + 1
	}
	nw := make([]uint64, w+1, c)
	copy(nw, b.words)
	b.words = nw
}

// Add sets id, growing as needed, and reports whether it was newly set.
func (b *Bits) Add(id uint32) bool {
	b.grow(id)
	w, mask := id>>6, uint64(1)<<(id&63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	return true
}

// Has reports whether id is set. Safe on a nil receiver (empty set).
func (b *Bits) Has(id uint32) bool {
	if b == nil {
		return false
	}
	w := int(id >> 6)
	return w < len(b.words) && b.words[w]&(1<<(id&63)) != 0
}

// Count returns the number of set IDs. Safe on a nil receiver.
func (b *Bits) Count() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no ID is set. Safe on a nil receiver.
func (b *Bits) Empty() bool {
	if b == nil {
		return true
	}
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union adds every member of o. Safe when o is nil.
func (b *Bits) Union(o *Bits) {
	if o == nil || len(o.words) == 0 {
		return
	}
	if n := len(o.words); n > len(b.words) {
		b.grow(uint32(n*64 - 1))
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Clone returns an independent copy. Safe on a nil receiver.
func (b *Bits) Clone() *Bits {
	if b == nil {
		return &Bits{}
	}
	return &Bits{words: append([]uint64(nil), b.words...)}
}

// Equal reports whether b and o contain exactly the same IDs, regardless
// of backing capacity. Safe on nil receivers.
func (b *Bits) Equal(o *Bits) bool {
	var bw, ow []uint64
	if b != nil {
		bw = b.words
	}
	if o != nil {
		ow = o.words
	}
	long, short := bw, ow
	if len(ow) > len(bw) {
		long, short = ow, bw
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Each calls f for every set ID in increasing order; f returning false
// stops the walk. Safe on a nil receiver.
func (b *Bits) Each(f func(id uint32) bool) {
	if b == nil {
		return
	}
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !f(uint32(wi*64 + tz)) {
				return
			}
			w &= w - 1
		}
	}
}

// SortedStrings resolves the set through tab and returns the symbols
// sorted lexicographically — the canonical string view at the report
// boundary. IDs unknown to tab resolve to "" and are dropped.
func SortedStrings(b *Bits, tab *SyncTable) []string {
	if b == nil {
		return nil
	}
	out := make([]string, 0, b.Count())
	b.Each(func(id uint32) bool {
		if s := tab.String(id); s != "" {
			out = append(out, s)
		}
		return true
	})
	sort.Strings(out)
	return out
}
