// Package linemap provides the dense, index-addressed per-line state
// table the memory-system hot paths run on. The simulator's per-line
// coherence bookkeeping — the L2 banks' duplicate-tag records, their
// pending-transaction blocks, the protocol engines' home-directory
// entries — is touched by every simulated access, and Go's built-in
// map is the wrong structure for it: values are pointer-boxed (one
// heap object per line), lookups hash through runtime indirection, and
// iteration order is randomized. Piranha itself packs directory state
// into the spare ECC bits of each memory line (§2.5.2) precisely
// because per-line metadata must be compact and index-addressed; this
// package is the host-side analogue.
//
// Map is an open-addressed, linear-probed hash table with value-typed
// entries in one slice of slots, a power-of-two capacity, and
// multiplicative (Fibonacci) hashing. A slot holds its key and value
// side by side, and the key word doubles as the slot state (key+1 for
// a live entry, 0 for never used, all-ones for a tombstone), so a
// probe that hits reads one host cache line: on a many-node machine
// the tables outgrow the host caches and each line read is a DRAM
// miss. Steady-state operations — lookups, overwrites of existing
// keys, deletes, and inserts that reuse tombstoned slots — allocate
// nothing; growth reallocates the slot slice and is amortized over
// insertions exactly like append. Probing is deterministic (no
// per-process hash seed), so table order is a pure function of the
// operation history — one less source of iteration-order randomness,
// although callers that feed output from a table still sort (see Keys).
//
// Pointer validity: Ref and Put return interior pointers into the
// slot slice. They remain valid across Get/Delete/overwriting Put,
// but any Put that inserts a NEW key may grow the table and must be
// assumed to invalidate previously obtained pointers. The L2 and
// protocol-engine call graphs honor this by completing all mutations
// through a pointer before any nested insert can run.
package linemap

import (
	"piranha/internal/cache"
	"piranha/internal/sortutil"
)

// Slot key words: a live slot holds its key plus one, so the zero
// value of a fresh slice is all empty slots.
const (
	empty   uint64 = 0         // never used; terminates probe chains
	deleted uint64 = 1<<64 - 1 // tombstone; probe chains continue through it
)

// maxKey bounds the keys a Map accepts: a line address of a 64-bit byte
// address is below 2^58, so key+1 never reaches the tombstone word.
// Lookups of larger keys find nothing.
const maxKey cache.LineAddr = 1<<58 - 1

// minCap is the smallest table allocated (power of two).
const minCap = 16

// slot is one table entry.
type slot[V any] struct {
	k uint64 // key+1, empty or deleted
	v V
}

// Map is a dense hash table from cache.LineAddr to V. The zero value
// is ready to use; New pre-sizes one instead.
type Map[V any] struct {
	slots []slot[V]
	live  int // occupied slots
	used  int // occupied + deleted (probe-chain load)
}

// New returns a Map pre-sized to hold at least hint entries without
// growing.
func New[V any](hint int) *Map[V] {
	m := &Map[V]{}
	if hint > 0 {
		c := minCap
		for c*3 < hint*4 { // keep load factor <= 3/4 at hint entries
			c <<= 1
		}
		m.alloc(c)
	}
	return m
}

// alloc installs a fresh slot array of capacity c (a power of two).
func (m *Map[V]) alloc(c int) {
	m.slots = make([]slot[V], c)
	m.live, m.used = 0, 0
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int { return m.live }

// Cap returns the current table capacity. Tests use it to assert that
// steady-state churn recycles slots instead of growing the table.
func (m *Map[V]) Cap() int { return len(m.slots) }

// index returns the preferred slot for a key: Fibonacci hashing maps
// the full 64-bit key through the golden-ratio multiplier and keeps
// the top bits, which distributes the sequential, low-entropy line
// addresses the simulator generates far better than masking low bits.
//
//piranha:hotpath
func index(key cache.LineAddr, mask uint64) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) >> 32 & mask
}

// Ref returns a pointer to the value stored for key, or nil when the
// key is absent. The pointer is valid until the next growing Put.
//
//piranha:hotpath
func (m *Map[V]) Ref(key cache.LineAddr) *V {
	if len(m.slots) == 0 || key > maxKey {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	want := uint64(key) + 1
	for i := index(key, mask); ; i = (i + 1) & mask {
		switch m.slots[i].k {
		case want:
			return &m.slots[i].v
		case empty:
			return nil
		}
	}
}

// Get returns the value stored for key and whether it was present.
//
//piranha:hotpath
func (m *Map[V]) Get(key cache.LineAddr) (V, bool) {
	if p := m.Ref(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Put stores val for key, inserting or overwriting, and returns a
// pointer to the stored value. Overwrites and tombstone reuse are
// allocation-free; inserting a new key may grow the table. A key above
// maxKey panics.
//
//piranha:hotpath
func (m *Map[V]) Put(key cache.LineAddr, val V) *V {
	if key > maxKey {
		panic("linemap: key beyond maxKey")
	}
	if len(m.slots) == 0 {
		m.alloc(minCap)
	} else if (m.used+1)*4 > len(m.slots)*3 {
		m.rehash()
	}
	mask := uint64(len(m.slots) - 1)
	want := uint64(key) + 1
	grave := -1
	for i := index(key, mask); ; i = (i + 1) & mask {
		switch m.slots[i].k {
		case want:
			m.slots[i].v = val
			return &m.slots[i].v
		case empty:
			if grave >= 0 {
				i = uint64(grave) // reuse the first tombstone on the chain
			} else {
				m.used++
			}
			m.slots[i] = slot[V]{k: want, v: val}
			m.live++
			return &m.slots[i].v
		case deleted:
			if grave < 0 {
				grave = int(i)
			}
		}
	}
}

// Delete removes key if present, leaving a tombstone so probe chains
// through the slot stay intact. Reports whether an entry was removed.
//
//piranha:hotpath
func (m *Map[V]) Delete(key cache.LineAddr) bool {
	if len(m.slots) == 0 || key > maxKey {
		return false
	}
	mask := uint64(len(m.slots) - 1)
	want := uint64(key) + 1
	for i := index(key, mask); ; i = (i + 1) & mask {
		switch m.slots[i].k {
		case want:
			// The zero value drops any pointers the value held.
			m.slots[i] = slot[V]{k: deleted}
			m.live--
			return true
		case empty:
			return false
		}
	}
}

// occupied reports whether a slot key word holds an entry.
func occupied(k uint64) bool { return k != empty && k != deleted }

// rehash re-inserts the live entries, growing when they genuinely fill
// the table and merely compacting tombstones away when they do not.
func (m *Map[V]) rehash() {
	c := len(m.slots)
	if (m.live+1)*2 > c {
		c <<= 1
	}
	old := m.slots
	m.alloc(c)
	for i := range old {
		if occupied(old[i].k) {
			m.Put(cache.LineAddr(old[i].k-1), old[i].v)
		}
	}
}

// Reset discards all entries in place, keeping the backing array so a
// warm table can be reused without reallocation.
func (m *Map[V]) Reset() {
	clear(m.slots)
	m.live, m.used = 0, 0
}

// Range calls f for every live entry in table order until f returns
// false. Table order is deterministic for a fixed operation history
// but is NOT sorted; callers feeding simulation output must use Keys.
// The value pointer is valid for the duration of the call.
func (m *Map[V]) Range(f func(key cache.LineAddr, val *V) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; occupied(s.k) && !f(cache.LineAddr(s.k-1), &s.v) {
			return
		}
	}
}

// Keys returns the live keys in ascending order — the deterministic
// iteration the determinism analyzer demands wherever table contents
// feed output, scheduling, or result slices.
func (m *Map[V]) Keys() []cache.LineAddr {
	out := make([]cache.LineAddr, 0, m.live)
	for i := range m.slots {
		if k := m.slots[i].k; occupied(k) {
			out = append(out, cache.LineAddr(k-1))
		}
	}
	sortutil.Sort(out)
	return out
}
