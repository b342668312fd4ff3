package cache

// PageBytes is the virtual-memory page size used by the TLB model.
const PageBytes = 8192

// PageShift is log2(PageBytes).
const PageShift = 13

// TLB models the 256-entry 4-way set-associative translation buffers in
// each L1 module (paper §2.1). Translation itself is identity (the
// simulator works in physical addresses); the TLB exists to charge refill
// latency and to count misses.
type TLB struct {
	// ents holds the entries set-major: set s is
	// ents[s*ways : s*ways+ways].
	ents []tlbEntry
	ways int
	mask uint64 // sets-1
	tick uint64

	Hits   uint64
	Misses uint64
}

// tlbEntry is one way: a page number (^0 when empty) and its LRU stamp,
// side by side so a set's probe and victim search read one host line.
type tlbEntry struct{ tag, lru uint64 }

// NewTLB returns an empty TLB with entries total entries and ways ways.
func NewTLB(entries, ways int) *TLB {
	sets := entries / ways
	t := &TLB{ents: make([]tlbEntry, sets*ways), ways: ways, mask: uint64(sets - 1)}
	for i := range t.ents {
		t.ents[i].tag = ^uint64(0)
	}
	return t
}

// Access touches the page containing a and reports whether it hit.
// On a miss the translation is filled (evicting LRU).
//
//piranha:hotpath
func (t *TLB) Access(a Addr) bool {
	page := uint64(a) >> PageShift
	base := int(page&t.mask) * t.ways
	set := t.ents[base : base+t.ways : base+t.ways]
	t.tick++
	for i := range set {
		if set[i].tag == page {
			t.Hits++
			set[i].lru = t.tick
			return true
		}
	}
	t.Misses++
	way := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[way].lru {
			way = i
		}
	}
	set[way] = tlbEntry{tag: page, lru: t.tick}
	return false
}
