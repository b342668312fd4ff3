package directory

import "math/bits"

// Word is an encoded directory entry: the 44 bits Encode packs into a
// line's spare ECC bits, read and updated in place as Piranha's engines
// test and set those bits (paper §2.5.1–§2.5.2). The zero Word is the
// uncached entry.
//
// Every method is defined on the canonical words Encode produces (and
// the Word updates below preserve): Shared pointers ascend, and no
// coarse bit covers only nodes at or past cfg.Nodes. Node arguments
// must be below cfg.Nodes. On those words each reader agrees with
// Decode and each update equals Encode of the Entry operation applied
// to Decode(w) — FuzzWord checks both against the Entry codec, and the
// model checker checks every directory write it explores.
type Word uint64

// UncachedWord is the entry no remote node holds (Encode(Clear())).
const UncachedWord Word = 0

// Field layout (see Encode).
const (
	stateShift = 42
	countShift = 40
	ptrBits    = 10
	ptrMask    = 1<<ptrBits - 1
	vectorMask = 1<<coarseBits - 1
)

// ExclusiveWord is the entry owned exclusively by remote node n
// (Encode(SetExclusive(e, n))).
func ExclusiveWord(n NodeID) Word {
	return Word(Exclusive)<<stateShift | Word(n)
}

// State is the entry's sharing state.
func (w Word) State() State { return State(w >> stateShift & 3) }

// Owner is the exclusive owner, or 0 outside Exclusive (as Decode
// leaves it).
func (w Word) Owner() NodeID {
	if w.State() != Exclusive {
		return 0
	}
	return NodeID(w & ptrMask)
}

// pointers is the number of sharer pointers a Shared word holds.
func (w Word) pointers() int { return int(w>>countShift&3) + 1 }

// pointer is a Shared word's i'th sharer pointer.
func (w Word) pointer(i int) NodeID { return NodeID(w >> (uint(i) * ptrBits) & ptrMask) }

// Has reports whether the entry lists n as a sharer: one of a Shared
// word's pointers, or a member of a set coarse group. Uncached and
// Exclusive entries list no sharers (Decode's Sharers is empty there).
func (w Word) Has(cfg Config, n NodeID) bool {
	switch w.State() {
	case Shared:
		for i := w.pointers() - 1; i >= 0; i-- {
			if w.pointer(i) == n {
				return true
			}
		}
	case SharedCoarse:
		return int(n) < cfg.Nodes && w&(1<<uint(cfg.group(n))) != 0
	}
	return false
}

// AppendMembers appends the entry's sharers to dst in ascending order
// and returns the extended slice: the pointers of a Shared word, or
// every node of each set coarse group (the superset the hardware
// invalidates). Uncached and Exclusive entries append nothing.
func (w Word) AppendMembers(cfg Config, dst []NodeID) []NodeID {
	switch w.State() {
	case Shared:
		for i, c := 0, w.pointers(); i < c; i++ {
			dst = append(dst, w.pointer(i))
		}
	case SharedCoarse:
		g := cfg.GroupSize()
		for v := uint64(w & vectorMask); v != 0; v &= v - 1 {
			lo := bits.TrailingZeros64(v) * g
			hi := min(lo+g, cfg.Nodes)
			for n := lo; n < hi; n++ {
				dst = append(dst, NodeID(n))
			}
		}
	}
	return dst
}

// AddSharer returns the entry with remote node n added as a sharer: an
// uncached entry becomes Shared by n, an exclusive owner downgrades to
// sharing alongside n, and a Shared entry that would need a fifth
// pointer switches to the coarse vector of all its sharers.
func (w Word) AddSharer(cfg Config, n NodeID) Word {
	switch w.State() {
	case Uncached:
		return Word(Shared)<<stateShift | Word(n)
	case Exclusive:
		o := w.Owner()
		switch {
		case o == n:
			return Word(Shared)<<stateShift | Word(n)
		case o > n:
			o, n = n, o
		}
		return Word(Shared)<<stateShift | 1<<countShift | Word(n)<<ptrBits | Word(o)
	case Shared:
		c := w.pointers()
		at := c // insertion slot keeping the pointers ascending
		for i := c - 1; i >= 0; i-- {
			p := w.pointer(i)
			if p == n {
				return w
			}
			if p > n {
				at = i
			}
		}
		if c == MaxPointers {
			v := Word(1) << uint(cfg.group(n))
			for i := 0; i < c; i++ {
				v |= 1 << uint(cfg.group(w.pointer(i)))
			}
			return Word(SharedCoarse)<<stateShift | v
		}
		low := w & (1<<(uint(at)*ptrBits) - 1)
		high := (w & (1<<(uint(c)*ptrBits) - 1)) >> (uint(at) * ptrBits) << (uint(at+1) * ptrBits)
		return Word(Shared)<<stateShift | Word(c)<<countShift | high | Word(n)<<(uint(at)*ptrBits) | low
	}
	return w | 1<<uint(cfg.group(n))
}
