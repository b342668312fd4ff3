// Package directory implements Piranha's inter-node directory entry
// (paper §2.5.2): 44 bits per 64-byte line stored in the spare ECC bits,
// of which 2 encode the line state and 42 encode the sharing nodes.
//
// Two sharer representations are used, as in the paper:
//
//   - limited pointer: up to 4 explicit 10-bit node IDs (supports 1024
//     nodes); chosen while the line has at most 4 remote sharers.
//   - coarse vector: 42 bits, each covering a fixed group of nodes
//     (ceil(N/42) nodes per bit); chosen past 4 remote sharers.
//
// Directory information is kept at node granularity (not per CPU), and the
// home node's own sharers are NOT recorded in the directory — the home
// chip's L2 duplicate-tag state tracks those (paper: "The directory is not
// used to maintain information about sharers at the home node").
package directory

import (
	"fmt"
	"math/bits"
)

// EntryBits is the width of an encoded directory entry.
const EntryBits = 44

// MaxNodes is the largest system the 10-bit pointers support.
const MaxNodes = 1024

// MaxPointers is the number of explicit sharer pointers before the entry
// switches to the coarse-vector representation.
const MaxPointers = 4

// coarseBits is the number of group bits in coarse-vector form.
const coarseBits = 42

// State is the inter-node sharing state of a line.
type State uint8

// Directory states (2 bits).
const (
	// Uncached: no remote node holds the line.
	Uncached State = iota
	// Shared: one or more remote nodes hold read-only copies,
	// enumerated by explicit pointers.
	Shared
	// SharedCoarse: remote read-only copies tracked by a coarse vector.
	SharedCoarse
	// Exclusive: exactly one remote node holds the line exclusively
	// (clean-exclusive or dirty); its ID is in pointer 0.
	Exclusive
)

func (s State) String() string {
	switch s {
	case Uncached:
		return "uncached"
	case Shared:
		return "shared"
	case SharedCoarse:
		return "shared-coarse"
	case Exclusive:
		return "exclusive"
	}
	return "invalid"
}

// NodeID identifies a Piranha node (processing or I/O chip).
type NodeID uint16

// NodeSet is a bitset over up to MaxNodes nodes.
type NodeSet [MaxNodes / 64]uint64

// Add inserts node n.
func (s *NodeSet) Add(n NodeID) { s[n>>6] |= 1 << (uint(n) & 63) }

// Remove deletes node n.
func (s *NodeSet) Remove(n NodeID) { s[n>>6] &^= 1 << (uint(n) & 63) }

// Has reports whether node n is present.
func (s *NodeSet) Has(n NodeID) bool { return s[n>>6]&(1<<(uint(n)&63)) != 0 }

// Empty reports whether the set has no members.
func (s *NodeSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (s *NodeSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Members returns the member node IDs in ascending order, bounded by max
// nodes in the system.
func (s *NodeSet) Members(max int) []NodeID {
	return s.AppendMembers(nil, max)
}

// AppendMembers appends the member node IDs below max to dst in
// ascending order and returns the extended slice. It word-walks the
// bitset, so the cost tracks the population, not the machine size —
// at 1024 nodes a 3-sharer entry reads 16 words instead of testing
// 1024 ids. Hot paths pass a reused dst to avoid the per-call
// allocation Members pays.
func (s *NodeSet) AppendMembers(dst []NodeID, max int) []NodeID {
	words := (max + 63) >> 6
	if words > len(s) {
		words = len(s)
	}
	for w := 0; w < words; w++ {
		for word := s[w]; word != 0; word &= word - 1 {
			n := w<<6 + bits.TrailingZeros64(word)
			if n >= max {
				return dst
			}
			dst = append(dst, NodeID(n))
		}
	}
	return dst
}

// Entry is a decoded directory entry. For Shared/SharedCoarse, Sharers
// holds the set of remote nodes that may hold copies (coarse form yields a
// superset, exactly as the hardware representation does). For Exclusive,
// Owner holds the single remote owner.
type Entry struct {
	State   State
	Owner   NodeID
	Sharers NodeSet
}

// Config carries the system parameters the codec depends on.
type Config struct {
	// Nodes is the number of nodes in the system (<= MaxNodes).
	Nodes int
}

// GroupSize returns the number of nodes covered by one coarse-vector bit.
func (c Config) GroupSize() int {
	g := (c.Nodes + coarseBits - 1) / coarseBits
	if g < 1 {
		g = 1
	}
	return g
}

// group returns the coarse-vector bit index covering node n.
func (c Config) group(n NodeID) int { return int(n) / c.GroupSize() }

// Encode packs an entry into the low 44 bits of a uint64.
//
// Layout: bits [43:42] hold the state. The 42-bit body depends on state:
// Exclusive stores the owner in bits [9:0]; Shared stores count-1 in bits
// [41:40] and up to four 10-bit pointers in bits [39:0]; SharedCoarse
// stores the 42-bit group vector; Uncached stores zero.
func Encode(cfg Config, e Entry) (uint64, error) {
	if cfg.Nodes > MaxNodes {
		return 0, fmt.Errorf("directory: %d nodes exceeds max %d", cfg.Nodes, MaxNodes)
	}
	var body uint64
	switch e.State {
	case Uncached:
	case Exclusive:
		body = uint64(e.Owner)
	case Shared:
		// Word-walk the bitset rather than testing every node id:
		// encoding shared entries is the home engines' steady-state
		// directory-store path and must not allocate or pay O(N) for a
		// handful of sharers. Ids only grow along the walk, so the
		// first out-of-range id ends it (sharers at or past cfg.Nodes
		// are clamped away, matching the old i < cfg.Nodes bound).
		count := 0
		words := (cfg.Nodes + 63) >> 6
		for w := 0; w < words; w++ {
			for word := e.Sharers[w]; word != 0; word &= word - 1 {
				i := w<<6 + bits.TrailingZeros64(word)
				if i >= cfg.Nodes {
					break
				}
				if count < MaxPointers {
					body |= uint64(i) << (uint(count) * 10)
				}
				count++
			}
		}
		if count == 0 {
			return Encode(cfg, Clear())
		}
		if count > MaxPointers {
			return 0, fmt.Errorf("directory: %d sharers exceed %d pointers; use SharedCoarse", count, MaxPointers)
		}
		body |= uint64(count-1) << 40
	case SharedCoarse:
		words := (cfg.Nodes + 63) >> 6
		for w := 0; w < words; w++ {
			for word := e.Sharers[w]; word != 0; word &= word - 1 {
				i := w<<6 + bits.TrailingZeros64(word)
				if i >= cfg.Nodes {
					break
				}
				body |= 1 << uint(cfg.group(NodeID(i)))
			}
		}
	default:
		return 0, fmt.Errorf("directory: invalid state %d", e.State)
	}
	return uint64(e.State)<<42 | body, nil
}

// Decode unpacks a 44-bit entry.
func Decode(cfg Config, bits uint64) Entry {
	s := State(bits >> 42 & 3)
	body := bits & ((1 << 42) - 1)
	e := Entry{State: s}
	switch s {
	case Uncached:
	case Exclusive:
		e.Owner = NodeID(body & 0x3ff)
	case Shared:
		count := int(body>>40&3) + 1
		for i := 0; i < count; i++ {
			e.Sharers.Add(NodeID(body >> (uint(i) * 10) & 0x3ff))
		}
	case SharedCoarse:
		g := cfg.GroupSize()
		for b := 0; b < coarseBits; b++ {
			if body&(1<<uint(b)) == 0 {
				continue
			}
			for n := b * g; n < (b+1)*g && n < cfg.Nodes; n++ {
				e.Sharers.Add(NodeID(n))
			}
		}
	}
	return e
}

// AddSharer returns the entry updated to include a new remote sharer,
// switching representation to coarse vector when the pointer capacity is
// exceeded (the paper switches past 4 remote sharing nodes).
func AddSharer(cfg Config, e Entry, n NodeID) Entry {
	switch e.State {
	case Uncached:
		e.State = Shared
		e.Sharers = NodeSet{}
		e.Sharers.Add(n)
	case Exclusive:
		// Owner downgrades to sharer alongside the new one.
		e.State = Shared
		owner := e.Owner
		e.Sharers = NodeSet{}
		e.Sharers.Add(owner)
		e.Sharers.Add(n)
		e.Owner = 0
	case Shared:
		e.Sharers.Add(n)
		if e.Sharers.Count() > MaxPointers {
			e.State = SharedCoarse
		}
	case SharedCoarse:
		e.Sharers.Add(n)
	}
	return e
}

// SetExclusive returns the entry reset to a single exclusive remote owner.
func SetExclusive(e Entry, n NodeID) Entry {
	return Entry{State: Exclusive, Owner: n}
}

// Clear returns the uncached entry.
func Clear() Entry { return Entry{State: Uncached} }
