// Package cache provides the generic set-associative cache structures,
// addresses, and MESI states shared by the L1 and L2 models (paper §2.1,
// §2.3). Caches here are functional: they track tags and states exactly;
// timing lives with their controllers.
package cache

import "fmt"

// LineBytes is the coherence granularity throughout the system.
const LineBytes = 64

// LineShift is log2(LineBytes).
const LineShift = 6

// Addr is a physical byte address.
type Addr uint64

// Line returns the cache-line address containing a.
func (a Addr) Line() LineAddr { return LineAddr(a >> LineShift) }

// LineAddr is a cache-line-granularity address (Addr >> 6).
type LineAddr uint64

// Addr returns the first byte address of the line.
func (l LineAddr) Addr() Addr { return Addr(l) << LineShift }

// MESI is the four-state invalidation protocol state kept in the 2-bit
// state field of every L1 line.
type MESI uint8

// MESI states.
const (
	Invalid MESI = iota
	Shared
	Exclusive
	Modified
)

func (s MESI) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Valid reports whether the state holds data.
func (s MESI) Valid() bool { return s != Invalid }

// CanWrite reports whether a store may proceed without an upgrade.
func (s MESI) CanWrite() bool { return s == Exclusive || s == Modified }

// ReplacePolicy selects a victim way within a set.
type ReplacePolicy uint8

// Replacement policies.
const (
	// LRU replaces the least-recently-used way (used by the L1s).
	LRU ReplacePolicy = iota
	// RoundRobin replaces ways cyclically ("least-recently-loaded",
	// used by the L2 banks when no invalid way is available).
	RoundRobin
)

// Line is one cache line's bookkeeping.
type Line struct {
	Tag   LineAddr // the full line address (valid only when State != Invalid)
	State MESI
	// Dirty marks L2 lines newer than memory. (L1s use State==Modified.)
	Dirty bool
	// used is the LRU timestamp.
	used uint64
}

// Config describes a cache's geometry.
type Config struct {
	SizeBytes int
	Ways      int
	// IndexShift skips low line-address bits when computing the set
	// index (the L2 banks skip the 3 bank-select bits).
	IndexShift uint
	Replace    ReplacePolicy
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / LineBytes / c.Ways }

// Cache is a set-associative array of lines. The lines live in one
// set-major array (set s is lines[s*ways : s*ways+ways]), so a lookup
// reads one contiguous run of ways and no per-set slice header: on a
// many-node machine the arrays outgrow the host caches and each
// extra line read is a DRAM miss.
type Cache struct {
	cfg   Config
	lines []Line
	mask  uint64 // sets-1
	rrPtr []int  // round-robin pointer per set
	tick  uint64

	// Stats.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a positive power of two", n))
	}
	return &Cache{
		cfg:   cfg,
		lines: make([]Line, n*cfg.Ways),
		mask:  uint64(n - 1),
		rrPtr: make([]int, n),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(l LineAddr) int {
	return int(uint64(l) >> c.cfg.IndexShift & c.mask)
}

// set returns set si's ways.
func (c *Cache) set(si int) []Line {
	w := c.cfg.Ways
	return c.lines[si*w : si*w+w : si*w+w]
}

// Lookup returns the line holding l, or nil. It does not update LRU state;
// callers that model an access should use Probe.
//
//piranha:hotpath
func (c *Cache) Lookup(l LineAddr) *Line {
	set := c.set(c.setIndex(l))
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == l {
			return &set[i]
		}
	}
	return nil
}

// Probe performs an access: on hit it updates recency and returns the
// line; on miss it returns nil. Hit/miss counters are updated.
//
//piranha:hotpath
func (c *Cache) Probe(l LineAddr) *Line {
	ln := c.Lookup(l)
	if ln == nil {
		c.Misses++
		return nil
	}
	c.Hits++
	c.tick++
	ln.used = c.tick
	return ln
}

// Insert fills line l with the given state, selecting a victim when the
// set is full. It returns the evicted line (State != Invalid only when a
// valid line was displaced).
//
//piranha:hotpath
func (c *Cache) Insert(l LineAddr, state MESI) (victim Line) {
	if state == Invalid {
		panic("cache: inserting invalid line")
	}
	si := c.setIndex(l)
	set := c.set(si)
	// Reuse the line if present (state change), else an invalid way.
	way := -1
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == l {
			way = i
			break
		}
	}
	if way < 0 {
		for i := range set {
			if !set[i].State.Valid() {
				way = i
				break
			}
		}
	}
	if way < 0 {
		switch c.cfg.Replace {
		case RoundRobin:
			way = c.rrPtr[si]
			c.rrPtr[si] = (way + 1) % c.cfg.Ways
		default: // LRU
			way = 0
			for i := 1; i < len(set); i++ {
				if set[i].used < set[way].used {
					way = i
				}
			}
		}
		victim = set[way]
		c.Evictions++
	}
	c.tick++
	set[way] = Line{Tag: l, State: state, used: c.tick}
	return victim
}

// Invalidate removes line l if present and returns its prior contents.
func (c *Cache) Invalidate(l LineAddr) (old Line) {
	if ln := c.Lookup(l); ln != nil {
		old = *ln
		*ln = Line{}
	}
	return old
}

// Downgrade moves line l to Shared if present in E/M, returning the prior
// state.
func (c *Cache) Downgrade(l LineAddr) MESI {
	if ln := c.Lookup(l); ln != nil {
		prev := ln.State
		if prev == Exclusive || prev == Modified {
			ln.State = Shared
		}
		return prev
	}
	return Invalid
}

// Range calls f with each valid line in array order until f returns
// false.
func (c *Cache) Range(f func(Line) bool) {
	for _, ln := range c.lines {
		if ln.State.Valid() && !f(ln) {
			return
		}
	}
}

// CountValid returns the number of valid lines.
func (c *Cache) CountValid() int {
	n := 0
	for _, ln := range c.lines {
		if ln.State.Valid() {
			n++
		}
	}
	return n
}
