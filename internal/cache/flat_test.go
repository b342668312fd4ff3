package cache

import (
	"reflect"
	"testing"

	"piranha/internal/sim"
)

// refCache is the nested-slice layout Cache used before its lines moved
// into one set-major array: one heap slice per set. It is kept as the
// reference the flat layout must match operation for operation.
type refCache struct {
	cfg   Config
	sets  [][]Line
	rrPtr []int
	tick  uint64

	Hits, Misses, Evictions uint64
}

func newRefCache(cfg Config) *refCache {
	n := cfg.Sets()
	c := &refCache{cfg: cfg, sets: make([][]Line, n), rrPtr: make([]int, n)}
	for i := range c.sets {
		c.sets[i] = make([]Line, cfg.Ways)
	}
	return c
}

func (c *refCache) setIndex(l LineAddr) int {
	return int(uint64(l) >> c.cfg.IndexShift & uint64(len(c.sets)-1))
}

func (c *refCache) Lookup(l LineAddr) *Line {
	set := c.sets[c.setIndex(l)]
	for i := range set {
		if set[i].State.Valid() && set[i].Tag == l {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) Probe(l LineAddr) *Line {
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

func (c *refCache) Insert(l LineAddr, state MESI) (victim Line) {
	si := c.setIndex(l)
	set := c.sets[si]
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
		default:
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

func (c *refCache) Invalidate(l LineAddr) (old Line) {
	if ln := c.Lookup(l); ln != nil {
		old = *ln
		*ln = Line{}
	}
	return old
}

func (c *refCache) Downgrade(l LineAddr) MESI {
	if ln := c.Lookup(l); ln != nil {
		prev := ln.State
		if prev == Exclusive || prev == Modified {
			ln.State = Shared
		}
		return prev
	}
	return Invalid
}

func (c *refCache) Contents() []Line {
	var out []Line
	for _, set := range c.sets {
		for _, ln := range set {
			if ln.State.Valid() {
				out = append(out, ln)
			}
		}
	}
	return out
}

// refTLB is the two-[][]uint64 layout TLB used before its tags and LRU
// stamps moved into one array of entries.
type refTLB struct {
	tags, lru    [][]uint64
	tick         uint64
	Hits, Misses uint64
}

func newRefTLB(entries, ways int) *refTLB {
	sets := entries / ways
	t := &refTLB{tags: make([][]uint64, sets), lru: make([][]uint64, sets)}
	for i := range t.tags {
		t.tags[i] = make([]uint64, ways)
		t.lru[i] = make([]uint64, ways)
		for j := range t.tags[i] {
			t.tags[i][j] = ^uint64(0)
		}
	}
	return t
}

func (t *refTLB) Access(a Addr) bool {
	page := uint64(a) >> PageShift
	si := page & uint64(len(t.tags)-1)
	set := t.tags[si]
	t.tick++
	for i, tag := range set {
		if tag == page {
			t.Hits++
			t.lru[si][i] = t.tick
			return true
		}
	}
	t.Misses++
	way := 0
	for i := 1; i < len(set); i++ {
		if t.lru[si][i] < t.lru[si][way] {
			way = i
		}
	}
	set[way] = page
	t.lru[si][way] = t.tick
	return false
}

// lineOrNil copies a returned line so results from the two layouts
// compare by value.
func lineOrNil(ln *Line) any {
	if ln == nil {
		return nil
	}
	return *ln
}

// TestFlatCacheMatchesNested drives the set-major Cache and the nested
// reference with one seeded random op stream and requires the same hit
// and miss results, victims, prior states, counters and Contents, for
// the L1 geometry (LRU) and an L2 bank's (RoundRobin, IndexShift 3).
func TestFlatCacheMatchesNested(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"l1-lru", Config{SizeBytes: 64 << 10, Ways: 2, Replace: LRU}},
		{"l2bank-rr", Config{SizeBytes: 128 << 10, Ways: 8, IndexShift: 3, Replace: RoundRobin}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ref := New(tc.cfg), newRefCache(tc.cfg)
			r := sim.NewRNG(11)
			// Four times the capacity in lines keeps sets full and
			// victims frequent; the hot eighth keeps hits common.
			span := 4 * tc.cfg.SizeBytes / LineBytes
			for i := 0; i < 200000; i++ {
				l := LineAddr(r.Intn(span))
				if r.Bool(0.5) {
					l = LineAddr(r.Intn(span / 8))
				}
				var got, want any
				switch op := r.Intn(10); {
				case op < 4:
					got, want = lineOrNil(c.Probe(l)), lineOrNil(ref.Probe(l))
				case op < 5:
					got, want = lineOrNil(c.Lookup(l)), lineOrNil(ref.Lookup(l))
				case op < 8:
					s := MESI(1 + r.Intn(3))
					got, want = c.Insert(l, s), ref.Insert(l, s)
				case op < 9:
					got, want = c.Invalidate(l), ref.Invalidate(l)
				default:
					got, want = c.Downgrade(l), ref.Downgrade(l)
				}
				if got != want {
					t.Fatalf("step %d line %d: flat %+v, nested %+v", i, l, got, want)
				}
			}
			if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evictions {
				t.Fatalf("counters flat %d/%d/%d, nested %d/%d/%d",
					c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evictions)
			}
			if c.Evictions == 0 || c.Hits == 0 {
				t.Fatalf("stream too gentle: %d hits, %d evictions", c.Hits, c.Evictions)
			}
			if !reflect.DeepEqual(contents(c), ref.Contents()) {
				t.Fatal("Contents differ")
			}
		})
	}
}

// TestFlatTLBMatchesNested does the same for the 256-entry 4-way TLB.
func TestFlatTLBMatchesNested(t *testing.T) {
	tlb, ref := NewTLB(256, 4), newRefTLB(256, 4)
	r := sim.NewRNG(12)
	for i := 0; i < 200000; i++ {
		a := Addr(r.Intn(1024)) << PageShift
		if r.Bool(0.5) {
			a = Addr(r.Intn(128)) << PageShift
		}
		a += Addr(r.Intn(PageBytes))
		if got, want := tlb.Access(a), ref.Access(a); got != want {
			t.Fatalf("step %d addr %#x: flat hit=%v, nested hit=%v", i, a, got, want)
		}
	}
	if tlb.Hits != ref.Hits || tlb.Misses != ref.Misses {
		t.Fatalf("flat %d/%d, nested %d/%d", tlb.Hits, tlb.Misses, ref.Hits, ref.Misses)
	}
	if tlb.Hits == 0 || tlb.Misses < 1000 {
		t.Fatalf("stream too gentle: %d hits, %d misses", tlb.Hits, tlb.Misses)
	}
}
