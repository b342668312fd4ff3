package cache

import (
	"testing"
	"testing/quick"

	"piranha/internal/sim"
)

func l1cfg() Config {
	return Config{SizeBytes: 64 << 10, Ways: 2, Replace: LRU}
}

func TestGeometry(t *testing.T) {
	c := New(l1cfg())
	if got := c.Config().Sets(); got != 512 {
		t.Fatalf("64KB 2-way: %d sets, want 512", got)
	}
	l2 := New(Config{SizeBytes: 128 << 10, Ways: 8, IndexShift: 3, Replace: RoundRobin})
	if got := l2.Config().Sets(); got != 256 {
		t.Fatalf("128KB 8-way bank: %d sets, want 256", got)
	}
}

func TestAddrLineRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := addr.Line()
		return l.Addr() <= addr && addr < l.Addr()+LineBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProbeInsert(t *testing.T) {
	c := New(l1cfg())
	if c.Probe(100) != nil {
		t.Fatal("hit in empty cache")
	}
	c.Insert(100, Shared)
	ln := c.Probe(100)
	if ln == nil || ln.State != Shared || ln.Tag != 100 {
		t.Fatalf("probe after insert: %+v", ln)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestInsertSameLineUpdatesState(t *testing.T) {
	c := New(l1cfg())
	c.Insert(7, Shared)
	c.Insert(7, Modified)
	if c.CountValid() != 1 {
		t.Fatalf("duplicate line: %d valid", c.CountValid())
	}
	if got := c.Lookup(7).State; got != Modified {
		t.Fatalf("state %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(l1cfg())
	// Three lines mapping to the same set of a 2-way cache.
	// Set index = line & 511, so lines 1, 513, 1025 conflict.
	c.Insert(1, Shared)
	c.Insert(513, Shared)
	c.Probe(1) // make line 1 most recent
	v := c.Insert(1025, Shared)
	if !v.State.Valid() || v.Tag != 513 {
		t.Fatalf("LRU should evict 513, evicted %+v", v)
	}
	if c.Lookup(1) == nil || c.Lookup(1025) == nil {
		t.Fatal("survivors missing")
	}
}

func TestRoundRobinEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * LineBytes, Ways: 2, Replace: RoundRobin})
	// One set, two ways.
	c.Insert(0, Shared)
	c.Insert(1, Shared)
	v1 := c.Insert(2, Shared)
	v2 := c.Insert(3, Shared)
	if v1.Tag != 0 || v2.Tag != 1 {
		t.Fatalf("round robin evicted %d then %d, want 0 then 1", v1.Tag, v2.Tag)
	}
}

func TestInvalidPreferredOverEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * LineBytes, Ways: 2, Replace: RoundRobin})
	c.Insert(0, Shared)
	c.Insert(1, Shared)
	c.Invalidate(0)
	v := c.Insert(2, Shared)
	if v.State.Valid() {
		t.Fatalf("should fill invalid way, evicted %+v", v)
	}
	if c.Lookup(1) == nil {
		t.Fatal("line 1 should survive")
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	c := New(l1cfg())
	c.Insert(5, Modified)
	old := c.Invalidate(5)
	if old.State != Modified {
		t.Fatalf("invalidate returned %v", old.State)
	}
	if c.Lookup(5) != nil {
		t.Fatal("line still present")
	}
	if c.Invalidate(5).State.Valid() {
		t.Fatal("double invalidate returned valid line")
	}

	c.Insert(6, Exclusive)
	if prev := c.Downgrade(6); prev != Exclusive {
		t.Fatalf("downgrade returned %v", prev)
	}
	if c.Lookup(6).State != Shared {
		t.Fatal("not downgraded")
	}
	if prev := c.Downgrade(999); prev != Invalid {
		t.Fatalf("downgrade of absent line returned %v", prev)
	}
}

func TestMESIHelpers(t *testing.T) {
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid() wrong")
	}
	if Shared.CanWrite() || !Modified.CanWrite() || !Exclusive.CanWrite() {
		t.Fatal("CanWrite() wrong")
	}
	if Modified.String() != "M" || Invalid.String() != "I" {
		t.Fatal("String() wrong")
	}
}

func TestCapacityInvariant(t *testing.T) {
	// Property: after any access sequence, valid lines never exceed
	// capacity and each line appears at most once.
	r := sim.NewRNG(5)
	c := New(Config{SizeBytes: 8 << 10, Ways: 4, Replace: LRU})
	capLines := (8 << 10) / LineBytes
	for i := 0; i < 20000; i++ {
		l := LineAddr(r.Intn(1000))
		switch r.Intn(3) {
		case 0:
			c.Insert(l, MESI(1+r.Intn(3)))
		case 1:
			c.Probe(l)
		case 2:
			c.Invalidate(l)
		}
		if c.CountValid() > capLines {
			t.Fatalf("capacity exceeded at step %d", i)
		}
	}
	seen := map[LineAddr]bool{}
	for _, ln := range contents(c) {
		if seen[ln.Tag] {
			t.Fatalf("line %d present twice", ln.Tag)
		}
		seen[ln.Tag] = true
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(256, 4)
	a := Addr(0x12344000) // page-aligned (8 KB pages)
	if tlb.Access(a) {
		t.Fatal("cold TLB hit")
	}
	if !tlb.Access(a) || !tlb.Access(a+PageBytes-1) {
		t.Fatal("same page should hit")
	}
	if tlb.Access(a + PageBytes) {
		t.Fatal("next page should miss")
	}
	if tlb.Hits != 2 || tlb.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(256, 4)
	// 64 sets; pages with the same low 6 bits of page number conflict.
	// Fill one set with 5 pages; the first should be evicted.
	base := Addr(0)
	for i := 0; i < 5; i++ {
		tlb.Access(base + Addr(i*64*PageBytes))
	}
	if tlb.Access(base) {
		t.Fatal("LRU page should have been evicted")
	}
}

func BenchmarkProbeHit(b *testing.B) {
	c := New(l1cfg())
	c.Insert(42, Shared)
	for i := 0; i < b.N; i++ {
		c.Probe(42)
	}
}

// contents returns the cache's valid lines in array order.
func contents(c *Cache) []Line {
	var out []Line
	c.Range(func(ln Line) bool {
		out = append(out, ln)
		return true
	})
	return out
}
