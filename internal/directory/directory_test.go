package directory

import (
	"testing"
	"testing/quick"

	"piranha/internal/sim"
)

var cfg1k = Config{Nodes: 1024}

func TestEntryBitsFitECCSpare(t *testing.T) {
	// The codec must never produce more than the 44 bits the ECC scheme
	// frees per 64-byte line.
	e := Entry{State: SharedCoarse}
	for i := 0; i < 1024; i++ {
		e.Sharers.Add(NodeID(i))
	}
	bits, err := Encode(cfg1k, e)
	if err != nil {
		t.Fatal(err)
	}
	if bits>>EntryBits != 0 {
		t.Fatalf("encoding uses more than %d bits: %#x", EntryBits, bits)
	}
}

func TestUncachedRoundTrip(t *testing.T) {
	bits, err := Encode(cfg1k, Clear())
	if err != nil {
		t.Fatal(err)
	}
	if bits != 0 {
		t.Fatalf("uncached should encode to zero, got %#x", bits)
	}
	e := Decode(cfg1k, bits)
	if e.State != Uncached || !e.Sharers.Empty() {
		t.Fatalf("decoded %+v", e)
	}
}

func TestExclusiveRoundTrip(t *testing.T) {
	for _, owner := range []NodeID{0, 1, 511, 1023} {
		bits, err := Encode(cfg1k, SetExclusive(Entry{}, owner))
		if err != nil {
			t.Fatal(err)
		}
		e := Decode(cfg1k, bits)
		if e.State != Exclusive || e.Owner != owner {
			t.Fatalf("owner %d decoded as %+v", owner, e)
		}
	}
}

func TestSharedPointerRoundTrip(t *testing.T) {
	cases := [][]NodeID{
		{5},
		{0, 1023},
		{3, 17, 255},
		{1, 2, 3, 1000},
	}
	for _, sharers := range cases {
		var e Entry
		e.State = Shared
		for _, n := range sharers {
			e.Sharers.Add(n)
		}
		bits, err := Encode(cfg1k, e)
		if err != nil {
			t.Fatal(err)
		}
		got := Decode(cfg1k, bits)
		if got.State != Shared {
			t.Fatalf("state %v", got.State)
		}
		if got.Sharers.Count() != len(sharers) {
			t.Fatalf("sharer count %d, want %d", got.Sharers.Count(), len(sharers))
		}
		for _, n := range sharers {
			if !got.Sharers.Has(n) {
				t.Fatalf("lost sharer %d", n)
			}
		}
	}
}

func TestCoarseVectorSuperset(t *testing.T) {
	// Coarse form must decode to a superset of the encoded sharers and
	// must cover every node of a marked group.
	var e Entry
	e.State = SharedCoarse
	sharers := []NodeID{0, 100, 500, 999, 1023}
	for _, n := range sharers {
		e.Sharers.Add(n)
	}
	bits, err := Encode(cfg1k, e)
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(cfg1k, bits)
	if got.State != SharedCoarse {
		t.Fatalf("state %v", got.State)
	}
	for _, n := range sharers {
		if !got.Sharers.Has(n) {
			t.Fatalf("coarse decode lost sharer %d", n)
		}
	}
	g := cfg1k.GroupSize()
	// Every decoded member's whole group must be present.
	for _, n := range got.Sharers.Members(1024) {
		base := (int(n) / g) * g
		for i := base; i < base+g && i < 1024; i++ {
			if !got.Sharers.Has(NodeID(i)) {
				t.Fatalf("group of node %d only partially present", n)
			}
		}
	}
}

func TestAddSharerSwitchesToCoarse(t *testing.T) {
	e := Clear()
	for i := 0; i < 4; i++ {
		e = AddSharer(cfg1k, e, NodeID(i*7))
	}
	if e.State != Shared {
		t.Fatalf("4 sharers should stay limited-pointer, got %v", e.State)
	}
	e = AddSharer(cfg1k, e, NodeID(700))
	if e.State != SharedCoarse {
		t.Fatalf("5th sharer should switch to coarse, got %v", e.State)
	}
	// Round-trip still covers all five.
	bits, err := Encode(cfg1k, e)
	if err != nil {
		t.Fatal(err)
	}
	got := Decode(cfg1k, bits)
	for _, n := range []NodeID{0, 7, 14, 21, 700} {
		if !got.Sharers.Has(n) {
			t.Fatalf("post-switch decode lost %d", n)
		}
	}
}

func TestAddSharerToExclusive(t *testing.T) {
	e := SetExclusive(Entry{}, 42)
	e = AddSharer(cfg1k, e, 99)
	if e.State != Shared || !e.Sharers.Has(42) || !e.Sharers.Has(99) {
		t.Fatalf("downgrade on add: %+v", e)
	}
}

func TestGroupSizeSmallSystems(t *testing.T) {
	for _, tc := range []struct{ nodes, want int }{
		{1, 1}, {2, 1}, {42, 1}, {43, 2}, {84, 2}, {1024, 25},
	} {
		if got := (Config{Nodes: tc.nodes}).GroupSize(); got != tc.want {
			t.Fatalf("GroupSize(%d) = %d, want %d", tc.nodes, got, tc.want)
		}
	}
}

func TestQuickPointerRoundTrip(t *testing.T) {
	r := sim.NewRNG(11)
	f := func(seed uint32, count uint8) bool {
		rr := r.Split(uint64(seed))
		n := int(count%4) + 1
		var e Entry
		e.State = Shared
		seen := map[NodeID]bool{}
		for len(seen) < n {
			id := NodeID(rr.Intn(1024))
			seen[id] = true
			e.Sharers.Add(id)
		}
		bits, err := Encode(cfg1k, e)
		if err != nil {
			return false
		}
		got := Decode(cfg1k, bits)
		if got.Sharers.Count() != len(seen) {
			return false
		}
		for id := range seen {
			if !got.Sharers.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSet(t *testing.T) {
	var s NodeSet
	if !s.Empty() {
		t.Fatal("zero set should be empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(1023)
	if s.Count() != 4 {
		t.Fatalf("count %d", s.Count())
	}
	if !s.Has(63) || s.Has(62) {
		t.Fatal("membership wrong")
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Fatal("remove failed")
	}
	m := s.Members(1024)
	if len(m) != 3 || m[0] != 0 || m[1] != 64 || m[2] != 1023 {
		t.Fatalf("members %v", m)
	}
}

func BenchmarkEncodeDecodePointer(b *testing.B) {
	e := Clear()
	for i := 0; i < 4; i++ {
		e = AddSharer(cfg1k, e, NodeID(i*100))
	}
	for i := 0; i < b.N; i++ {
		bits, _ := Encode(cfg1k, e)
		Decode(cfg1k, bits)
	}
}

func BenchmarkEncodeDecodeCoarse(b *testing.B) {
	e := Entry{State: SharedCoarse}
	for i := 0; i < 64; i++ {
		e.Sharers.Add(NodeID(i * 16))
	}
	for i := 0; i < b.N; i++ {
		bits, _ := Encode(cfg1k, e)
		Decode(cfg1k, bits)
	}
}
