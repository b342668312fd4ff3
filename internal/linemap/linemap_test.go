package linemap

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/sim"
)

func TestBasicOps(t *testing.T) {
	m := New[int](0)
	if m.Len() != 0 {
		t.Fatalf("new map Len = %d", m.Len())
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get on empty map reported present")
	}
	if m.Ref(7) != nil {
		t.Fatal("Ref on empty map non-nil")
	}
	if m.Delete(7) {
		t.Fatal("Delete on empty map reported removal")
	}
	m.Put(7, 70)
	m.Put(8, 80)
	if v, ok := m.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d, %v", v, ok)
	}
	*m.Ref(7) = 71
	if v, _ := m.Get(7); v != 71 {
		t.Fatalf("Ref mutation lost: %d", v)
	}
	m.Put(7, 72)
	if v, _ := m.Get(7); v != 72 || m.Len() != 2 {
		t.Fatalf("overwrite: v=%d len=%d", v, m.Len())
	}
	if !m.Delete(7) || m.Len() != 1 {
		t.Fatalf("delete: len=%d", m.Len())
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.Get(8); !ok || v != 80 {
		t.Fatalf("unrelated key disturbed: %d, %v", v, ok)
	}
}

func TestZeroValueReady(t *testing.T) {
	var m Map[uint64]
	m.Put(1, 10)
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("zero-value map: %d, %v", v, ok)
	}
}

// TestTombstoneReuse pins the slot-recycling behavior the L2's
// eviction/refill churn depends on: deleting and re-inserting the same
// working set must not grow the table.
func TestTombstoneReuse(t *testing.T) {
	m := New[int](8)
	cap0 := m.Cap()
	for round := 0; round < 1000; round++ {
		for k := cache.LineAddr(0); k < 8; k++ {
			m.Put(k, round)
		}
		for k := cache.LineAddr(0); k < 8; k++ {
			if !m.Delete(k) {
				t.Fatalf("round %d: Delete(%d) missed", round, k)
			}
		}
	}
	if m.Cap() > 2*cap0 {
		t.Fatalf("churn grew table %d -> %d slots", cap0, m.Cap())
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after full delete", m.Len())
	}
}

func TestKeysSorted(t *testing.T) {
	m := New[int](0)
	for _, k := range []cache.LineAddr{9, 3, 1 << 40, 0, 12345} {
		m.Put(k, 1)
	}
	keys := m.Keys()
	want := []cache.LineAddr{0, 3, 9, 12345, 1 << 40}
	if len(keys) != len(want) {
		t.Fatalf("Keys len %d want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys[%d] = %d want %d", i, keys[i], want[i])
		}
	}
}

func TestReset(t *testing.T) {
	m := New[sim.Time](0)
	for k := cache.LineAddr(0); k < 100; k++ {
		m.Put(k, sim.Time(k))
	}
	cap0 := m.Cap()
	m.Reset()
	if m.Len() != 0 || m.Cap() != cap0 {
		t.Fatalf("Reset: len=%d cap %d->%d", m.Len(), cap0, m.Cap())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("entry survived Reset")
	}
	m.Put(5, 50)
	if v, _ := m.Get(5); v != 50 {
		t.Fatal("map unusable after Reset")
	}
}

// TestDifferentialVsMap drives a Map and a built-in map through the
// same seeded random operation stream and requires identical observable
// behavior at every step — the fuzz-style check that retired the Go-map
// implementation of the L2/PE per-line state.
func TestDifferentialVsMap(t *testing.T) {
	rng := sim.NewRNG(42)
	m := New[uint64](0)
	ref := make(map[cache.LineAddr]uint64)
	// Narrow key space forces constant collision/tombstone traffic.
	key := func() cache.LineAddr { return cache.LineAddr(rng.Intn(257)) * 0x10001 }
	for op := 0; op < 200000; op++ {
		k := key()
		switch rng.Intn(4) {
		case 0: // insert/overwrite
			v := uint64(op)
			m.Put(k, v)
			ref[k] = v
		case 1: // lookup
			got, ok := m.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("op %d: Get(%#x) = %d,%v want %d,%v", op, k, got, ok, want, wok)
			}
		case 2: // delete
			if m.Delete(k) != func() bool { _, ok := ref[k]; return ok }() {
				t.Fatalf("op %d: Delete(%#x) disagreed", op, k)
			}
			delete(ref, k)
		case 3: // in-place mutation through Ref
			p := m.Ref(k)
			if (p != nil) != func() bool { _, ok := ref[k]; return ok }() {
				t.Fatalf("op %d: Ref(%#x) presence disagreed", op, k)
			}
			if p != nil {
				*p += 7
				ref[k] += 7
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len %d want %d", op, m.Len(), len(ref))
		}
	}
	// Full-content sweep at the end.
	keys := m.Keys()
	if len(keys) != len(ref) {
		t.Fatalf("final Keys len %d want %d", len(keys), len(ref))
	}
	for _, k := range keys {
		v, ok := m.Get(k)
		if !ok || v != ref[k] {
			t.Fatalf("final Get(%#x) = %d,%v want %d", k, v, ok, ref[k])
		}
	}
}

// TestSteadyStateZeroAlloc pins the hot-path contract: lookups,
// overwrites, deletes and tombstone-reusing inserts allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	m := New[uint64](64)
	for k := cache.LineAddr(0); k < 48; k++ {
		m.Put(k, uint64(k))
	}
	// One counted run of 1000 rounds: AllocsPerRun's integer average
	// would round away an allocation made on only some calls.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			m.Put(13, 1)
			if p := m.Ref(13); p != nil {
				*p++
			}
			m.Get(29)
			m.Delete(47)
			m.Put(47, 2) // reuses the tombstone
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 rounds of steady-state ops allocate %.0f objects", allocs)
	}
}

func BenchmarkRefHit(b *testing.B) {
	m := New[uint64](1024)
	for k := cache.LineAddr(0); k < 700; k++ {
		m.Put(k*64, uint64(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Ref(cache.LineAddr(i%700) * 64)
	}
}

func BenchmarkPutDeleteChurn(b *testing.B) {
	m := New[uint64](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := cache.LineAddr(i % 512)
		m.Put(k, uint64(i))
		m.Delete(k)
	}
}
