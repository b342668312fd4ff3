package linemap

import (
	"slices"
	"testing"

	"piranha/internal/cache"
)

// FuzzMap decodes the input as a sequence of 3-byte operations (op,
// key, key/flags) and runs them on a Map and on a built-in map, which
// must agree after every step. Keys come from a 512-key space spread
// by a stride that collides under Fibonacci hashing, so Put/Delete
// churn keeps tombstones and compacting rehashes frequent, and enough
// distinct keys reach the table to make it grow; a flag bit lifts a
// key near maxKey. The seed corpus under testdata/fuzz/FuzzMap replays
// in every plain go test run.
func FuzzMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New[uint64](int(len(data) % 5 * 8))
		ref := make(map[cache.LineAddr]uint64)
		for n := 0; n+3 <= len(data); n += 3 {
			op, b1, b2 := data[n], data[n+1], data[n+2]
			k := cache.LineAddr(uint64(b1)|uint64(b2&1)<<8) * 0x10001
			switch {
			case b1 == 0xff && b2 == 0xff:
				k = maxKey
			case b2&0x80 != 0:
				k |= 1 << 57
			}
			v := uint64(n) + 1
			_, present := ref[k]
			switch op % 8 {
			case 0, 1:
				if p := m.Put(k, v); *p != v {
					t.Fatalf("step %d: Put(%#x) returned %d, want %d", n, k, *p, v)
				}
				ref[k] = v
			case 2:
				got, ok := m.Get(k)
				if ok != present || got != ref[k] {
					t.Fatalf("step %d: Get(%#x) = %d,%v, want %d,%v", n, k, got, ok, ref[k], present)
				}
			case 3:
				p := m.Ref(k)
				if (p != nil) != present {
					t.Fatalf("step %d: Ref(%#x) presence %v, want %v", n, k, p != nil, present)
				}
				if p != nil {
					*p += 7
					ref[k] += 7
				}
			case 4:
				if m.Delete(k) != present {
					t.Fatalf("step %d: Delete(%#x) = %v, want %v", n, k, !present, present)
				}
				delete(ref, k)
			case 5:
				if b1 < 32 { // rare enough that tables still grow
					c := m.Cap()
					m.Reset()
					clear(ref)
					if m.Cap() != c {
						t.Fatalf("step %d: Reset changed capacity %d -> %d", n, c, m.Cap())
					}
				}
			case 6:
				want := make([]cache.LineAddr, 0, len(ref))
				for rk := range ref {
					want = append(want, rk)
				}
				slices.Sort(want)
				if got := m.Keys(); !slices.Equal(got, want) {
					t.Fatalf("step %d: Keys %v, want %v", n, got, want)
				}
			case 7:
				// Range visits every live entry once with its value,
				// and stops when f returns false.
				stop := int(b1%4) + 1
				seen := map[cache.LineAddr]bool{}
				m.Range(func(rk cache.LineAddr, rv *uint64) bool {
					if seen[rk] {
						t.Fatalf("step %d: Range visited %#x twice", n, rk)
					}
					seen[rk] = true
					if want, ok := ref[rk]; !ok || *rv != want {
						t.Fatalf("step %d: Range(%#x) = %d, want %d,%v", n, rk, *rv, want, ok)
					}
					return len(seen) < stop
				})
				if len(seen) != min(stop, len(ref)) {
					t.Fatalf("step %d: Range visited %d of %d (stop after %d)", n, len(seen), len(ref), stop)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("step %d: Len %d, want %d", n, m.Len(), len(ref))
			}
			if c := m.Cap(); c != 0 && (c&(c-1) != 0 || m.used*4 > c*3) {
				t.Fatalf("step %d: capacity %d with %d used slots", n, c, m.used)
			}
		}
	})
}

// TestPutBeyondMaxKeyPanics pins the key domain: Put refuses a key whose
// slot word would alias the tombstone or wrap to empty, and lookups and
// deletes of such keys find nothing.
func TestPutBeyondMaxKeyPanics(t *testing.T) {
	m := New[int](0)
	m.Put(maxKey, 1)
	m.Put(0, 2)
	for _, k := range []cache.LineAddr{maxKey + 1, 1<<64 - 2, 1<<64 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%#x) did not panic", k)
				}
			}()
			m.Put(k, 3)
		}()
		if m.Ref(k) != nil || m.Delete(k) {
			t.Errorf("key %#x found in the table", k)
		}
	}
	if v, ok := m.Get(maxKey); !ok || v != 1 || m.Len() != 2 {
		t.Fatalf("maxKey entry: %d,%v len %d", v, ok, m.Len())
	}
}
