package l2

import (
	"strings"
	"testing"

	"piranha/internal/cache"
	"piranha/internal/ics"
	"piranha/internal/l1"
	"piranha/internal/sim"
)

// fakeMem is a fixed-latency memory channel.
type fakeMem struct {
	reads, writes int
}

func (m *fakeMem) Read(now sim.Time, _ cache.Addr) (sim.Time, sim.Time) {
	m.reads++
	return now + 60*sim.Nanosecond, now + 90*sim.Nanosecond
}

func (m *fakeMem) Write(now sim.Time, _ cache.Addr) sim.Time {
	m.writes++
	return now + 40*sim.Nanosecond
}

// rig is a full single-chip L2 test harness: 8 CPUs, 16 L1s, 8 banks.
type rig struct {
	l2   *L2
	d    []*l1.Cache // data L1 per CPU
	i    []*l1.Cache // instruction L1 per CPU
	mems []*fakeMem
}

func newRig(t testing.TB) *rig {
	clock := sim.MHz(500)
	r := &rig{}
	var l1s []*l1.Cache
	for cpu := 0; cpu < 8; cpu++ {
		d := l1.New(l1.Data, cpu, cpu*2, l1.DefaultConfig())
		i := l1.New(l1.Instruction, cpu, cpu*2+1, l1.DefaultConfig())
		r.d = append(r.d, d)
		r.i = append(r.i, i)
		l1s = append(l1s, d, i)
	}
	var mems []Memory
	for b := 0; b < 8; b++ {
		m := &fakeMem{}
		r.mems = append(r.mems, m)
		mems = append(mems, m)
	}
	r.l2 = New(DefaultConfig(), clock, l1s, mems, ics.New(ics.DefaultConfig(clock)), LocalOnly{})
	return r
}

func (r *rig) check(t *testing.T) {
	t.Helper()
	if err := r.l2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestColdReadFromMemory(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	done, svc := r.l2.Access(0, r.d[0], Read, a)
	if svc != SvcLocalMem {
		t.Fatalf("svc %v, want local-mem", svc)
	}
	if done < 60*sim.Nanosecond {
		t.Fatalf("memory fill completed too fast: %d ps", done)
	}
	// Clean-exclusive optimization: the lone data reader gets E.
	if st := r.d[0].State(a.Line()); st != cache.Exclusive {
		t.Fatalf("fill state %v, want E", st)
	}
	// Non-inclusion: the L2 array was NOT allocated.
	if r.l2.BankOf(a.Line()).arr.Lookup(a.Line()) != nil {
		t.Fatal("memory fill must bypass the L2 array")
	}
	r.check(t)
}

func TestInstructionReadGetsShared(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x8000)
	_, svc := r.l2.Access(0, r.i[0], Read, a)
	if svc != SvcLocalMem {
		t.Fatalf("svc %v", svc)
	}
	if st := r.i[0].State(a.Line()); st != cache.Shared {
		t.Fatalf("iL1 fill state %v, want S", st)
	}
	r.check(t)
}

func TestReadForwardedFromPeerL1(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a)
	done, svc := r.l2.Access(1000, r.d[1], Read, a)
	if svc != SvcL2Fwd {
		t.Fatalf("svc %v, want L2-fwd", svc)
	}
	if lat := done - 1000; lat < r.l2.cfg.FwdLatency {
		t.Fatalf("forward latency %d ps below configured %d", lat, r.l2.cfg.FwdLatency)
	}
	// Prior exclusive holder downgraded; both now shared.
	if r.d[0].State(a.Line()) != cache.Shared || r.d[1].State(a.Line()) != cache.Shared {
		t.Fatal("states after forward not S/S")
	}
	// Ownership moved to the last requester.
	info := r.l2.BankOf(a.Line()).info.Ref(a.Line())
	if info.owner != int8(r.d[1].ID) {
		t.Fatalf("owner %d, want %d", info.owner, r.d[1].ID)
	}
	r.check(t)
}

func TestReadExInvalidatesPeers(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a)
	r.l2.Access(100, r.d[1], Read, a)
	_, svc := r.l2.Access(2000, r.d[2], ReadEx, a)
	if svc != SvcL2Fwd {
		t.Fatalf("svc %v, want L2-fwd (owner supplies)", svc)
	}
	if r.d[0].State(a.Line()) != cache.Invalid || r.d[1].State(a.Line()) != cache.Invalid {
		t.Fatal("peer copies not invalidated")
	}
	if r.d[2].State(a.Line()) != cache.Modified {
		t.Fatal("writer did not get M")
	}
	if r.l2.Stats.Invals == 0 {
		t.Fatal("no invalidations recorded")
	}
	r.check(t)
}

func TestUpgradeInvalidatesSharers(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x1c0)
	r.l2.Access(0, r.d[0], Read, a)
	r.l2.Access(10, r.d[3], Read, a)
	at := 1 * sim.Millisecond // after earlier transactions drain
	done, svc := r.l2.Access(at, r.d[0], Upgrade, a)
	if svc != SvcL2Hit {
		t.Fatalf("upgrade svc %v", svc)
	}
	if lat := done - at; lat > 2*r.l2.cfg.HitLatency {
		t.Fatalf("on-chip upgrade latency %d too high", lat)
	}
	if r.d[0].State(a.Line()) != cache.Modified {
		t.Fatal("upgrader not M")
	}
	if r.d[3].State(a.Line()) != cache.Invalid {
		t.Fatal("sharer not invalidated")
	}
	if r.l2.Stats.Upgrades != 1 {
		t.Fatalf("upgrades %d", r.l2.Stats.Upgrades)
	}
	r.check(t)
}

// evictFrom forces line a out of the given L1 by filling conflicting lines
// through the L2 (keeping duplicate tags in sync).
func evictFrom(t *testing.T, r *rig, c *l1.Cache, a cache.Addr) {
	t.Helper()
	sets := c.Config().SizeBytes / cache.LineBytes / c.Config().Ways
	for k := 1; c.State(a.Line()) != cache.Invalid; k++ {
		conflict := cache.Addr(uint64(a) + uint64(k*sets*cache.LineBytes))
		r.l2.Access(sim.Time(k)*sim.Microsecond, c, Read, conflict)
		if k > 8 {
			t.Fatal("eviction did not occur")
		}
	}
}

func TestOwnerEvictionFillsL2(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a) // d0 owner (E)
	if r.l2.Stats.WritebacksToL2 != 0 {
		t.Fatal("premature writeback")
	}
	evictFrom(t, r, r.d[0], a)
	if r.l2.Stats.WritebacksToL2 != 1 {
		t.Fatalf("writebacks to L2 = %d, want 1", r.l2.Stats.WritebacksToL2)
	}
	// The line now lives in the L2: a re-read is an L2 hit.
	_, svc := r.l2.Access(1*sim.Millisecond, r.d[0], Read, a)
	if svc != SvcL2Hit {
		t.Fatalf("re-read svc %v, want L2-hit (victim cache)", svc)
	}
	r.check(t)
}

func TestNonOwnerEvictionIsSilent(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a)
	r.l2.Access(10, r.d[1], Read, a) // owner is now d1 (last requester)
	evictFrom(t, r, r.d[0], a)       // d0 is a non-owner: silent drop
	if r.l2.Stats.WritebacksToL2 != 0 {
		t.Fatalf("non-owner eviction wrote back (%d)", r.l2.Stats.WritebacksToL2)
	}
	// d1 still holds it; a third reader is forwarded.
	_, svc := r.l2.Access(1*sim.Millisecond, r.d[2], Read, a)
	if svc != SvcL2Fwd {
		t.Fatalf("svc %v, want L2-fwd", svc)
	}
	r.check(t)
}

func TestCleanOwnerEvictionStillWritesBack(t *testing.T) {
	// The paper: "even clean lines that are replaced from an L1 may
	// cause a write-back to the L2".
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.i[0], Read, a) // instruction line: always clean
	evictFrom(t, r, r.i[0], a)
	if r.l2.Stats.WritebacksToL2 != 1 {
		t.Fatalf("clean owner eviction: writebacks=%d", r.l2.Stats.WritebacksToL2)
	}
	r.check(t)
}

func TestDirtyL2EvictionWritesMemory(t *testing.T) {
	r := newRig(t)
	bank := r.l2.banks[0]
	setsL2 := (r.l2.cfg.SizeBytes / r.l2.cfg.Banks) / cache.LineBytes / r.l2.cfg.Ways
	// Build 9 dirty lines that all map to L2 bank 0, set 0, and push
	// each into the L2 via owner eviction.
	now := sim.Time(0)
	for k := 0; k < 9; k++ {
		a := cache.Addr(uint64(k) * uint64(setsL2) * uint64(r.l2.cfg.Banks) * cache.LineBytes)
		r.l2.Access(now, r.d[0], ReadEx, a) // dirty in d0
		now += 10 * sim.Microsecond
		evictFrom(t, r, r.d[0], a) // writeback into L2 bank 0 set 0
		now += 10 * sim.Microsecond
	}
	_ = bank
	writes := 0
	for _, m := range r.mems {
		writes += m.writes
	}
	if writes == 0 {
		t.Fatal("9 dirty lines into an 8-way set: expected a memory writeback")
	}
	r.check(t)
}

func TestMissBreakdownCounts(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a)                 // local mem
	r.l2.Access(100, r.d[1], Read, a)               // fwd
	evictFrom(t, r, r.d[1], a)                      // owner eviction -> L2 fill
	r.l2.Access(1*sim.Millisecond, r.d[2], Read, a) // hmm: d0 still shares; owner transferred
	mb := r.l2.MissBreakdown()
	if mb.Total() == 0 || mb.L2Miss == 0 || mb.L2Fwd == 0 {
		t.Fatalf("breakdown %+v", mb)
	}
	r.check(t)
}

func TestPendingBlocksConflicts(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	done1, _ := r.l2.Access(0, r.d[0], Read, a)
	// A conflicting request issued mid-flight starts only after the
	// first transaction completes.
	done2, _ := r.l2.Access(1, r.d[1], Read, a)
	if done2 < done1 {
		t.Fatalf("conflicting request overtook: %d < %d", done2, done1)
	}
	r.check(t)
}

func TestRandomizedInvariants(t *testing.T) {
	r := newRig(t)
	rng := sim.NewRNG(1234)
	now := sim.Time(0)
	// A hot region plus a large cold region, random mixes of reads,
	// writes and upgrades from all 8 CPUs and both cache kinds.
	for i := 0; i < 30000; i++ {
		cpu := rng.Intn(8)
		var a cache.Addr
		if rng.Bool(0.3) {
			a = cache.Addr(rng.Intn(2048)) * cache.LineBytes // hot 128KB
		} else {
			a = cache.Addr(rng.Intn(1<<22)) * cache.LineBytes
		}
		now += sim.Time(rng.Intn(200)) * sim.Nanosecond
		if rng.Bool(0.25) {
			c := r.i[cpu]
			r.l2.Access(now, c, Read, a)
			continue
		}
		c := r.d[cpu]
		st := c.State(a.Line())
		switch {
		case rng.Bool(0.7): // load
			if st == cache.Invalid {
				r.l2.Access(now, c, Read, a)
			}
		default: // store
			switch st {
			case cache.Invalid:
				r.l2.Access(now, c, ReadEx, a)
			case cache.Shared:
				r.l2.Access(now, c, Upgrade, a)
			default:
				c.SetState(a.Line(), cache.Modified)
			}
		}
		if i%5000 == 4999 {
			if err := r.l2.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	r.check(t)
	mb := r.l2.MissBreakdown()
	if mb.Total() == 0 {
		t.Fatal("no misses recorded in stress test")
	}
}

func TestServeRemoteRead(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], ReadEx, a) // dirty on chip
	onChip, dirty, done := r.l2.ServeRemote(1000, a.Line(), false)
	if !onChip || !dirty {
		t.Fatalf("onChip=%v dirty=%v", onChip, dirty)
	}
	if done <= 1000 {
		t.Fatal("no latency charged")
	}
	// Copy downgraded, marked remotely shared, no longer dirty.
	if r.d[0].State(a.Line()) != cache.Shared {
		t.Fatal("owner not downgraded")
	}
	if r.l2.LineDirty(a.Line()) {
		t.Fatal("dirty flag should clear after home update")
	}
	// A local write must now invalidate remotely: check partial state.
	if r.l2.BankOf(a.Line()).info.Ref(a.Line()).remote != RemoteShared {
		t.Fatal("partial directory state not updated")
	}
	r.check(t)
}

func TestServeRemoteExclusive(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a)
	r.l2.Access(10, r.d[1], Read, a)
	onChip, _, _ := r.l2.ServeRemote(1000, a.Line(), true)
	if !onChip {
		t.Fatal("line was on chip")
	}
	if r.l2.HasLine(a.Line()) {
		t.Fatal("remote exclusive must purge all on-chip state")
	}
	if r.d[0].State(a.Line()) != cache.Invalid || r.d[1].State(a.Line()) != cache.Invalid {
		t.Fatal("L1 copies survived")
	}
	r.check(t)
}

func TestServeRemoteAbsent(t *testing.T) {
	r := newRig(t)
	onChip, dirty, done := r.l2.ServeRemote(500, cache.Addr(0x9999000).Line(), false)
	if onChip || dirty || done != 500 {
		t.Fatalf("absent line: onChip=%v dirty=%v done=%d", onChip, dirty, done)
	}
}

func TestAggregateCacheGrowsWithSharers(t *testing.T) {
	// The non-inclusive hierarchy's point: distinct lines in distinct
	// L1s all stay on chip even past L2 capacity. Fill 8 CPUs with
	// disjoint working sets and verify every line remains tracked.
	r := newRig(t)
	now := sim.Time(0)
	var lines []cache.LineAddr
	for cpu := 0; cpu < 8; cpu++ {
		for k := 0; k < 512; k++ { // 32 KB per CPU
			a := cache.Addr((uint64(cpu)<<24 | uint64(k)) * cache.LineBytes)
			r.l2.Access(now, r.d[cpu], Read, a)
			now += 100 * sim.Nanosecond
			lines = append(lines, a.Line())
		}
	}
	for _, l := range lines {
		if !r.l2.HasLine(l) {
			t.Fatalf("line %#x fell off chip", l)
		}
	}
	r.check(t)
}

func BenchmarkL2AccessMixed(b *testing.B) {
	r := newRig(b)
	rng := sim.NewRNG(4)
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := r.d[rng.Intn(8)]
		a := cache.Addr(rng.Intn(1<<14)) * cache.LineBytes
		now += 50 * sim.Nanosecond
		switch c.State(a.Line()) {
		case cache.Invalid:
			r.l2.Access(now, c, Read, a)
		case cache.Shared:
			r.l2.Access(now, c, Upgrade, a)
		default:
			c.SetState(a.Line(), cache.Modified)
		}
	}
}

// newInclusiveRig builds the ablation configuration.
func newInclusiveRig(t testing.TB) *rig {
	clock := sim.MHz(500)
	r := &rig{}
	var l1s []*l1.Cache
	for cpu := 0; cpu < 8; cpu++ {
		d := l1.New(l1.Data, cpu, cpu*2, l1.DefaultConfig())
		i := l1.New(l1.Instruction, cpu, cpu*2+1, l1.DefaultConfig())
		r.d = append(r.d, d)
		r.i = append(r.i, i)
		l1s = append(l1s, d, i)
	}
	var mems []Memory
	for b := 0; b < 8; b++ {
		m := &fakeMem{}
		r.mems = append(r.mems, m)
		mems = append(mems, m)
	}
	cfg := DefaultConfig()
	cfg.Inclusive = true
	r.l2 = New(cfg, clock, l1s, mems, ics.New(ics.DefaultConfig(clock)), LocalOnly{})
	return r
}

func TestInclusiveFillAllocatesL2(t *testing.T) {
	r := newInclusiveRig(t)
	a := cache.Addr(0x4000)
	r.l2.Access(0, r.d[0], Read, a)
	if r.l2.BankOf(a.Line()).arr.Lookup(a.Line()) == nil {
		t.Fatal("inclusive fill must allocate the L2")
	}
	r.check(t)
}

func TestInclusiveBackInvalidation(t *testing.T) {
	r := newInclusiveRig(t)
	setsL2 := (r.l2.cfg.SizeBytes / r.l2.cfg.Banks) / cache.LineBytes / r.l2.cfg.Ways
	// Fill 9 lines mapping to the same L2 set from a single L1 whose
	// own sets don't conflict: the 9th L2 insertion back-invalidates
	// the L1 copy of the evicted line.
	var lines []cache.Addr
	for k := 0; k < 9; k++ {
		a := cache.Addr(uint64(k) * uint64(setsL2) * uint64(r.l2.cfg.Banks) * cache.LineBytes)
		lines = append(lines, a)
		r.l2.Access(sim.Time(k)*sim.Microsecond, r.d[0], Read, a)
	}
	invalidated := 0
	for _, a := range lines {
		if r.d[0].State(a.Line()) == cache.Invalid {
			invalidated++
		}
	}
	if invalidated == 0 {
		t.Fatal("9 lines in an 8-way inclusive set: expected a back-invalidation")
	}
	r.check(t)
}

func TestInclusiveStressInvariants(t *testing.T) {
	r := newInclusiveRig(t)
	rng := sim.NewRNG(4321)
	now := sim.Time(0)
	for i := 0; i < 20000; i++ {
		cpu := rng.Intn(8)
		a := cache.Addr(rng.Intn(1<<13)) * cache.LineBytes
		now += sim.Time(rng.Intn(200)) * sim.Nanosecond
		c := r.d[cpu]
		st := c.State(a.Line())
		switch {
		case rng.Bool(0.6):
			if st == cache.Invalid {
				r.l2.Access(now, c, Read, a)
			}
		default:
			switch st {
			case cache.Invalid:
				r.l2.Access(now, c, ReadEx, a)
			case cache.Shared:
				r.l2.Access(now, c, Upgrade, a)
			default:
				c.SetState(a.Line(), cache.Modified)
			}
		}
		if i%5000 == 4999 {
			if err := r.l2.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	r.check(t)
}

// caps snapshots every bank's dense-table capacities (info, pend).
func (r *rig) caps() (info, pend []int) {
	for _, b := range r.l2.banks {
		info = append(info, b.info.Cap())
		pend = append(pend, b.pend.Cap())
	}
	return
}

// TestDenseTablesRecycleSlotsUnderEvictionChurn: sustained traffic over
// a working set far larger than the L1s forces constant L1 evictions,
// ownership replacements, and dropIfGone/l2Evicted deletions. After a
// warm-up pass the dense line tables must have reached steady size —
// continued churn recycles tombstoned slots instead of growing the
// backing arrays.
func TestDenseTablesRecycleSlotsUnderEvictionChurn(t *testing.T) {
	r := newRig(t)
	now := sim.Time(0)
	churn := func(rounds int) {
		for round := 0; round < rounds; round++ {
			for i := 0; i < 8192; i++ {
				a := cache.Addr(i) * cache.LineBytes
				c := r.d[i%2] // two L1s: 4096 lines each, 4x their capacity
				kind := Read
				if i%5 == 0 {
					kind = ReadEx
				}
				if kind == ReadEx && c.State(a.Line()) == cache.Shared {
					kind = Upgrade
				}
				if kind == Read && c.State(a.Line()) != cache.Invalid {
					continue
				}
				now += 50 * sim.Nanosecond
				r.l2.Access(now, c, kind, a)
			}
		}
	}
	churn(2)
	infoBefore, pendBefore := r.caps()
	churn(10)
	infoAfter, pendAfter := r.caps()
	for i := range infoBefore {
		if infoAfter[i] != infoBefore[i] {
			t.Errorf("bank %d info table grew %d -> %d under steady churn",
				i, infoBefore[i], infoAfter[i])
		}
		if pendAfter[i] != pendBefore[i] {
			t.Errorf("bank %d pend table grew %d -> %d under steady churn",
				i, pendBefore[i], pendAfter[i])
		}
	}
	r.check(t)
}

// TestInfoSlotReuseUnderOwnershipReplacement: a line that is repeatedly
// invalidated off-chip (ServeRemote exclusive deletes its record) and
// refetched (serveMiss re-inserts it) must cycle through the dense
// table without growing it — the retry traffic TSRF timeout recovery
// generates looks exactly like this loop.
func TestInfoSlotReuseUnderOwnershipReplacement(t *testing.T) {
	r := newRig(t)
	a := cache.Addr(0x40000)
	b := r.l2.BankOf(a.Line())
	now := sim.Time(0)
	r.l2.Access(now, r.d[0], Read, a)
	capBefore := b.info.Cap()
	for i := 0; i < 10000; i++ {
		now += 200 * sim.Nanosecond
		onChip, _, done := r.l2.ServeRemote(now, a.Line(), true)
		if !onChip {
			t.Fatalf("iter %d: line vanished before remote invalidation", i)
		}
		if b.info.Ref(a.Line()) != nil {
			t.Fatalf("iter %d: record survived exclusive remote service", i)
		}
		now = done + sim.Nanosecond
		r.l2.Access(now, r.d[i%8], Read, a)
		if b.info.Ref(a.Line()) == nil {
			t.Fatalf("iter %d: refetch did not re-insert the record", i)
		}
	}
	if got := b.info.Cap(); got != capBefore {
		t.Errorf("info table grew %d -> %d across delete/re-insert churn", capBefore, got)
	}
	// pend is overwritten in place for the same line: exactly one entry.
	if b.pend.Len() != 1 {
		t.Errorf("pend entries = %d, want 1 (same-line blocks must overwrite)", b.pend.Len())
	}
	r.check(t)
}

// TestHasLineAllocsNothing pins the dense line table's lookup: probing a
// warmed L2, half the probes resident and half not, allocates nothing.
// One counted run covers 50 sweeps, so AllocsPerRun's integer average
// cannot round a stray allocation away.
func TestHasLineAllocsNothing(t *testing.T) {
	r := newRig(t)
	const lines = 4096
	now := sim.Time(0)
	for i := 0; i < lines; i++ {
		now += 50 * sim.Nanosecond
		r.l2.Access(now, r.d[i%8], Read, cache.Addr(i)*cache.LineBytes)
	}
	probes := make([]cache.LineAddr, 2*lines)
	for i := range probes {
		probes[i] = cache.LineAddr(i)
	}
	hits := 0
	allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < 50; k++ {
			hits = 0
			for _, l := range probes {
				if r.l2.HasLine(l) {
					hits++
				}
			}
		}
	})
	if hits == 0 || hits == len(probes) {
		t.Fatalf("degenerate probe mix (%d/%d hits)", hits, len(probes))
	}
	if allocs != 0 {
		t.Fatalf("50 x %d HasLine probes allocate %.0f objects", len(probes), allocs)
	}
}

// TestCheckInvariantsCatchesEachViolation breaks each structural
// invariant in turn on a consistent chip and requires CheckInvariants
// to name it.
func TestCheckInvariantsCatchesEachViolation(t *testing.T) {
	a, b := cache.Addr(0x4000).Line(), cache.Addr(0x8040).Line()
	// a: exclusive in d[0]; b: shared by d[0] and d[1], owned by d[1].
	setup := func(r *rig) {
		r.l2.Access(0, r.d[0], Read, a.Addr())
		r.l2.Access(1000, r.d[0], Read, b.Addr())
		r.l2.Access(2000, r.d[1], Read, b.Addr())
		r.check(t)
	}
	info := func(r *rig, line cache.LineAddr) *lineInfo { return r.l2.BankOf(line).info.Ref(line) }
	for _, tc := range []struct {
		name      string
		inclusive bool
		corrupt   func(r *rig)
		want      string
	}{
		// 1. Duplicate tags are exact.
		{"dup tag names a non-holder", false, func(r *rig) { info(r, a).sharers |= 1 << 5 }, "dup tags 0x21, actual 0x1"},
		{"holder missing from dup tags", false, func(r *rig) { r.d[2].Fill(b, cache.Shared) }, "dup tags 0x5, actual 0x15"},
		// 2. Single ownership, and the owner holds a copy.
		{"owner L1 does not hold", false, func(r *rig) { info(r, b).owner = 5 }, "owner L1 5 does not hold it"},
		{"owned by L2 but not in L2", false, func(r *rig) { info(r, a).owner = ownerL2 }, "owned by L2 but not in L2"},
		{"in L2 but owned by an L1", false, func(r *rig) { r.l2.BankOf(b).arr.Insert(b, cache.Shared) }, "in L2 but owned by L1 2"},
		// 3. Exclusive copies are alone and not in a non-inclusive L2.
		{"two exclusive L1s", false, func(r *rig) {
			r.d[0].SetState(b, cache.Modified)
			r.d[1].SetState(b, cache.Exclusive)
		}, "exclusive in 2 L1s"},
		{"exclusive alongside a sharer", false, func(r *rig) { r.d[1].SetState(b, cache.Modified) }, "exclusive alongside sharers"},
		{"exclusive L1 line valid in L2", false, func(r *rig) { r.l2.BankOf(a).arr.Insert(a, cache.Shared) }, "exclusive in an L1 and valid in L2"},
		{"inclusive L2 lost an L1 line", true, func(r *rig) { r.l2.BankOf(a).arr.Invalidate(a) }, "absent from the inclusive L2"},
		// 4. Line info exists exactly for resident lines.
		{"untracked L1 line", false, func(r *rig) { r.d[3].Fill(0x777, cache.Shared) }, "line 0x777 held by L1s 0x40 but untracked"},
		{"tracked line resident nowhere", false, func(r *rig) {
			r.l2.BankOf(0x555).info.Put(0x555, lineInfo{owner: ownerL2})
		}, "line 0x555 tracked but resident nowhere"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			if tc.inclusive {
				r = newInclusiveRig(t)
			}
			setup(r)
			tc.corrupt(r)
			err := r.l2.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants() = %v, want %q", err, tc.want)
			}
		})
	}
}

// With violations on several lines, the lowest line address is
// reported, whichever walk finds it.
func TestCheckInvariantsReportsLowestLine(t *testing.T) {
	r := newRig(t)
	for i, line := range []cache.LineAddr{0x900, 0x300, 0x600} {
		r.l2.Access(sim.Time(i)*sim.Microsecond, r.d[0], Read, line.Addr())
	}
	r.check(t)
	r.l2.BankOf(0x900).info.Ref(0x900).owner = 5 // bank walk
	r.d[4].Fill(0x600, cache.Shared)             // L1 walk
	want := "line 0x600 dup tags 0x1, actual 0x101"
	if err := r.l2.CheckInvariants(); err == nil || err.Error() != want {
		t.Fatalf("CheckInvariants() = %v, want %q", err, want)
	}
	r.l2.BankOf(0x300).info.Ref(0x300).sharers |= 1 << 9 // bank walk, lower
	want = "line 0x300 dup tags 0x201, actual 0x1"
	if err := r.l2.CheckInvariants(); err == nil || err.Error() != want {
		t.Fatalf("CheckInvariants() = %v, want %q", err, want)
	}
}
