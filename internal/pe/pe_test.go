package pe

import (
	"strings"
	"testing"

	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/ics"
	"piranha/internal/l1"
	"piranha/internal/l2"
	"piranha/internal/sim"
)

// fakeMem mirrors the l2 test double.
type fakeMem struct{ reads, writes int }

func (m *fakeMem) Read(now sim.Time, _ cache.Addr) (sim.Time, sim.Time) {
	m.reads++
	return now + 60*sim.Nanosecond, now + 90*sim.Nanosecond
}
func (m *fakeMem) Write(now sim.Time, _ cache.Addr) sim.Time {
	m.writes++
	return now + 40*sim.Nanosecond
}

// chipRig is one chip bound into a fabric.
type chipRig struct {
	l2 *l2.L2
	d  []*l1.Cache
}

// newSystem builds n chips (4 CPUs each) over a flat network.
func newSystem(t testing.TB, n int, baseline bool) (*Fabric, []*chipRig) {
	t.Helper()
	return newSystemL2(t, n, baseline, l2.DefaultConfig())
}

// newSystemL2 is newSystem with the given L2 geometry.
func newSystemL2(t testing.TB, n int, baseline bool, l2cfg l2.Config) (*Fabric, []*chipRig) {
	t.Helper()
	cfg := DefaultConfig(n)
	cfg.Baseline = baseline
	cfg.UseCMI = !baseline
	f := NewFabric(cfg, NewFlatNetwork(25*sim.Nanosecond))
	clock := sim.MHz(500)
	var chips []*chipRig
	for i := 0; i < n; i++ {
		c := &chipRig{}
		var l1s []*l1.Cache
		for cpu := 0; cpu < 4; cpu++ {
			d := l1.New(l1.Data, cpu, cpu*2, l1.DefaultConfig())
			ic := l1.New(l1.Instruction, cpu, cpu*2+1, l1.DefaultConfig())
			c.d = append(c.d, d)
			l1s = append(l1s, d, ic)
		}
		var mems []l2.Memory
		for b := 0; b < 8; b++ {
			mems = append(mems, &fakeMem{})
		}
		c.l2 = l2.New(l2cfg, clock, l1s, mems, ics.New(ics.DefaultConfig(clock)), f.Proto(NodeID(i)))
		f.BindL2(NodeID(i), c.l2)
		chips = append(chips, c)
	}
	return f, chips
}

// lineHomedAt returns an address whose home is the given node.
func lineHomedAt(f *Fabric, node NodeID) cache.Addr {
	for page := uint64(0); ; page++ {
		a := cache.Addr(page << cache.PageShift)
		if f.HomeOf(a.Line()) == node {
			return a
		}
	}
}

func TestHomeOfInterleave(t *testing.T) {
	f := NewFabric(DefaultConfig(4), NewFlatNetwork(25*sim.Nanosecond))
	// Consecutive 8 KB pages round-robin across nodes; lines within a
	// page share a home.
	a := cache.Addr(0)
	if f.HomeOf(a.Line()) != f.HomeOf((a + 8191).Line()) {
		t.Fatal("same page, different homes")
	}
	if f.HomeOf(a.Line()) == f.HomeOf((a + 8192).Line()) {
		t.Fatal("adjacent pages should map to different homes")
	}
	seen := map[NodeID]bool{}
	for p := 0; p < 4; p++ {
		seen[f.HomeOf(cache.Addr(p<<cache.PageShift).Line())] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 pages hit %d homes", len(seen))
	}
}

func TestRemoteCleanReadLatency(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 1) // homed at chip 1, requested by chip 0
	done, svc := chips[0].l2.Access(0, chips[0].d[0], l2.Read, a)
	if svc != l2.SvcRemote {
		t.Fatalf("svc %v, want remote", svc)
	}
	// Table 1 calibration: ~120 ns remote clean.
	if done < 100*sim.Nanosecond || done > 160*sim.Nanosecond {
		t.Fatalf("remote clean latency %d ns, want ~120", done/sim.Nanosecond)
	}
	// Clean-exclusive optimization: sole system-wide copy gets E.
	if st := chips[0].d[0].State(a.Line()); st != cache.Exclusive {
		t.Fatalf("state %v, want E (clean-exclusive)", st)
	}
}

func TestRemoteDirtyThreeHop(t *testing.T) {
	f, chips := newSystem(t, 3, false)
	a := lineHomedAt(f, 1)
	// Chip 2 dirties the line (homed at 1); chip 0 then reads it.
	chips[2].l2.Access(0, chips[2].d[0], l2.ReadEx, a)
	now := 10 * sim.Microsecond
	done, svc := chips[0].l2.Access(now, chips[0].d[0], l2.Read, a)
	if svc != l2.SvcRemoteDirty {
		t.Fatalf("svc %v, want remote-dirty", svc)
	}
	if lat := done - now; lat < 140*sim.Nanosecond || lat > 240*sim.Nanosecond {
		t.Fatalf("3-hop latency %d ns, want ~180", lat/sim.Nanosecond)
	}
	if f.ThreeHop == 0 {
		t.Fatal("three-hop counter not incremented")
	}
	// Prior owner downgraded to shared; directory shows both sharers.
	if st := chips[2].d[0].State(a.Line()); st != cache.Shared {
		t.Fatalf("owner state %v, want S", st)
	}
	e := f.dirEntry(f.nodes[1], a.Line())
	if e.State != directory.Shared || !e.Sharers.Has(0) || !e.Sharers.Has(2) {
		t.Fatalf("directory after dirty share: %+v", e)
	}
}

func TestWriteInvalidatesRemoteSharers(t *testing.T) {
	f, chips := newSystem(t, 3, false)
	a := lineHomedAt(f, 0)
	// Chips 1 and 2 read the line homed at 0.
	chips[1].l2.Access(0, chips[1].d[0], l2.Read, a)
	chips[2].l2.Access(1*sim.Microsecond, chips[2].d[0], l2.Read, a)
	// Chip 0 (the home) writes: remote copies must die.
	chips[0].l2.Access(2*sim.Microsecond, chips[0].d[0], l2.ReadEx, a)
	if chips[1].l2.HasLine(a.Line()) || chips[2].l2.HasLine(a.Line()) {
		t.Fatal("remote sharers survived a home write")
	}
	if f.InvalsSent == 0 {
		t.Fatal("no invalidations sent")
	}
	e := f.dirEntry(f.nodes[0], a.Line())
	if e.State != directory.Uncached {
		t.Fatalf("directory %v after home write, want uncached", e.State)
	}
}

func TestRemoteWriteTracksExclusive(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 0)
	chips[1].l2.Access(0, chips[1].d[0], l2.ReadEx, a)
	e := f.dirEntry(f.nodes[0], a.Line())
	if e.State != directory.Exclusive || e.Owner != 1 {
		t.Fatalf("directory %+v, want exclusive@1", e)
	}
	// A local (home) read must now fetch from the remote owner.
	now := 10 * sim.Microsecond
	done, svc := chips[0].l2.Access(now, chips[0].d[0], l2.Read, a)
	if svc != l2.SvcRemoteDirty {
		t.Fatalf("svc %v, want remote-dirty", svc)
	}
	if lat := done - now; lat < 150*sim.Nanosecond {
		t.Fatalf("home read of remote-dirty line too fast: %d ns", lat/sim.Nanosecond)
	}
}

func TestUpgradeOfRemoteHomedSharedLine(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 1)
	// Both chips read (chip 0 remote, chip 1 local home).
	chips[0].l2.Access(0, chips[0].d[0], l2.Read, a)
	chips[1].l2.Access(1*sim.Microsecond, chips[1].d[0], l2.Read, a)
	// Chip 0 upgrades its shared copy: must revoke chip 1's.
	now := 10 * sim.Microsecond
	chips[0].l2.Access(now, chips[0].d[0], l2.Upgrade, a)
	if chips[0].d[0].State(a.Line()) != cache.Modified {
		t.Fatal("upgrader not M")
	}
	if chips[1].l2.HasLine(a.Line()) {
		t.Fatal("home chip copy survived remote upgrade")
	}
	e := f.dirEntry(f.nodes[1], a.Line())
	if e.State != directory.Exclusive || e.Owner != 0 {
		t.Fatalf("directory %+v, want exclusive@0", e)
	}
}

func TestWritebackClearsDirectory(t *testing.T) {
	f, chips := newSystem(t, 2, false)
	a := lineHomedAt(f, 1)
	chips[0].l2.Access(0, chips[0].d[0], l2.ReadEx, a) // dirty at chip 0
	p := f.Proto(0)
	p.Writeback(1*sim.Microsecond, a.Line())
	e := f.dirEntry(f.nodes[1], a.Line())
	if e.State != directory.Uncached {
		t.Fatalf("directory %v after writeback", e.State)
	}
}

func TestCMIBoundsInjectedMessages(t *testing.T) {
	// 16 sharers, fanout 4: at most 4 injected invalidation messages
	// and 4 acks — the paper's bounded-buffering argument.
	cfg := DefaultConfig(20)
	f := NewFabric(cfg, NewFlatNetwork(25*sim.Nanosecond))
	h := f.nodes[0]
	var sharers []NodeID
	w := directory.UncachedWord
	for i := 1; i <= 16; i++ {
		sharers = append(sharers, NodeID(i))
		w = w.AddSharer(f.dcfg, NodeID(i))
	}
	f.setDir(h, 0, w)
	ack := f.invalidate(0, h, 19, 0, sharers, w.State() == directory.SharedCoarse)
	if f.InvalMsgs != 4 {
		t.Fatalf("CMI injected %d messages for 16 sharers, want 4", f.InvalMsgs)
	}
	if f.InvalAcks != 4 {
		t.Fatalf("CMI acks %d, want 4", f.InvalAcks)
	}
	if f.InvalsSent != 16 {
		t.Fatalf("invalidated %d sharers", f.InvalsSent)
	}
	if ack <= 0 {
		t.Fatal("no ack time")
	}
}

func TestCoarseOverInvalCount(t *testing.T) {
	// 50 nodes is not a multiple of the 42-bit vector width, so each
	// coarse group spans two nodes and naming one sharer names its
	// sibling too. The invalidation must still visit the sibling (the
	// vector is a superset) but count the visit as an over-invalidation.
	f, chips := newSystem(t, 50, false)
	a := lineHomedAt(f, 0)
	readers := []int{2, 4, 6, 8, 10, 12}
	for _, i := range readers {
		chips[i].l2.Access(0, chips[i].d[0], l2.Read, a)
	}
	if e := f.dirEntry(f.nodes[0], a.Line()); e.State != directory.SharedCoarse {
		t.Fatalf("directory %v after %d sharers, want SharedCoarse", e.State, len(readers))
	}
	chips[1].l2.Access(10*sim.Microsecond, chips[1].d[0], l2.ReadEx, a)
	// Six groups of two: each reader's odd sibling is visited without a
	// copy.
	if f.OverInvals != 6 || f.InvalsSent != 12 {
		t.Fatalf("OverInvals %d of InvalsSent %d, want 6 of 12", f.OverInvals, f.InvalsSent)
	}
}

func TestBroadcastVsCMIMessageCounts(t *testing.T) {
	mk := func(useCMI bool) *Fabric {
		cfg := DefaultConfig(40)
		cfg.UseCMI = useCMI
		return NewFabric(cfg, NewFlatNetwork(25*sim.Nanosecond))
	}
	var sharers []NodeID
	for i := 1; i <= 32; i++ {
		sharers = append(sharers, NodeID(i))
	}
	cmi := mk(true)
	cmi.invalidate(0, cmi.nodes[0], 39, 0, sharers, false)
	bc := mk(false)
	bc.invalidate(0, bc.nodes[0], 39, 0, sharers, false)
	if cmi.InvalMsgs >= bc.InvalMsgs {
		t.Fatalf("CMI (%d msgs) should inject fewer than broadcast (%d)", cmi.InvalMsgs, bc.InvalMsgs)
	}
	if bc.InvalMsgs != 32 || bc.InvalAcks != 32 {
		t.Fatalf("broadcast counts %d/%d", bc.InvalMsgs, bc.InvalAcks)
	}
}

func TestBaselineSendsMoreMessages(t *testing.T) {
	// Same 3-hop dirty-write sequence under both protocols; the DASH
	// baseline must emit the extra ownership-change confirmation. (On a
	// dirty read the two tie: Piranha's owner sends the sharing
	// writeback where DASH's sends the confirmation.)
	run := func(baseline bool) uint64 {
		f, chips := newSystem(t, 3, baseline)
		a := lineHomedAt(f, 1)
		chips[2].l2.Access(0, chips[2].d[0], l2.ReadEx, a)
		chips[0].l2.Access(10*sim.Microsecond, chips[0].d[0], l2.ReadEx, a)
		var msgs uint64
		for i := 0; i < 3; i++ {
			he, re := f.Engines(NodeID(i))
			msgs += he.Stats.Messages + re.Stats.Messages
		}
		return msgs
	}
	nonak := run(false)
	nak := run(true)
	if nak <= nonak {
		t.Fatalf("baseline messages %d should exceed no-NAK %d", nak, nonak)
	}
}

func TestBaselineNAKsUnderSaturation(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Baseline = true
	cfg.UseCMI = false
	cfg.TSRFEntries = 2
	f := NewFabric(cfg, NewFlatNetwork(25*sim.Nanosecond))
	h := f.nodes[1]
	// Saturate the home engine's two TSRF entries far into the future.
	hold1 := h.home.tsrf.Reserve(0)
	hold2 := h.home.tsrf.Reserve(0)
	done, _, _ := f.Proto(0).Fetch(0, l2.Read, lineHomedAt(f, 1).Line())
	hold1.Release(1 * sim.Millisecond)
	hold2.Release(1 * sim.Millisecond)
	if h.home.Stats.NAKs == 0 {
		t.Fatal("saturated baseline home did not NAK")
	}
	if done <= 0 {
		t.Fatal("request never completed")
	}
}

func TestNoNAKQueuesInsteadOfNAKing(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.TSRFEntries = 2
	f := NewFabric(cfg, NewFlatNetwork(25*sim.Nanosecond))
	h := f.nodes[1]
	h.home.tsrf.Reserve(0).Release(200 * sim.Nanosecond)
	h.home.tsrf.Reserve(0).Release(200 * sim.Nanosecond)
	done, _, _ := f.Proto(0).Fetch(0, l2.Read, lineHomedAt(f, 1).Line())
	if h.home.Stats.NAKs != 0 {
		t.Fatal("no-NAK protocol NAKed")
	}
	if done < 200*sim.Nanosecond {
		t.Fatal("request should have waited for a TSRF entry")
	}
}

func TestCrossChipInvariantStress(t *testing.T) {
	// A 32 KB L2 under a footprint far larger than it, so exclusively
	// held remote lines are evicted from their chips all run long.
	cfg := l2.DefaultConfig()
	cfg.SizeBytes = 32 << 10
	f, chips := newSystemL2(t, 4, false, cfg)
	rng := sim.NewRNG(77)
	now := sim.Time(0)
	for i := 0; i < 64000; i++ {
		chip := chips[rng.Intn(4)]
		cpu := rng.Intn(4)
		// Half the accesses go to a shared hot region spanning pages
		// homed at all nodes, half to a 1 MB region.
		a := cache.Addr(rng.Intn(512)) * cache.LineBytes
		if rng.Bool(0.5) {
			a += cache.Addr(rng.Intn(4)) << cache.PageShift
		} else {
			a = cache.Addr(rng.Intn(1<<14)) * cache.LineBytes
		}
		now += sim.Time(rng.Intn(500)) * sim.Nanosecond
		d := chip.d[cpu]
		st := d.State(a.Line())
		if rng.Bool(0.6) {
			if st == cache.Invalid {
				chip.l2.Access(now, d, l2.Read, a)
			}
		} else {
			switch st {
			case cache.Invalid:
				chip.l2.Access(now, d, l2.ReadEx, a)
			case cache.Shared:
				chip.l2.Access(now, d, l2.Upgrade, a)
			default:
				d.SetState(a.Line(), cache.Modified)
			}
		}
		if i%2000 == 1999 {
			for ci, c := range chips {
				if err := c.l2.CheckInvariants(); err != nil {
					t.Fatalf("step %d chip %d: %v", i, ci, err)
				}
			}
		}
	}
	// System-wide single-writer invariant: a line Modified on one chip
	// must not be valid anywhere else.
	for _, c := range chips {
		for cpu := 0; cpu < 4; cpu++ {
			c.d[cpu].Range(func(ln cache.Line) bool {
				if !ln.State.CanWrite() {
					return true
				}
				for _, o := range chips {
					if o != c && o.l2.HasLine(ln.Tag) {
						t.Fatalf("line %#x exclusive on one chip, cached on another", ln.Tag)
					}
				}
				return true
			})
		}
	}
	// Every owner the directories name still holds its line: a chip
	// never drops an exclusive remote line without writing it back.
	owned, stale := 0, 0
	for _, h := range f.nodes {
		for _, line := range h.dir.Keys() {
			e := f.dirEntry(h, line)
			if e.State != directory.Exclusive {
				continue
			}
			owned++
			if !chips[e.Owner].l2.HasLine(line) {
				stale++
			}
		}
	}
	if owned == 0 {
		t.Fatal("no exclusive directory entries at the end of the run")
	}
	if stale != 0 {
		t.Fatalf("%d of %d exclusive directory entries name an owner with no copy", stale, owned)
	}
}

func TestEngineTimeoutRecovery(t *testing.T) {
	// A transaction whose reply never arrives (failed node) must not
	// wedge the engine: the TSRF timer reclaims the entry.
	e := newEngine("HE", 2, 10*sim.Nanosecond)
	e.tsrf.Reserve(0) // orphaned
	e.tsrf.Reserve(0) // orphaned
	if got := e.Recover(1*sim.Millisecond, 100*sim.Microsecond); got != 2 {
		t.Fatalf("recovered %d, want 2", got)
	}
	if e.Stats.Recoveries != 2 {
		t.Fatalf("stats %d", e.Stats.Recoveries)
	}
	// The engine serves new work afterwards.
	done := e.process(1*sim.Millisecond, 0)
	if done <= 1*sim.Millisecond {
		t.Fatal("engine wedged after recovery")
	}
}

func TestReachingAHolePanics(t *testing.T) {
	// Node 1 requests a line the directory already records it owning:
	// the table declares that combination unreachable.
	f := NewFabric(DefaultConfig(2), NewFlatNetwork(25*sim.Nanosecond))
	line := lineHomedAt(f, 0).Line()
	f.setDir(f.nodes[0], line, directory.ExclusiveWord(1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "owner is the requester") {
			t.Fatalf("recovered %q, want the owner-is-requester hole", msg)
		}
	}()
	f.Proto(1).Fetch(0, l2.ReadEx, line)
}

// TestDirectoryDispatchAllocsNothing pins the directory half of a
// home-engine dispatch (decode, add sharer, re-encode, store): on a
// table warmed by SeedDirectory every store overwrites, and 50 passes
// over 4096 lines allocate nothing.
func TestDirectoryDispatchAllocsNothing(t *testing.T) {
	f := NewFabric(DefaultConfig(8), NewFlatNetworkN(25*sim.Nanosecond, 8))
	lines := f.SeedDirectory(4096)
	touched := 0
	allocs := testing.AllocsPerRun(1, func() {
		for k := 0; k < 50; k++ {
			touched = f.DirectoryDispatch(lines)
		}
	})
	if touched != len(lines) {
		t.Fatalf("touched %d entries, want %d", touched, len(lines))
	}
	if allocs != 0 {
		t.Fatalf("50 x %d dispatches allocate %.0f objects", len(lines), allocs)
	}
}

// The directory's 10-bit pointers name at most 1024 nodes; a larger
// fabric is refused when built rather than at its first directory write.
func TestNewFabricRefusesMoreThanMaxNodes(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "1025 nodes exceeds the directory's 1024") {
			t.Fatalf("recovered %q, want the node-count panic", msg)
		}
	}()
	NewFabric(DefaultConfig(directory.MaxNodes+1), NewFlatNetwork(25*sim.Nanosecond))
}
