package main

// Per-call host cost of single layers, timed through their public
// functions. Each rig runs blocks of calls and reports the median block's
// ns per call with the allocations per call over all blocks.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/ics"
	"piranha/internal/l1"
	"piranha/internal/l2"
	"piranha/internal/noc"
	"piranha/internal/pe"
	"piranha/internal/sim"
)

// microBlocks is the number of timed blocks per rig; the reported cost
// is the median block's.
const microBlocks = 15

// sink keeps results the compiler could otherwise discard.
var sink uint64

// microResult is one rig's per-call cost.
type microResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Allocs is the total over all timed blocks.
	Allocs uint64 `json:"allocs"`
}

// timeBlocks runs warm untimed calls of block, then microBlocks timed
// ones; each call of block performs ops operations.
func timeBlocks(warm, ops int, block func()) microResult {
	for i := 0; i < warm; i++ {
		block()
	}
	runtime.GC()
	per := make([]float64, microBlocks)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range per {
		t0 := time.Now()
		block()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	runtime.ReadMemStats(&m1)
	sort.Float64s(per)
	allocs := m1.Mallocs - m0.Mallocs
	return microResult{
		NsPerOp:     per[len(per)/2],
		AllocsPerOp: float64(allocs) / float64(microBlocks*ops),
		Allocs:      allocs,
	}
}

// workloadOps times Next on the workload's own op streams, cycling
// through the first eight processes.
func workloadOps(s spec, seed uint64) microResult {
	streams := s.streams()[:8]
	rng := sim.NewRNG(seed)
	const ops = 1 << 16
	return timeBlocks(2, ops, func() {
		for i := 0; i < ops; i++ {
			streams[i&7].Next(rng)
		}
	})
}

// engineEvents times one executed event of a self-rescheduling
// population 256 events deep, so every step both pops and pushes at
// varying heap depths.
func engineEvents() microResult {
	e := sim.NewEngine()
	const standing = 256
	live := 1
	var spawn func()
	spawn = func() {
		live--
		for live < standing {
			live++
			e.After(sim.Time(1+(e.Executed()*7+uint64(live)*13)%64), spawn)
		}
	}
	e.Schedule(0, spawn)
	const ops = 1 << 16
	return timeBlocks(2, ops, func() {
		for i := 0; i < ops; i++ {
			e.Step()
		}
	})
}

// fixedMem is the fixed-latency memory behind the L2 rig.
type fixedMem struct{}

func (fixedMem) Read(now sim.Time, _ cache.Addr) (sim.Time, sim.Time) {
	return now + 60*sim.Nanosecond, now + 90*sim.Nanosecond
}
func (fixedMem) Write(now sim.Time, _ cache.Addr) sim.Time { return now + 40*sim.Nanosecond }

// l2Lookup probes a warmed single-chip L2's line table with L2.HasLine;
// half the probes hit resident lines and half miss.
func l2Lookup() (microResult, error) {
	clock := sim.MHz(500)
	var l1s, data []*l1.Cache
	for c := 0; c < 8; c++ {
		d := l1.New(l1.Data, c, c*2, l1.DefaultConfig())
		data = append(data, d)
		l1s = append(l1s, d, l1.New(l1.Instruction, c, c*2+1, l1.DefaultConfig()))
	}
	mems := make([]l2.Memory, 8)
	for b := range mems {
		mems[b] = fixedMem{}
	}
	c2 := l2.New(l2.DefaultConfig(), clock, l1s, mems, ics.New(ics.DefaultConfig(clock)), l2.LocalOnly{})
	const lines = 4096
	now := sim.Time(0)
	for i := 0; i < lines; i++ {
		now += 50 * sim.Nanosecond
		c2.Access(now, data[i%8], l2.Read, cache.Addr(i)*cache.LineBytes)
	}
	probes := make([]cache.LineAddr, 2*lines)
	for i := range probes {
		probes[i] = cache.LineAddr(i)
	}
	hits := 0
	r := timeBlocks(2, len(probes), func() {
		hits = 0
		for _, l := range probes {
			if c2.HasLine(l) {
				hits++
			}
		}
	})
	if hits == 0 || hits == len(probes) {
		return r, fmt.Errorf("l2 lookup: degenerate probe mix (%d/%d hits)", hits, len(probes))
	}
	return r, nil
}

// cacheLookup probes an L1-geometry set-associative array (64 KB,
// 2-way) with Cache.Lookup; half the probes hit.
func cacheLookup() (microResult, error) {
	cfg := l1.DefaultConfig()
	c := cache.New(cache.Config{SizeBytes: cfg.SizeBytes, Ways: cfg.Ways})
	lines := cfg.SizeBytes / cache.LineBytes
	for i := 0; i < lines; i++ {
		c.Insert(cache.LineAddr(i), cache.Shared)
	}
	probes := make([]cache.LineAddr, 2*lines)
	for i := range probes {
		// Odd multiples of lines map to the same sets as resident lines
		// but never hit, so misses scan full sets.
		probes[i] = cache.LineAddr(i/2 + (i%2)*lines)
	}
	hits := 0
	r := timeBlocks(2, len(probes), func() {
		hits = 0
		for _, l := range probes {
			if c.Lookup(l) != nil {
				hits++
			}
		}
	})
	if hits != lines {
		return r, fmt.Errorf("cache lookup: %d hits, want %d", hits, lines)
	}
	return r, nil
}

// directoryCodec round-trips a mix of 64-node directory entries
// (exclusive, 1-4 pointer sharers, coarse vector) through Encode and
// Decode; one op is one Encode plus one Decode.
func directoryCodec() (microResult, error) {
	cfg := directory.Config{Nodes: 64}
	entries := make([]directory.Entry, 1024)
	for i := range entries {
		e := directory.Clear()
		switch i % 4 {
		case 0:
			e = directory.SetExclusive(e, directory.NodeID(i%64))
		case 1, 2:
			for k := 0; k <= i%4; k++ {
				e = directory.AddSharer(cfg, e, directory.NodeID((i+17*k)%64))
			}
		default:
			for k := 0; k < 9; k++ {
				e = directory.AddSharer(cfg, e, directory.NodeID((i+7*k)%64))
			}
		}
		entries[i] = e
	}
	var err error
	r := timeBlocks(2, len(entries), func() {
		for _, e := range entries {
			w, eerr := directory.Encode(cfg, e)
			if eerr != nil {
				err = eerr
				return
			}
			sink += uint64(directory.Decode(cfg, w).State)
		}
	})
	if err != nil {
		return r, fmt.Errorf("directory codec: %w", err)
	}
	// The pointer and exclusive forms are exact: they must round-trip.
	for i, e := range entries {
		if i%4 == 3 {
			continue
		}
		w, _ := directory.Encode(cfg, e)
		if got := directory.Decode(cfg, w); got != e {
			return r, fmt.Errorf("directory codec: entry %d decoded as %+v, want %+v", i, got, e)
		}
	}
	return r, nil
}

// peDirDispatch times the directory half of a home-engine dispatch
// (decode, add sharer, re-encode, store) on a warmed dense directory.
func peDirDispatch() (microResult, error) {
	f := pe.NewFabric(pe.DefaultConfig(8), pe.NewFlatNetworkN(25*sim.Nanosecond, 8))
	lines := f.SeedDirectory(4096)
	touched := 0
	r := timeBlocks(2, len(lines), func() { touched = f.DirectoryDispatch(lines) })
	if touched != len(lines) {
		return r, fmt.Errorf("pe dirdispatch: touched %d entries, want %d", touched, len(lines))
	}
	return r, nil
}

// nocHop delivers a recycled 64-packet batch across an 8-node ring
// through the packet router; one op is one delivered packet. The router
// is off every workload's timing path; the rig measures it directly.
func nocHop() (microResult, error) {
	hb, err := noc.NewHopBench(noc.DefaultConfig(), noc.Ring{N: 8}, 1, 64)
	if err != nil {
		return microResult{}, fmt.Errorf("noc hop: %w", err)
	}
	const rounds = 64
	var rerr error
	round := func() {
		for i := 0; i < rounds; i++ {
			n, err := hb.Round(1 << 20)
			if err == nil && n != hb.Packets() {
				err = fmt.Errorf("delivered %d packets, want %d", n, hb.Packets())
			}
			if err != nil && rerr == nil {
				rerr = err
			}
		}
	}
	// The wheel's buckets and the routers' queues grow toward their
	// high-water marks over the first few hundred rounds; after that a
	// round allocates nothing.
	r := timeBlocks(512/rounds, rounds*hb.Packets(), round)
	if rerr != nil {
		return r, fmt.Errorf("noc hop: %w", rerr)
	}
	return r, nil
}
