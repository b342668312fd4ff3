package l2

import (
	"fmt"
	"math/bits"

	"piranha/internal/cache"
	"piranha/internal/l1"
	"piranha/internal/sim"
	"piranha/internal/stats"
)

// ServeRemote is the home-engine hook: a remote node requested a line
// whose home is this chip, and the line may be cached here. It performs
// the on-chip state changes (downgrade for a remote read, invalidation
// for a remote exclusive request) and reports whether the chip supplied
// the data and whether the on-chip copy was dirty.
//
// For a remote read the line becomes shared between this chip and the
// requester (the home's partial directory state is updated so later local
// writes know to invalidate remotely). For an exclusive request every
// on-chip copy is invalidated.
func (l *L2) ServeRemote(now sim.Time, line cache.LineAddr, exclusive bool) (onChip, dirty bool, done sim.Time) {
	b := l.BankOf(line)
	info := b.info.Ref(line)
	if info == nil {
		return false, false, now
	}
	start := b.occupy(l, now, line)
	done = start + l.cfg.FwdLatency
	dirty = info.dirty
	if exclusive {
		l.invalidateSharers(b, line, info, -1)
		b.arr.Invalidate(line)
		b.info.Delete(line)
	} else {
		for id := 0; id < len(l.l1s); id++ {
			if info.sharers&(1<<uint(id)) != 0 {
				l.l1s[id].Downgrade(line)
			}
		}
		info.remote = RemoteShared
		// The reply also updates home memory, so the on-chip copy is
		// no longer the only up-to-date one.
		info.dirty = false
	}
	b.block(line, done)
	return true, dirty, done
}

// FlushDirty forces a line's on-chip dirty state back to memory (the
// persistent-memory barrier of §2.7: the protocol engines intervene to
// push volatile cached state to safe memory). Cached copies remain, but
// downgraded to clean/shared. It reports whether a write-back happened
// and when it completed.
func (l *L2) FlushDirty(now sim.Time, line cache.LineAddr) (bool, sim.Time) {
	b := l.BankOf(line)
	info := b.info.Ref(line)
	if info == nil || !info.dirty {
		return false, now
	}
	start := b.occupy(l, now, line)
	for id := 0; id < len(l.l1s); id++ {
		if info.sharers&(1<<uint(id)) != 0 {
			l.l1s[id].Downgrade(line)
		}
	}
	info.dirty = false
	done := l.mems[b.idx].Write(start, line.Addr())
	l.Stats.WritebacksToMem++
	b.block(line, done)
	return true, done
}

// DirtyLines returns the on-chip dirty lines intersecting [lo, hi)
// (persistent-region barriers flush these). Banks are walked in index
// order and each bank's lines in address order, so the slice — and the
// flush traffic a barrier derives from it — is deterministic.
func (l *L2) DirtyLines(lo, hi cache.Addr) []cache.LineAddr {
	var out []cache.LineAddr
	for _, b := range l.banks {
		for _, line := range b.info.Keys() {
			if info := b.info.Ref(line); info.dirty && line.Addr() >= lo && line.Addr() < hi {
				out = append(out, line)
			}
		}
	}
	return out
}

// CrashVolatile models a power failure: every volatile cache loses its
// contents (L1s and the L2 array alike); only memory survives. Returns
// how many dirty lines were lost (the state a persistent-memory barrier
// would have saved).
func (l *L2) CrashVolatile() (lostDirty int) {
	for _, b := range l.banks {
		b.info.Range(func(line cache.LineAddr, info *lineInfo) bool {
			if info.dirty {
				lostDirty++
			}
			for id := 0; id < len(l.l1s); id++ {
				if info.sharers&(1<<uint(id)) != 0 {
					l.l1s[id].Invalidate(line)
				}
			}
			b.arr.Invalidate(line)
			return true
		})
		b.info.Reset()
		b.pend.Reset()
	}
	return lostDirty
}

// AddClient registers an additional L1-class client of the L2 — the I/O
// chip's PCI/X-front dL1 instance. It must be called before any traffic,
// and the client's ID must be the next free duplicate-tag slot.
func (l *L2) AddClient(c *l1.Cache) {
	if c.ID != len(l.l1s) {
		panic(fmt.Sprintf("l2: client ID %d, want %d", c.ID, len(l.l1s)))
	}
	if len(l.l1s) >= 32 {
		panic("l2: too many clients")
	}
	l.l1s = append(l.l1s, c)
}

// MarkRemoteShared records in the partial directory state that remote
// copies of a home-local line exist (used when the home engine exports a
// line that is also cached on-chip).
func (l *L2) MarkRemoteShared(line cache.LineAddr) {
	if info := l.BankOf(line).info.Ref(line); info != nil {
		info.remote = RemoteShared
	}
}

// HasLine reports whether any on-chip cache holds the line (tests, pe).
//
//piranha:hotpath
func (l *L2) HasLine(line cache.LineAddr) bool {
	return l.BankOf(line).info.Ref(line) != nil
}

// Holding reports whether the chip holds the line and, if so, whether
// it holds it exclusively system-wide (no other node may have a copy).
//
//piranha:hotpath
func (l *L2) Holding(line cache.LineAddr) (held, exclusive bool) {
	if info := l.BankOf(line).info.Ref(line); info != nil {
		return true, info.remote == RemoteNone
	}
	return false, false
}

// LineDirty reports the dirty status of an on-chip line.
//
//piranha:hotpath
func (l *L2) LineDirty(line cache.LineAddr) bool {
	if info := l.BankOf(line).info.Ref(line); info != nil {
		return info.dirty
	}
	return false
}

// MissBreakdown returns the Figure-6(b) decomposition of L1 misses.
// Upgrades are excluded: the line is already present in the L1, so no
// miss is being served.
func (l *L2) MissBreakdown() stats.MissBreakdown {
	return stats.MissBreakdown{
		L2Hit:  l.Stats.Hits,
		L2Fwd:  l.Stats.Fwds,
		L2Miss: l.Stats.LocalMem + l.Stats.Remote + l.Stats.RemoteDirty,
	}
}

// ResetStats clears the chip-level counters (after warmup).
func (l *L2) ResetStats() {
	l.Stats = Stats{}
	for _, b := range l.banks {
		b.PendWait = 0
		b.PendConflicts = 0
	}
}

// QueueStats reports queueing telemetry: total same-line pending-entry
// wait, total bank-controller wait, and total outstanding-entry wait.
func (l *L2) QueueStats() (pendWait, ctlWait, tsrfWait sim.Time, conflicts uint64) {
	for _, b := range l.banks {
		pendWait += b.PendWait
		ctlWait += b.ctl.WaitTime
		tsrfWait += sim.Time(b.tsrf.WaitTime)
		conflicts += b.PendConflicts
	}
	return
}

// CheckInvariants validates the structural invariants the design relies
// on. It is exercised heavily by tests and cheap enough to run after
// randomized workloads:
//
//  1. Duplicate tags are exact: a bank's sharer bitmask for a line equals
//     the set of L1s that actually hold it.
//  2. Single ownership: every tracked line has exactly one owner, and the
//     owner actually holds a copy (the L2 array if owner==L2).
//  3. At most one L1 holds a line in E or M, and then no other L1 holds
//     it at all and the L2 array does not hold it (non-inclusion of
//     exclusive lines).
//  4. Line info exists exactly for lines resident somewhere on chip.
//
// The check walks the L1 arrays and each bank's tracked lines in place:
// every L1-held line must be tracked with that L1's bit set, and every
// set bit must name an L1 that holds the line, so the two walks together
// prove the masks exact without gathering L1 contents. When several
// violations exist, the one on the lowest line address is reported (the
// L1 walk's before the bank walk's on the same line), so every run
// reports the same one.
func (l *L2) CheckInvariants() error {
	var v violation
	for _, c := range l.l1s {
		c.Range(func(ln cache.Line) bool {
			if line := ln.Tag; v.below(line) {
				info := l.BankOf(line).info.Ref(line)
				switch {
				case info == nil:
					v.note(line, fmt.Errorf("line %#x held by L1s %#x but untracked", line, l.holders(line)))
				case info.sharers&(1<<uint(c.ID)) == 0:
					v.note(line, fmt.Errorf("line %#x dup tags %#x, actual %#x", line, info.sharers, l.holders(line)))
				}
			}
			return true
		})
	}
	for _, b := range l.banks {
		b.info.Range(func(line cache.LineAddr, info *lineInfo) bool {
			if v.below(line) {
				if err := l.checkTracked(b, line, info); err != nil {
					v.note(line, err)
				}
			}
			return true
		})
	}
	return v.err
}

// violation keeps the invariant violation on the lowest line address.
type violation struct {
	line cache.LineAddr
	err  error
}

// below reports whether a violation on line would be the first so far.
func (v *violation) below(line cache.LineAddr) bool { return v.err == nil || line < v.line }

func (v *violation) note(line cache.LineAddr, err error) {
	if v.below(line) {
		v.line, v.err = line, err
	}
}

// holders is the mask of L1s that hold the line.
func (l *L2) holders(line cache.LineAddr) uint32 {
	var mask uint32
	for _, c := range l.l1s {
		if c.State(line).Valid() {
			mask |= 1 << uint(c.ID)
		}
	}
	return mask
}

// checkTracked checks one tracked line: every L1 its dup tags name holds
// it (the L1 walk proved the converse), at most one holds it in E or M
// and then alone, the L2 array agrees with the inclusion policy, the
// line is resident somewhere, and its owner holds it.
func (l *L2) checkTracked(b *Bank, line cache.LineAddr, info *lineInfo) error {
	mask := info.sharers
	holders, excl := 0, 0
	for m := mask; m != 0; m &= m - 1 {
		st := l.l1s[bits.TrailingZeros32(m)].State(line)
		if !st.Valid() {
			return fmt.Errorf("line %#x dup tags %#x, actual %#x", line, mask, l.holders(line))
		}
		holders++
		if st.CanWrite() {
			excl++
		}
	}
	if excl > 1 {
		return fmt.Errorf("line %#x exclusive in %d L1s", line, excl)
	}
	if excl == 1 && holders > 1 {
		return fmt.Errorf("line %#x exclusive alongside sharers", line)
	}
	inL2 := b.arr.Lookup(line) != nil
	switch {
	case l.cfg.Inclusive && mask != 0 && !inL2:
		// Inclusion invariant: every L1-held line has an L2 tag.
		return fmt.Errorf("line %#x held by L1s but absent from the inclusive L2", line)
	case !l.cfg.Inclusive && excl == 1 && inL2:
		return fmt.Errorf("line %#x exclusive in an L1 and valid in L2", line)
	case !inL2 && mask == 0:
		return fmt.Errorf("line %#x tracked but resident nowhere", line)
	}
	if info.owner == ownerL2 {
		if !inL2 {
			return fmt.Errorf("line %#x owned by L2 but not in L2", line)
		}
	} else {
		if mask&(1<<uint(info.owner)) == 0 {
			return fmt.Errorf("line %#x owner L1 %d does not hold it", line, info.owner)
		}
		if inL2 && !l.cfg.Inclusive {
			return fmt.Errorf("line %#x in L2 but owned by L1 %d", line, info.owner)
		}
	}
	return nil
}
