package sim

import (
	"strings"
	"testing"
)

// TestPoolLateReleaseAfterRecoverIsNoOp pins the RecoverStale fix: a
// Hold released after the sweep already reclaimed (and another
// reservation reused) its server must not clobber the new occupant.
func TestPoolLateReleaseAfterRecoverIsNoOp(t *testing.T) {
	p := NewPool("tsrf", 1)

	// Reservation A at t=100 is abandoned (its reply was lost).
	holdA := p.Reserve(100)
	if holdA.Start() != 100 {
		t.Fatalf("start A = %d, want 100", holdA.Start())
	}

	// The sweep at t=5000 reclaims it (timeout 1000).
	if n := p.RecoverStale(5000, 1000); n != 1 {
		t.Fatalf("RecoverStale = %d, want 1", n)
	}
	if p.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", p.Recovered)
	}
	if got := p.InUse(5000); got != 0 {
		t.Fatalf("InUse after recover = %d, want 0", got)
	}

	// Reservation B reuses the server.
	holdB := p.Reserve(5000)
	if holdB.Start() != 5000 {
		t.Fatalf("start B = %d, want 5000", holdB.Start())
	}
	busyBefore := p.BusyTime

	// A's release arrives late (the transaction's code path finally
	// unwound). It must be a no-op: B still holds the server.
	holdA.Release(6000)
	if p.BusyTime != busyBefore {
		t.Errorf("late release changed BusyTime: %d -> %d", busyBefore, p.BusyTime)
	}
	if got := p.InUse(7000); got != 1 {
		t.Errorf("late release freed B's server: InUse = %d, want 1", got)
	}

	// B's own release still works.
	holdB.Release(8000)
	if got := p.InUse(9000); got != 0 {
		t.Errorf("B's release ignored: InUse = %d, want 0", got)
	}
	if p.BusyTime != busyBefore+3000 {
		t.Errorf("BusyTime = %d, want %d", p.BusyTime, busyBefore+3000)
	}
}

// TestPoolRecoverStaleRespectsTimeout: a young open reservation and a
// closed (Acquire-style) busy server are both left alone.
func TestPoolRecoverStaleRespectsTimeout(t *testing.T) {
	p := NewPool("tsrf", 2)
	hold := p.Reserve(0)
	p.Acquire(0, 10_000) // closed-end occupancy, not an open reservation

	if n := p.RecoverStale(500, 1000); n != 0 {
		t.Fatalf("RecoverStale reclaimed a young reservation: %d", n)
	}
	// Exactly at the timeout boundary the entry is not yet stale
	// (strictly-greater comparison).
	if n := p.RecoverStale(1000, 1000); n != 0 {
		t.Fatalf("RecoverStale reclaimed at age == timeout: %d", n)
	}
	if n := p.RecoverStale(1001, 1000); n != 1 {
		t.Fatalf("RecoverStale past timeout = %d, want 1", n)
	}
	hold.Release(2000) // late release of the reclaimed entry: must be inert
	if got := p.InUse(5000); got != 1 {
		t.Errorf("InUse = %d, want 1 (the Acquire occupancy)", got)
	}
}

// TestWatchdogFailsOnFrozenProgress: a run whose queue keeps ticking but
// whose progress counter froze must fail with a diagnostic.
func TestWatchdogFailsOnFrozenProgress(t *testing.T) {
	eng := NewEngine()
	var failMsg string
	progress := uint64(7) // never moves
	NewWatchdog(eng, 100, 3, func() uint64 { return progress }, func(msg string) { failMsg = msg })
	eng.Run()
	if failMsg == "" {
		t.Fatal("watchdog never fired on frozen progress")
	}
	for _, want := range []string{"no progress", "stuck at 7"} {
		if !strings.Contains(failMsg, want) {
			t.Errorf("diagnostic %q missing %q", failMsg, want)
		}
	}
	// First tick primes, then maxIdle idle intervals: fail at 4*interval.
	if eng.Now() != 400 {
		t.Errorf("failed at t=%d, want 400", eng.Now())
	}
}

// TestWatchdogSilentUnderProgress: while the counter moves, the watchdog
// keeps rescheduling and never fires; Stop disarms it.
func TestWatchdogSilentUnderProgress(t *testing.T) {
	eng := NewEngine()
	var progress uint64
	fired := false
	w := NewWatchdog(eng, 100, 2, func() uint64 { return progress }, func(string) { fired = true })
	// Progress bumps faster than the idle threshold.
	var bump func()
	bump = func() {
		progress++
		if eng.Now() < 2000 {
			eng.After(150, bump)
		}
	}
	eng.After(150, bump)
	eng.RunUntil(2000)
	if fired {
		t.Fatal("watchdog fired despite progress")
	}
	w.Stop()
	eng.Run()
	if fired {
		t.Fatal("watchdog fired after Stop")
	}
}

// TestWatchdogDeferForgivesRecoveryWindow: intervals overlapping a
// declared recovery window must not count as strikes — a fail-stop
// reconstruction sweep legitimately freezes progress for its whole
// duration — but the watchdog re-arms afterwards and still catches a
// counter that stays frozen once recovery is over.
func TestWatchdogDeferForgivesRecoveryWindow(t *testing.T) {
	eng := NewEngine()
	var failMsg string
	progress := uint64(7) // frozen throughout
	w := NewWatchdog(eng, 100, 3, func() uint64 { return progress }, func(msg string) { failMsg = msg })
	// Without Defer this fails at t=400; forgive through t=600.
	w.Defer(600)
	eng.Run()
	if failMsg == "" {
		t.Fatal("watchdog never fired after the recovery window closed")
	}
	// Strikes restart after the grace window: the tick at 600 is the last
	// forgiven one (its interval overlaps grace), then 3 idle strikes at
	// 700/800/900 → fail at t=900.
	if eng.Now() != 900 {
		t.Errorf("failed at t=%d, want 900", eng.Now())
	}

	// Progress resuming after the window keeps the watchdog silent.
	eng2 := NewEngine()
	fired := false
	var p2 uint64
	w2 := NewWatchdog(eng2, 100, 2, func() uint64 { return p2 }, func(string) { fired = true })
	w2.Defer(500)
	var bump func()
	bump = func() {
		p2++
		if eng2.Now() < 2000 {
			eng2.After(150, bump)
		}
	}
	eng2.After(500, bump) // blackout until 500, healthy afterwards
	eng2.RunUntil(2000)
	w2.Stop()
	if fired {
		t.Fatal("watchdog fired despite post-recovery progress")
	}

	// Nil receiver is a no-op (fault-free runs carry no watchdog).
	var wn *Watchdog
	wn.Defer(100)
}

// TestWatchdogStopEmptiesQueue: Stop must cancel the armed tick, not
// merely flag it dead — a stopped watchdog over a drained run leaves
// the queue empty instead of one pending no-op tick per Stop.
func TestWatchdogStopEmptiesQueue(t *testing.T) {
	eng := NewEngine()
	w := NewWatchdog(eng, 100, 2, func() uint64 { return 0 }, func(string) {})
	if eng.Pending() != 1 {
		t.Fatalf("pending = %d after arming, want 1", eng.Pending())
	}
	w.Stop()
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0 (tick not cancelled)", eng.Pending())
	}
	// Stop mid-run: let a couple of ticks fire first, then disarm.
	eng2 := NewEngine()
	w2 := NewWatchdog(eng2, 100, 10, func() uint64 { return 0 }, func(string) {})
	eng2.RunUntil(250)
	if eng2.Pending() == 0 {
		t.Fatal("watchdog stopped rescheduling on its own")
	}
	w2.Stop()
	if eng2.Pending() != 0 {
		t.Fatalf("pending = %d after mid-run Stop, want 0", eng2.Pending())
	}
}
