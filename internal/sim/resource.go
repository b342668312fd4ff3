package sim

// Resource models a serially-occupied hardware unit (an L2 bank's control
// pipeline, a Rambus channel, an ICS datapath, a router link). A request
// arriving at time t with service time s begins at max(t, nextFree) and
// completes at begin+s. This captures queueing delay without simulating
// the queue entries individually, which is exact for FIFO service.
type Resource struct {
	Name     string
	nextFree Time

	// Accumulated statistics.
	Requests uint64
	BusyTime Time
	WaitTime Time
	MaxWait  Time
}

// Acquire reserves the resource for service duration s starting no earlier
// than now, and returns the completion time.
func (r *Resource) Acquire(now Time, s Time) (done Time) {
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	wait := start - now
	r.Requests++
	r.WaitTime += wait
	if wait > r.MaxWait {
		r.MaxWait = wait
	}
	r.BusyTime += s
	r.nextFree = start + s
	return r.nextFree
}

// NextFree returns the earliest time the resource is available.
func (r *Resource) NextFree() Time { return r.nextFree }

// Utilization returns busy time as a fraction of the elapsed time span.
func (r *Resource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.BusyTime) / float64(elapsed)
}

// AvgWait returns the mean queueing delay per request in picoseconds.
func (r *Resource) AvgWait() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.WaitTime) / float64(r.Requests)
}

// Pool models a unit with k identical servers (e.g. the 16 TSRF entries of
// a protocol engine, or the MSHRs of an out-of-order core). Requests are
// served FIFO by the earliest-free server.
type Pool struct {
	Name string
	free []Time // next-free time per server
	// heldSince records when an open-ended Reserve claimed each server
	// (zero when the server is not under an open reservation).
	heldSince []Time
	// gen counts reservation epochs per server. A Hold records the
	// generation it was issued under, so a release arriving after
	// RecoverStale already reclaimed (and possibly re-reserved) the
	// server is a no-op instead of clobbering the new occupant.
	gen []uint32

	Requests uint64
	WaitTime Time
	MaxWait  Time
	BusyTime Time

	// Recovered counts reservations force-released by RecoverStale.
	Recovered uint64
}

// NewPool returns a Pool with k servers, all free at time zero.
func NewPool(name string, k int) *Pool {
	if k < 1 {
		k = 1
	}
	return &Pool{
		Name:      name,
		free:      make([]Time, k),
		heldSince: make([]Time, k),
		gen:       make([]uint32, k),
	}
}

// Size returns the number of servers.
func (p *Pool) Size() int { return len(p.free) }

// Acquire allocates the earliest-available server for duration s starting
// no earlier than now and returns the completion time.
//
//piranha:hotpath
func (p *Pool) Acquire(now Time, s Time) (done Time) {
	// Find the server that frees up first.
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start := now
	if p.free[best] > start {
		start = p.free[best]
	}
	wait := start - now
	p.Requests++
	p.WaitTime += wait
	if wait > p.MaxWait {
		p.MaxWait = wait
	}
	p.BusyTime += s
	p.free[best] = start + s
	return p.free[best]
}

// Reserve claims the earliest-available server starting no earlier than
// now and returns the hold on it; the caller releases the hold with the
// actual end time once the work's duration is known. Useful for
// holdings whose length depends on downstream events (e.g. a TSRF entry
// held for a whole coherence transaction).
//
//piranha:hotpath
func (p *Pool) Reserve(now Time) Hold {
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start := now
	if p.free[best] > start {
		start = p.free[best]
	}
	wait := start - now
	p.Requests++
	p.WaitTime += wait
	if wait > p.MaxWait {
		p.MaxWait = wait
	}
	// Mark the server busy indefinitely until released.
	p.free[best] = start + reservedMark // placeholder; release overwrites
	p.heldSince[best] = start + 1       // +1 so a t=0 reservation is visible
	return Hold{pool: p, server: int32(best), gen: p.gen[best], start: start}
}

// Hold is one open reservation of a Pool server, returned by Reserve.
// It is a value: copying it copies the claim, and releasing any copy
// releases the server once. The zero Hold holds nothing.
type Hold struct {
	pool   *Pool
	server int32
	gen    uint32 // the server's reservation epoch at Reserve
	start  Time
}

// Held reports whether h came from Reserve (the zero Hold did not).
func (h Hold) Held() bool { return h.pool != nil }

// Start returns when the reservation began.
func (h Hold) Start() Time { return h.start }

// Release frees the server at end, charging it busy from the start. A
// release after RecoverStale reclaimed the server (its generation has
// moved on), a second release, or releasing the zero Hold is a no-op.
//
//piranha:hotpath
func (h Hold) Release(end Time) {
	p := h.pool
	if p == nil || p.gen[h.server] != h.gen {
		return // RecoverStale already reclaimed this reservation
	}
	if end < h.start {
		end = h.start
	}
	p.BusyTime += end - h.start
	p.free[h.server] = end
	p.heldSince[h.server] = 0
	p.gen[h.server]++
}

// reservedMark flags a server under an open-ended reservation. It is far
// beyond any plausible simulated horizon (~1.1 s) so a reserved server is
// not misclassified as free, yet small enough that retry loops which back
// off past it (the baseline NAK protocol under a saturated TSRF) still
// terminate. Stale-release safety does not depend on its magnitude: the
// per-server generation counters make a release that arrives after
// RecoverStale reclaimed the entry a no-op.
const reservedMark Time = 1 << 40

// RecoverStale force-releases open reservations older than timeout — the
// protocol engines' error recovery: a transaction whose response never
// arrived is detected by its TSRF timer and its entry reclaimed (its
// state would be encapsulated for recovery software). Returns how many
// entries were recovered.
func (p *Pool) RecoverStale(now, timeout Time) int {
	n := 0
	for i, h := range p.heldSince {
		if h != 0 && now-(h-1) > timeout {
			p.BusyTime += now - (h - 1)
			p.free[i] = now
			p.heldSince[i] = 0
			p.gen[i]++ // invalidate the outstanding Hold
			p.Recovered++
			n++
		}
	}
	return n
}

// InUse reports how many servers are busy at time t.
func (p *Pool) InUse(t Time) int {
	n := 0
	for _, f := range p.free {
		if f > t {
			n++
		}
	}
	return n
}

// AvgWait returns the mean queueing delay per request in picoseconds.
func (p *Pool) AvgWait() float64 {
	if p.Requests == 0 {
		return 0
	}
	return float64(p.WaitTime) / float64(p.Requests)
}
