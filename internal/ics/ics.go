// Package ics models Piranha's intra-chip switch (paper §2.2): a push-only
// transactional crossbar connecting the 27 on-chip clients (8 CPUs' L1
// pairs, 8 L2 banks, 2 protocol engines, system control) over eight
// internal 64-bit datapaths running along the chip's center.
//
// Two properties matter for the rest of the system and are modeled here:
//
//   - Bandwidth/occupancy: eight datapaths moving one 64-bit word per
//     500 MHz cycle give 32 GB/s — about 3x the memory bandwidth, so the
//     paper notes optimal scheduling is not critical. We model the eight
//     datapaths as a pool; a transfer occupies one for its duration.
//   - Ordering: transfers are atomic and the switch's implied ordering is
//     what lets the L2 controllers invalidate on-chip L1s without
//     acknowledgment messages. Functionally our single-threaded event
//     loop applies invalidations atomically, preserving that property;
//     the Switch type records the lane discipline (low/high priority)
//     used to avoid intra-chip protocol deadlock.
package ics

import (
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// Lane is one of the two logical lanes multiplexed on the datapaths.
type Lane uint8

// Lanes. Requests travel on Low; replies and forwarded requests on High,
// mirroring the deadlock-avoidance discipline of the inter-node protocol.
const (
	Low Lane = iota
	High
)

// Config describes the switch.
type Config struct {
	Datapaths int       // internal 64-bit datapaths (8)
	Clock     sim.Clock // switch clock (core clock, 500 MHz)
	// HintCycles is the scheduling overhead when no early destination
	// hint was issued; with a hint the grant is speculative and the
	// transfer starts back-to-back (0 extra cycles).
	HintCycles int
}

// DefaultConfig is the prototype ICS: 8 datapaths at the core clock.
func DefaultConfig(clock sim.Clock) Config {
	return Config{Datapaths: 8, Clock: clock, HintCycles: 1}
}

// Switch is the intra-chip switch. Transfers acquire a datapath for
// size/8 cycles (one 64-bit word per cycle, back-to-back, no dead cycles).
type Switch struct {
	cfg   Config
	paths *sim.Server

	tr   *trace.Tracer
	node uint8

	// Per-lane transfer counts (the lanes share the datapaths; they are
	// distinct ready/ID signaling, not extra wires).
	Transfers [2]uint64
	Bytes     [2]uint64
}

// SetTracer attaches a tracer (nil disables) stamping events with the
// chip index.
func (s *Switch) SetTracer(tr *trace.Tracer, node uint8) { s.tr, s.node = tr, node }

// New returns an idle switch.
func New(cfg Config) *Switch {
	return &Switch{cfg: cfg, paths: sim.NewServer(cfg.Datapaths)}
}

// Transfer moves size bytes at time now on the given lane, with hinted
// indicating the initiator issued an early destination hint. It returns
// the completion time.
func (s *Switch) Transfer(now sim.Time, lane Lane, size int, hinted bool) sim.Time {
	words := int64((size + 7) / 8)
	if words == 0 {
		words = 1
	}
	cycles := words
	if !hinted {
		cycles += int64(s.cfg.HintCycles)
	}
	s.Transfers[lane]++
	s.Bytes[lane] += uint64(size)
	done := s.paths.Acquire(now, s.cfg.Clock.Cycles(cycles))
	s.tr.Span(trace.NOC, trace.KICS, s.node, int16(lane), 0, now, done, uint32(size))
	return done
}

// PeakBandwidth returns the switch's aggregate bandwidth in bytes/sec.
func (s *Switch) PeakBandwidth() int64 {
	cyclesPerSec := int64(sim.Second / s.cfg.Clock.Period)
	return int64(s.cfg.Datapaths) * 8 * cyclesPerSec
}

// AvgWait returns the mean queueing delay per transfer in picoseconds.
func (s *Switch) AvgWait() float64 { return s.paths.AvgWait() }
