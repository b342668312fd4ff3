package workload

import (
	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// opBuffers recycles one generator's op buffers among its processes. A
// process takes a buffer when it starts a transaction and hands it back
// once the last op has issued. A buffer is allocated once, at the size
// of the largest transaction generated so far plus a sixteenth
// (transaction lengths vary by a few percent), so after its first
// transaction a process allocates nothing. A 64-node machine runs
// hundreds of processes, most for only a transaction or two, so growing
// each buffer from empty would dominate the run's allocation. The
// simulation engine is serial, so the processes of one generator never
// use it concurrently.
type opBuffers struct {
	max  int        // ops in the largest transaction generated so far
	free [][]cpu.Op // drained buffers handed back
}

// opQueue is one process's current transaction and how much of it has
// issued.
type opQueue struct {
	ops  []cpu.Op // nil between transactions
	head int
}

// next returns the process's next op. An idle queue first takes a
// buffer from bufs (a recycled one, else a new one sized from the
// largest transaction so far) and fills it with one transaction from gen; the
// op that drains the queue hands the buffer back.
func (q *opQueue) next(bufs *opBuffers, r *sim.RNG, gen func(*sim.RNG, []cpu.Op) []cpu.Op) cpu.Op {
	if q.ops == nil {
		var buf []cpu.Op
		if n := len(bufs.free); n > 0 {
			buf = bufs.free[n-1][:0]
			bufs.free = bufs.free[:n-1]
		} else {
			buf = make([]cpu.Op, 0, bufs.max+bufs.max/16)
		}
		q.ops, q.head = gen(r, buf), 0
		bufs.max = max(bufs.max, len(q.ops))
	}
	op := q.ops[q.head]
	q.head++
	if q.head == len(q.ops) {
		bufs.free = append(bufs.free, q.ops)
		q.ops = nil
	}
	return op
}
