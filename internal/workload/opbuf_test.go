package workload

import (
	"testing"

	"piranha/internal/cpu"
	"piranha/internal/sim"
)

// oltpProcs returns n processes of one OLTP generator and their RNGs.
func oltpProcs(n int) ([]*OLTPProc, []*sim.RNG) {
	o := NewOLTP(DefaultOLTP(), DefaultLayout(), n)
	procs, rngs := make([]*OLTPProc, n), make([]*sim.RNG, n)
	for i := range procs {
		procs[i], rngs[i] = o.NewProcess(), sim.NewRNG(uint64(i)+1)
	}
	return procs, rngs
}

// interleaveTx issues the processes' ops round-robin, one op each per
// turn, until each has issued one more transaction marker, so every
// process holds a buffer at once and the buffers change hands as they
// drain.
func interleaveTx(procs []*OLTPProc, rngs []*sim.RNG) {
	var done uint64 // bit i: process i issued its marker
	for left := len(procs); left > 0; {
		for i, p := range procs {
			if done>>i&1 == 0 && p.Next(rngs[i]).Kind == cpu.KTxMark {
				done |= 1 << i
				left--
			}
		}
	}
}

// TestOLTPStreamAllocsOnlyFirstTransaction pins the op-buffer reuse:
// once every process has issued its first transaction, later
// transactions allocate nothing.
func TestOLTPStreamAllocsOnlyFirstTransaction(t *testing.T) {
	procs, rngs := oltpProcs(8)
	interleaveTx(procs, rngs)
	if allocs := testing.AllocsPerRun(100, func() { interleaveTx(procs, rngs) }); allocs != 0 {
		t.Fatalf("a round of transactions allocates %.2f times", allocs)
	}
	// Every buffer is back with the generator between transactions.
	if free := len(procs[0].o.bufs.free); free != len(procs) {
		t.Fatalf("%d buffers handed back, want %d", free, len(procs))
	}
}

// TestOpBuffersSizedToLargestTransaction checks that a buffer allocated
// after the first transaction already fits it.
func TestOpBuffersSizedToLargestTransaction(t *testing.T) {
	procs, rngs := oltpProcs(2)
	for procs[0].Next(rngs[0]).Kind != cpu.KTxMark {
	}
	largest := procs[0].o.bufs.max
	if largest == 0 {
		t.Fatal("largest transaction not recorded")
	}
	procs[1].Next(rngs[1]) // takes the buffer procs[0] handed back
	procs[0].Next(rngs[0]) // none left: a new one at the recorded size
	if c := cap(procs[0].queue.ops); c < largest || c > largest*5/4 {
		t.Fatalf("new buffer holds %d ops, want about the largest transaction's %d", c, largest)
	}
}

// BenchmarkOLTPStream issues whole OLTP transactions from eight
// interleaved processes of one generator; allocs/op counts a round.
func BenchmarkOLTPStream(b *testing.B) {
	procs, rngs := oltpProcs(8)
	interleaveTx(procs, rngs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interleaveTx(procs, rngs)
	}
}
