package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// A generic instantiation folds to the package that defines the
		// function, not to a package named in its type arguments.
		{[]string{"piranha/internal/linemap.(*Map[go.shape.struct { piranha/internal/l2.sharers uint32; piranha/internal/l2.owner int8; piranha/internal/l2.dirty bool; piranha/internal/l2.lastReq int8; piranha/internal/l2.remote piranha/internal/l2.RemoteState }]).Ref"}, "linemap"},
		{[]string{"piranha/internal/linemap.(*Map[go.shape.int64]).Get"}, "linemap"},
		// Closures and method values fold to their package.
		{[]string{"piranha/internal/workload.(*OLTPProc).generate.func1"}, "workload"},
		{[]string{"piranha/internal/kernel.(*Kernel).dispatch.func5"}, "kernel"},
		{[]string{"piranha/internal/l2.(*L2).Access-fm"}, "l2"},
		{[]string{"piranha/internal/directory.Encode"}, "directory"},
		{[]string{"type:.eq.piranha/internal/l2.Stats"}, "l2"},
		{[]string{"piranha.Run"}, "piranha"},
		{[]string{"math.archExp", "math.Pow", "piranha/internal/workload.(*zipf).Next"}, "math"},
		{[]string{"math/bits.TrailingZeros64"}, "math"},
		// The runtime splits into collection/allocation and the rest.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "piranha/internal/pe.(*Fabric).send"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.growslice", "piranha/internal/sim.(*Engine).Schedule"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"runtime.gcWriteBarrier2", "piranha/internal/cpu.(*Core).Exec"}, "runtime.gc"},
		{[]string{"internal/runtime/maps.ctrlGroup.matchH2", "runtime.mapaccess2_faststr", "piranha/internal/stats.(*Set).Get"}, "runtime.other"},
		{[]string{"runtime.memmove", "piranha/internal/l2.(*L2).access"}, "runtime.other"},
		{[]string{"sort.Float64s", "main.median"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack[0:min(1, len(c.stack))], got, c.want)
		}
	}
}

//go:noinline
func burnMath(d time.Duration) float64 {
	s := 0.0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			s += float64(i) * 1.0000001
		}
	}
	return s
}

// TestFoldProfile decodes a real CPU profile of this process and checks
// that its samples fold to a positive total that every layer sums to.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sinkF = burnMath(300 * time.Millisecond)
	pprof.StopCPUProfile()
	layers, total, err := foldProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("folded total %d, want > 0", total)
	}
	var sum int64
	for _, v := range layers {
		sum += v
	}
	if sum != total {
		t.Fatalf("layers sum to %d, total is %d", sum, total)
	}
	// burnMath is in package main, which folds to "other".
	if layers[layerOther] < total/2 {
		t.Errorf("other = %d of %d ns; the profiled loop lives in package main", layers[layerOther], total)
	}
}

var sinkF float64

func TestFoldRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("foldProfile accepted a non-gzip input")
	}
}
