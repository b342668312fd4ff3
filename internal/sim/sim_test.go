package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.After(5, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run()
	if count != 100 {
		t.Fatalf("chain executed %d times, want 100", count)
	}
	if e.Now() != 99*5 {
		t.Fatalf("Now() = %d, want %d", e.Now(), 99*5)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := Time(10); i <= 100; i += 10 {
		e.Schedule(i, func() { ran++ })
	}
	e.RunUntil(50)
	if ran != 5 {
		t.Fatalf("ran %d events by t=50, want 5", ran)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending %d, want 5", e.Pending())
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	e.Run()
	if ran != 10 {
		t.Fatalf("ran %d total, want 10", ran)
	}
}

func TestClock(t *testing.T) {
	c := MHz(500)
	if c.Period != 2000 {
		t.Fatalf("500MHz period = %d ps, want 2000", c.Period)
	}
	if MHz(1000).Period != 1000 {
		t.Fatalf("1GHz period wrong")
	}
	if GHzX1000(1250).Period != 800 {
		t.Fatalf("1.25GHz period = %d, want 800", GHzX1000(1250).Period)
	}
	if c.Cycles(3) != 6000 {
		t.Fatalf("Cycles(3) = %d", c.Cycles(3))
	}
	if c.ToCycles(6001) != 4 {
		t.Fatalf("ToCycles rounds up: got %d", c.ToCycles(6001))
	}
	if c.Freq() != 500 {
		t.Fatalf("Freq() = %d", c.Freq())
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	// Two back-to-back requests of 10 ps each arriving at t=0.
	d1 := r.Acquire(0, 10)
	d2 := r.Acquire(0, 10)
	if d1 != 10 || d2 != 20 {
		t.Fatalf("completion times %d,%d; want 10,20", d1, d2)
	}
	if r.WaitTime != 10 {
		t.Fatalf("wait time %d, want 10", r.WaitTime)
	}
	// A request after the queue drained sees no wait.
	d3 := r.Acquire(100, 5)
	if d3 != 105 {
		t.Fatalf("idle-resource completion %d, want 105", d3)
	}
	if r.MaxWait != 10 {
		t.Fatalf("max wait %d, want 10", r.MaxWait)
	}
	if got := r.Utilization(105); got <= 0.2 || got >= 0.3 {
		t.Fatalf("utilization = %v, want 25/105", got)
	}
}

func TestPoolParallelism(t *testing.T) {
	p := NewPool("tsrf", 2)
	d1 := p.Acquire(0, 10)
	d2 := p.Acquire(0, 10)
	d3 := p.Acquire(0, 10)
	if d1 != 10 || d2 != 10 {
		t.Fatalf("two servers should run in parallel: %d, %d", d1, d2)
	}
	if d3 != 20 {
		t.Fatalf("third request should queue: %d", d3)
	}
	if p.InUse(5) != 2 {
		t.Fatalf("InUse(5) = %d, want 2", p.InUse(5))
	}
	if p.InUse(25) != 0 {
		t.Fatalf("InUse(25) = %d, want 0", p.InUse(25))
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	base := NewRNG(7)
	s1 := base.Split(1)
	s2 := base.Split(2)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams identical")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(1000, 0.8)
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(r)]++
	}
	// Rank 0 should be drawn far more than a uniform share.
	if counts[0] < draws/200 {
		t.Fatalf("hot item drawn only %d of %d times", counts[0], draws)
	}
	// Top decile should dominate.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.4 {
		t.Fatalf("top-10%% share = %v, expected heavy skew", float64(top)/draws)
	}
}

// refZipfNext is Zipf.Next as it read before the rank-1 bound moved
// into NewZipf: it recomputes 1+0.5^theta on every sample.
func refZipfNext(z *Zipf, r *RNG) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

// TestZipfMatchesRecomputingReference pins that hoisting the rank-1
// bound changed no sample: 10^5 draws per skew equal the reference's.
func TestZipfMatchesRecomputingReference(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.99, 1.2} {
		z := NewZipf(4096, theta)
		r, ref := NewRNG(17), NewRNG(17)
		ones := 0
		for i := 0; i < 100000; i++ {
			got, want := z.Next(r), refZipfNext(z, ref)
			if got != want {
				t.Fatalf("theta %v draw %d: %d, reference %d", theta, i, got, want)
			}
			if got == 1 {
				ones++
			}
		}
		if ones == 0 {
			t.Fatalf("theta %v: rank 1 never drawn; the bound went untested", theta)
		}
	}
}

func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	var chain func()
	n := 0
	chain = func() {
		n++
		if n < b.N {
			e.After(1, chain)
		}
	}
	e.Schedule(0, chain)
	b.ResetTimer()
	e.Run()
}

func TestPoolReserveRelease(t *testing.T) {
	p := NewPool("tsrf", 2)
	h1 := p.Reserve(0)
	h2 := p.Reserve(0)
	if h1.Start() != 0 || h2.Start() != 0 {
		t.Fatalf("starts %d %d", h1.Start(), h2.Start())
	}
	// Third reservation waits until a release.
	h1.Release(100)
	h3 := p.Reserve(10)
	if h3.Start() != 100 {
		t.Fatalf("third reservation starts at %d, want 100", h3.Start())
	}
	h3.Release(200)
	if p.InUse(250) != 1 {
		t.Fatalf("InUse(250) = %d, want 1 (the unreleased one)", p.InUse(250))
	}
}

func TestPoolRecoverStale(t *testing.T) {
	p := NewPool("tsrf", 2)
	p.Reserve(0) // never released: a lost transaction
	p.Reserve(0).Release(50)
	// Before the timeout expires nothing is recovered.
	if n := p.RecoverStale(100, 200); n != 0 {
		t.Fatalf("premature recovery of %d entries", n)
	}
	if n := p.RecoverStale(1000, 200); n != 1 {
		t.Fatalf("recovered %d entries, want 1", n)
	}
	// The freed entry is reusable immediately.
	if s := p.Reserve(1000).Start(); s != 1000 {
		t.Fatalf("recovered entry not reusable: start %d", s)
	}
}

// TestPoolReserveReleaseAllocsNothing pins the value-typed Hold: taking
// and releasing a TSRF-style reservation allocates nothing.
func TestPoolReserveReleaseAllocsNothing(t *testing.T) {
	p := NewPool("tsrf", 16)
	now := Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		h := p.Reserve(now)
		now += 10
		h.Release(now)
	})
	if allocs != 0 {
		t.Fatalf("Reserve+Release allocates %.1f/op", allocs)
	}
}

// BenchmarkPoolReserveRelease times one reservation and its release.
func BenchmarkPoolReserveRelease(b *testing.B) {
	p := NewPool("tsrf", 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reserve(Time(i)).Release(Time(i) + 5)
	}
}
