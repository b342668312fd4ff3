package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"piranha/internal/sim"
)

func TestCounterSet(t *testing.T) {
	s := NewSet()
	s.Get("a").Inc()
	s.Get("b").Add(5)
	s.Get("a").Add(2)
	if s.Value("a") != 3 || s.Value("b") != 5 {
		t.Fatalf("values a=%d b=%d", s.Value("a"), s.Value("b"))
	}
	if s.Value("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("creation order lost: %v", names)
	}
	if !strings.Contains(s.String(), "a") {
		t.Fatal("String() missing counter")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("lat", 10, 100, 1000)
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	if h.Count != 5 {
		t.Fatalf("count %d", h.Count)
	}
	want := []uint64{2, 2, 0, 1}
	for i, w := range want {
		if h.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Buckets[i], w)
		}
	}
	if h.Min != 5 || h.Max != 5000 {
		t.Fatalf("min/max %d/%d", h.Min, h.Max)
	}
	if h.Mean() != (5+10+11+100+5000)/5.0 {
		t.Fatalf("mean %v", h.Mean())
	}
	if !strings.Contains(h.String(), "lat") {
		t.Fatal("render missing name")
	}
}

// TestZeroInputEdges sweeps the zero/empty-input corners of the
// package's reducers and renderers in one table: none may panic, divide
// by zero, or leak an internal sentinel into output.
func TestZeroInputEdges(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"histogram mean empty", func(t *testing.T) {
			h := NewHistogram("e", 10)
			if m := h.Mean(); m != 0 {
				t.Fatalf("empty Mean = %v, want 0", m)
			}
		}},
		{"histogram string empty", func(t *testing.T) {
			s := NewHistogram("e", 10).String()
			if !strings.Contains(s, "n=0 mean=0.0 min=0 max=0") {
				t.Fatalf("empty histogram renders %q; the Min sentinel leaked", s)
			}
		}},
		{"breakdown normalized zero ref", func(t *testing.T) {
			b := Breakdown{CPUBusy: 100}
			busy, hit, miss, other := b.Normalized(0)
			if busy != 0 || hit != 0 || miss != 0 || other != 0 {
				t.Fatalf("Normalized(0) = %v %v %v %v, want zeros", busy, hit, miss, other)
			}
		}},
		{"miss breakdown empty", func(t *testing.T) {
			hit, fwd, miss := MissBreakdown{}.Fractions()
			if hit != 0 || fwd != 0 || miss != 0 {
				t.Fatalf("empty Fractions = %v %v %v", hit, fwd, miss)
			}
		}},
		{"sparkline all zero", func(t *testing.T) {
			if got := Sparkline([]float64{0, 0, 0}); got != "   " {
				t.Fatalf("all-zero sparkline = %q, want spaces", got)
			}
		}},
		{"series fracs all zero", func(t *testing.T) {
			s := NewSeries(100)
			s.AddBusy(0, 0) // records nothing
			s.AddAccess(50, false)
			for i, f := range s.BusyFracs() {
				if f != 0 {
					t.Fatalf("BusyFracs[%d] = %v on zero busy+stall", i, f)
				}
			}
			for i, r := range s.MissRates() {
				if r != 0 {
					t.Fatalf("MissRates[%d] = %v with zero misses", i, r)
				}
			}
		}},
		{"empty series string", func(t *testing.T) {
			if out := NewSeries(100).String(); out != "" {
				t.Fatalf("empty series renders %q, want empty", out)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.check)
	}
}

func TestHistogramBucketsProperty(t *testing.T) {
	f := func(vals []int16) bool {
		h := NewHistogram("p", 0, 50, 500)
		var n uint64
		for _, v := range vals {
			h.Observe(int64(v))
			n++
		}
		var sum uint64
		for _, b := range h.Buckets {
			sum += b
		}
		return sum == n && h.Count == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{CPUBusy: 100, L2HitStall: 50, L2Miss: 30, Other: 20}
	if b.Total() != 200 {
		t.Fatalf("total %d", b.Total())
	}
	busy, hit, miss, other := b.Normalized(200)
	if busy != 0.5 || hit != 0.25 || miss != 0.15 || other != 0.1 {
		t.Fatalf("normalized %v %v %v %v", busy, hit, miss, other)
	}
	var acc Breakdown
	acc.Add(b)
	acc.Add(b)
	if acc.Total() != 400 {
		t.Fatalf("accumulated total %d", acc.Total())
	}
	var zero Breakdown
	if a, _, _, _ := zero.Normalized(0); a != 0 {
		t.Fatal("zero ref should normalize to zero")
	}
	_ = sim.Time(0)
}

func TestMissBreakdown(t *testing.T) {
	m := MissBreakdown{L2Hit: 60, L2Fwd: 20, L2Miss: 20}
	hit, fwd, miss := m.Fractions()
	if hit != 0.6 || fwd != 0.2 || miss != 0.2 {
		t.Fatalf("fractions %v %v %v", hit, fwd, miss)
	}
	var empty MissBreakdown
	if h, f, ms := empty.Fractions(); h+f+ms != 0 {
		t.Fatal("empty fractions should be zero")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Params", "Name", "Value")
	tb.AddRow("speed", 500)
	tb.AddRow("ratio", 2.9)
	out := tb.String()
	if !strings.Contains(out, "Params") || !strings.Contains(out, "2.90") {
		t.Fatalf("table render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestStackedBars(t *testing.T) {
	sb := &StackedBars{Title: "Fig5", SegNames: []string{"busy", "l2", "mem"}}
	sb.AddBar("OOO", 0.5, 0.3, 0.2)
	sb.AddBar("P8", 0.2, 0.1, 0.05)
	out := sb.String()
	if !strings.Contains(out, "OOO") || !strings.Contains(out, "legend") {
		t.Fatalf("bars render:\n%s", out)
	}
	// The OOO bar (total 1.0) must be longer than the P8 bar (0.35).
	var oooLen, p8Len int
	for _, l := range strings.Split(out, "\n") {
		n := strings.Count(l, "#") + strings.Count(l, "=") + strings.Count(l, ".")
		if strings.HasPrefix(l, "OOO") {
			oooLen = n
		}
		if strings.HasPrefix(l, "P8") {
			p8Len = n
		}
	}
	if oooLen <= p8Len {
		t.Fatalf("bar lengths OOO=%d P8=%d", oooLen, p8Len)
	}
}
