package noc

import (
	"testing"

	"piranha/internal/sim"
)

// runTraffic drives uniform random traffic and a drain; forceDense
// re-activates every router before each step, turning the sparse walk
// back into the old dense 0..N-1 loop. Sparse activation claims skipping
// quiescent routers changes nothing — this is that claim, tested.
func runTraffic(t *testing.T, forceDense bool) NetStats {
	t.Helper()
	topo := Torus{W: 4, H: 4}
	net, err := NewNetwork(Config{BufferPool: 4, OQDepth: 8}, topo, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(99)
	n := topo.Nodes()
	dense := func() {
		if !forceDense {
			return
		}
		for i := 0; i < n; i++ {
			net.activate(i)
		}
	}
	for c := 0; c < 2000; c++ {
		for node := 0; node < n; node++ {
			if rng.Float64() < 0.35 {
				dst := rng.Intn(n)
				if dst == node {
					continue
				}
				net.Inject(node, dst, rng.Intn(Priorities), rng.Bool(0.3))
			}
		}
		dense()
		net.Step()
	}
	for net.InFlight() > 0 {
		dense()
		net.Step()
	}
	return net.Stats()
}

// TestSparseActivationMatchesDense asserts byte-identical outcomes
// between the sparse worklist walk and a forced dense walk over every
// router: same deliveries, latencies, hops, deflections and buffer
// depths under contended random traffic.
func TestSparseActivationMatchesDense(t *testing.T) {
	sparse := runTraffic(t, false)
	dense := runTraffic(t, true)
	if sparse != dense {
		t.Fatalf("sparse run diverged from dense run:\nsparse: %+v\ndense:  %+v", sparse, dense)
	}
}
