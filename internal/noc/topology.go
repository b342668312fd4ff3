// Package noc simulates Piranha's system interconnect (paper §2.6): the
// output queue (OQ), the topology-independent adaptive virtual cut-through
// router (RT, derived from the S3.mp S-Connect), and the input queue (IQ).
//
// Each processing node has four point-to-point channels (I/O nodes have
// two); packets are either Short (128 bits, 2 interconnect cycles on a
// channel) or Long (128-bit header + 64-byte data, 10 cycles). Four
// priority levels are supported end to end; the OQ never lets low
// priority block high priority, while the IQ additionally lets low
// priority *bypass* blocked high-priority traffic when it can proceed.
//
// Routing is "hot potato": a packet that cannot get its preferred output
// port is deflected out of any free port with its age incremented, and
// age raises effective priority, so a packet can theoretically reach an
// empty buffer anywhere in the network — which is why buffering needs
// grow linearly rather than quadratically with node count.
package noc

import "fmt"

// Topology describes which nodes connect to which.
type Topology interface {
	Nodes() int
	// Neighbors returns the nodes reachable over n's channels,
	// in channel order.
	Neighbors(n int) []int
}

// Ring connects n nodes in a cycle (2 channels each).
type Ring struct{ N int }

// Nodes implements Topology.
func (r Ring) Nodes() int { return r.N }

// Neighbors implements Topology.
func (r Ring) Neighbors(n int) []int {
	return []int{(n + 1) % r.N, (n - 1 + r.N) % r.N}
}

// Distance returns the shortest-path hop count from a to b: the shorter
// way round the ring.
//
//piranha:hotpath
func (r Ring) Distance(a, b int) int {
	d := abs(a - b)
	return min(d, r.N-d)
}

// Validate rejects a ring without nodes.
func (r Ring) Validate() error {
	if r.N < 1 {
		return fmt.Errorf("noc: ring of %d nodes", r.N)
	}
	return nil
}

// Torus is a W x H 2D torus (4 channels each, matching the Piranha
// processing node's channel count).
type Torus struct{ W, H int }

// Nodes implements Topology.
func (t Torus) Nodes() int { return t.W * t.H }

// Neighbors implements Topology.
func (t Torus) Neighbors(n int) []int {
	x, y := n%t.W, n/t.W
	wrap := func(x, y int) int { return ((y+t.H)%t.H)*t.W + (x+t.W)%t.W }
	return []int{wrap(x+1, y), wrap(x-1, y), wrap(x, y+1), wrap(x, y-1)}
}

// Distance returns the shortest-path hop count from a to b: each axis
// is walked the shorter way round. On a 1-wide or 2-wide axis the
// neighbour list repeats a node or holds the node itself, and the
// formula still gives BFS's answer (0 and 1 hop respectively).
//
//piranha:hotpath
func (t Torus) Distance(a, b int) int {
	dx, dy := abs(a%t.W-b%t.W), abs(a/t.W-b/t.W)
	return min(dx, t.W-dx) + min(dy, t.H-dy)
}

// Validate rejects non-positive dimensions.
func (t Torus) Validate() error {
	if t.W < 1 || t.H < 1 {
		return fmt.Errorf("noc: torus dimensions %dx%d must be positive", t.W, t.H)
	}
	return nil
}

// Mesh is a W x H 2D mesh (edge nodes have fewer channels).
type Mesh struct{ W, H int }

// Nodes implements Topology.
func (m Mesh) Nodes() int { return m.W * m.H }

// Neighbors implements Topology.
func (m Mesh) Neighbors(n int) []int {
	x, y := n%m.W, n/m.W
	var out []int
	if x+1 < m.W {
		out = append(out, n+1)
	}
	if x > 0 {
		out = append(out, n-1)
	}
	if y+1 < m.H {
		out = append(out, n+m.W)
	}
	if y > 0 {
		out = append(out, n-m.W)
	}
	return out
}

// Distance returns the shortest-path hop count from a to b: the
// Manhattan distance.
//
//piranha:hotpath
func (m Mesh) Distance(a, b int) int {
	return abs(a%m.W-b%m.W) + abs(a/m.W-b/m.W)
}

// Validate rejects non-positive dimensions.
func (m Mesh) Validate() error {
	if m.W < 1 || m.H < 1 {
		return fmt.Errorf("noc: mesh dimensions %dx%d must be positive", m.W, m.H)
	}
	return nil
}

// Full connects every pair of nodes directly.
type Full struct{ N int }

// Nodes implements Topology.
func (f Full) Nodes() int { return f.N }

// Neighbors implements Topology.
func (f Full) Neighbors(n int) []int {
	out := make([]int, 0, f.N-1)
	for i := 0; i < f.N; i++ {
		if i != n {
			out = append(out, i)
		}
	}
	return out
}

// Distance returns the shortest-path hop count from a to b: one hop
// between any two distinct nodes.
//
//piranha:hotpath
func (f Full) Distance(a, b int) int {
	if a == b {
		return 0
	}
	return 1
}

// Validate rejects a fully connected network without nodes.
func (f Full) Validate() error {
	if f.N < 1 {
		return fmt.Errorf("noc: fully connected network of %d nodes", f.N)
	}
	return nil
}

// Table is an arbitrary topology given by adjacency lists, as loaded into
// the routers' routing tables by the system controller. It also models
// I/O nodes, which have only two channels.
type Table struct{ Adj [][]int }

// Nodes implements Topology.
func (t Table) Nodes() int { return len(t.Adj) }

// Neighbors implements Topology.
func (t Table) Neighbors(n int) []int { return t.Adj[n] }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Routes computes per-node next-hop tables (all shortest-path next hops)
// by BFS; hops[n][d] is the distance from n to d. The system controller
// checks a loaded routing table with it.
func Routes(t Topology) (next [][][]int, hops [][]int, err error) {
	return routes(t)
}

// routes computes per-node next-hop tables (all shortest-path next hops)
// by BFS. hops[n][d] is the distance from n to d.
func routes(t Topology) (next [][][]int, hops [][]int, err error) {
	n := t.Nodes()
	hops = make([][]int, n)
	next = make([][][]int, n)
	for src := 0; src < n; src++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for d, dv := range dist {
			if dv < 0 && d != src {
				return nil, nil, fmt.Errorf("noc: node %d unreachable from %d", d, src)
			}
		}
		hops[src] = dist
	}
	for src := 0; src < n; src++ {
		next[src] = make([][]int, n)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			for _, v := range t.Neighbors(src) {
				if hops[v][dst] == hops[src][dst]-1 {
					next[src][dst] = append(next[src][dst], v)
				}
			}
		}
	}
	return next, hops, nil
}
