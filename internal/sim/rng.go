package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style splitmix fallback) used by workload generators and
// routing decisions. Each component derives its own stream from a base
// seed so that adding a component never perturbs another component's
// sequence — a property math/rand's shared source does not give us.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator labeled by id.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0x5851f42d4c957f2d)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Zipf returns values in [0, n) following an approximate Zipf distribution
// with exponent theta (0 < theta < 1 typical for database hot sets).
// It uses the standard inverse-CDF approximation from Gray et al., which
// is what TPC workload generators use for skewed access.
type Zipf struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	theta float64
	// second is 1 + 0.5^theta, the scaled CDF bound below which a
	// sample is rank 1, kept so Next makes no math.Pow call for it.
	second float64
}

// NewZipf prepares a Zipf sampler over [0, n) with skew theta.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, theta: theta, second: 1 + pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / pow(float64(i), theta)
	}
	zeta2 := 1 + 1/pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Next samples a value in [0, n).
func (z *Zipf) Next(r *RNG) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	v := int(float64(z.n) * pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

func pow(x, y float64) float64 { return math.Pow(x, y) }
