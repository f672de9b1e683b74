// Package stats provides the deterministic random-number generation,
// probability distributions, and descriptive statistics used across the
// Surveyor reproduction.
//
// Everything in this package is deliberately self-contained and seedable so
// that corpus generation, crowd simulation, and experiments are exactly
// reproducible run-to-run and platform-to-platform.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// splitmix64 seeding of an xoshiro256** state. It is NOT safe for concurrent
// use; create one per goroutine (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Distinct seeds give
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to expand the seed into the full state, avoiding the
	// all-zero state xoshiro cannot escape.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for our n
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Shuffle randomly permutes n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller, single value per call).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Poisson draws from a Poisson distribution with mean lambda. Uses Knuth's
// multiplication method for small lambda and a normal approximation with
// continuity correction for large lambda (error negligible at lambda > 64
// for our counting workloads).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		v := r.Normal(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Binomial draws from a Binomial(n, p) distribution. For large n it uses the
// Poisson or normal approximation as appropriate.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	np := float64(n) * p
	switch {
	case n <= 64:
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	case np < 32 && p < 0.05:
		k := r.Poisson(np)
		if k > n {
			return n
		}
		return k
	default:
		v := r.Normal(np, math.Sqrt(np*(1-p)))
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int(v + 0.5)
	}
}
