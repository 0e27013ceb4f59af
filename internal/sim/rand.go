package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random stream (SplitMix64
// seeded xorshift128+). Each subsystem takes its own stream so adding a
// consumer never perturbs another subsystem's draws.
//
// The zero value is not useful; construct with NewRand.
type Rand struct {
	s0, s1 uint64
}

// NewRand returns a stream seeded from seed via SplitMix64.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets the stream as if freshly created with seed.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1 // xorshift state must be non-zero
	}
}

// Fork derives an independent stream; the parent advances by one draw.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Int63n returns a value uniformly distributed in [0, n). It panics if
// n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
