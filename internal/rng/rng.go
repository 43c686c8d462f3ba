// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component of the system (data generation, negative
// sampling, client selection, the β/γ/λ privacy mechanisms, weight
// initialization) draws from a named stream derived from a single experiment
// seed, so a run is reproducible end-to-end and two components never share a
// stream by accident.
//
// A stream draws math/rand's sequence for its seed, draw for draw, from this
// package's copy of math/rand's source (source.go). It seeds nothing until it
// needs to: its first 607 draws are computed from the seed alone, so a stream
// that is only a parent in a Derive chain, or draws a few hundred values,
// never builds math/rand's 607-word state.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Stream is a deterministic random stream. It wraps a math/rand generator
// over this package's copy of math/rand's source (source.go) with the
// sampling helpers used across the repository. A Stream is not safe for
// concurrent use; derive one stream per goroutine.
type Stream struct {
	r    *rand.Rand
	seed uint64
}

// New returns a stream seeded with seed. It starts on a lazySource, which
// seeds no state until the stream's 608th draw.
func New(seed uint64) *Stream {
	s := &Stream{seed: seed}
	s.r = rand.New(&lazySource{s: s, x0: uint32(seedStart(int64(seed)))})
	return s
}

// Derive returns an independent stream keyed by name. Deriving the same name
// from the same parent seed always yields the same stream, regardless of how
// much the parent has been consumed.
func (s *Stream) Derive(name string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(s.seed ^ h.Sum64() ^ 0x9e3779b97f4a7c15)
}

// DeriveN returns an independent stream keyed by name and an index, for
// per-client or per-round streams.
func (s *Stream) DeriveN(name string, n int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	x := s.seed ^ h.Sum64() ^ (uint64(n)+1)*0x9e3779b97f4a7c15
	// One round of splitmix64 finalisation so consecutive indices decorrelate.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return New(x)
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.r.Float64() }

// Float64Range returns a uniform value in [lo, hi).
func (s *Stream) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Intn returns a uniform value in [0, n).
func (s *Stream) Intn(n int) int { return s.r.Intn(n) }

// IntRange returns a uniform value in [lo, hi] (inclusive).
func (s *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange hi < lo")
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Bernoulli returns true with probability p.
func (s *Stream) Bernoulli(p float64) bool { return s.r.Float64() < p }

// Normal returns a sample from N(mean, stddev²).
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Laplace returns a sample from the Laplace distribution with location 0 and
// the given scale (b = sensitivity/ε for local differential privacy).
func (s *Stream) Laplace(scale float64) float64 {
	u := s.r.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle randomly permutes n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// SampleInts returns k distinct values drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of all n values.
func (s *Stream) SampleInts(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	// Partial Fisher–Yates over a lazily materialised identity permutation:
	// O(k) memory via map fallback only when k << n.
	if k*4 >= n {
		p := s.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.r.Intn(n-i)
		vj, ok := chosen[j]
		if !ok {
			vj = j
		}
		vi, ok := chosen[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		chosen[j] = vi
	}
	return out
}

// SampleSlice returns k distinct elements of xs drawn uniformly.
func SampleSlice[T any](s *Stream, xs []T, k int) []T {
	idx := s.SampleInts(len(xs), k)
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// Zipf draws values in [0, n) with P(i) ∝ 1/(i+1)^exponent, matching the
// long-tailed item popularity of real recommendation data.
type Zipf struct {
	cdf []float64
	s   *Stream
}

// NewZipf builds a Zipf sampler over n ranks with the given exponent.
func NewZipf(s *Stream, n int, exponent float64) *Zipf {
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), exponent)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, s: s}
}

// Draw returns one rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.s.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
