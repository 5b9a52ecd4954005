// Package xrand provides a replayable random source for checkpointing.
//
// Resuming a tuner from disk must reproduce the exact decision sequence
// an uninterrupted run would have produced, and every stochastic choice
// in the tuner flows through a math/rand stream seeded at construction.
// math/rand does not expose its internal state, but the state of a
// seeded stream is fully determined by (seed, number of values drawn).
// Source wraps the standard source and counts draws, so a checkpoint can
// record the position and a restore can fast-forward a fresh stream to
// it. Fast-forwarding is linear in the position, which is bounded by the
// iteration count of the tuning run — microseconds at any realistic
// scale.
package xrand

import "math/rand"

// Source is a rand.Source64 that remembers its seed and counts the
// values drawn, so its exact stream position can be saved and restored.
// It is not safe for concurrent use, matching rand.NewSource.
type Source struct {
	seed  int64
	drawn uint64
	inner rand.Source64
}

// New returns a Source producing the same stream as rand.NewSource(seed).
func New(seed int64) *Source {
	return &Source{seed: seed, inner: rand.NewSource(seed).(rand.Source64)}
}

// Restore returns a Source fast-forwarded to the given position: the
// state a New(seed) source reaches after drawn values.
func Restore(seed int64, drawn uint64) *Source {
	s := New(seed)
	s.AdvanceTo(drawn)
	return s
}

// AdvanceTo fast-forwards s to the position drawn, discarding the values
// in between. A position at or behind the current one leaves s as it is.
func (s *Source) AdvanceTo(drawn uint64) {
	for ; s.drawn < drawn; s.drawn++ {
		s.inner.Uint64()
	}
}

// Int63 draws the next value, counting it.
func (s *Source) Int63() int64 {
	s.drawn++
	return s.inner.Int63()
}

// Uint64 draws the next value, counting it.
func (s *Source) Uint64() uint64 {
	s.drawn++
	return s.inner.Uint64()
}

// Seed reseeds the source and resets the position.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.drawn = 0
	s.inner.Seed(seed)
}

// State returns the seed and the number of values drawn since it.
func (s *Source) State() (seed int64, drawn uint64) { return s.seed, s.drawn }

// Rand returns a *rand.Rand drawing from s. Every draw through the
// returned Rand advances (and counts in) s.
func (s *Source) Rand() *rand.Rand { return rand.New(s) }
