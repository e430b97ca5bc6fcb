package stacks

import (
	"math/rand"
	"time"
)

// Backoff computes capped exponential retry delays with seeded jitter, for
// the library's control-plane RPC retry: delay doubles per attempt up to a
// cap, and each delay is jittered into [d/2, d) so concurrent retriers on
// different hosts do not re-synchronize. The jitter stream is seeded,
// keeping runs deterministic.
type Backoff struct {
	base, cap time.Duration
	rng       *rand.Rand
}

// NewBackoff builds a schedule starting at base and capped at cap.
func NewBackoff(seed int64, base, cap time.Duration) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay before retry number attempt (0-based): a jittered
// value in [d/2, d) where d = min(base<<attempt, cap).
func (b *Backoff) Next(attempt int) time.Duration {
	d := b.base
	for i := 0; i < attempt && d < b.cap; i++ {
		d *= 2
	}
	if d > b.cap {
		d = b.cap
	}
	half := d / 2
	return half + time.Duration(b.rng.Int63n(int64(half)+1))
}
